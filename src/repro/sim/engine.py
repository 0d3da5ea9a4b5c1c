"""Discrete-event simulation engine.

The engine owns a monotonic cycle clock and an event heap. Every other
component (cores, cache controllers, the network) schedules callbacks on
the engine rather than keeping time itself, which gives one global,
deterministic ordering of all activity in the simulated machine.

Determinism matters for reproducibility of the paper's experiments: two
events scheduled for the same cycle fire in the order they were scheduled
(FIFO tie-breaking via a monotonically increasing sequence number).

Telemetry hooks (repro.obs) ride on two engine features that are inert
unless used:

* **daemon events** (``schedule(..., daemon=True)``) fire like normal
  events but do not keep the simulation alive: :meth:`run` stops once
  only daemon events remain, and the clock never advances past the last
  live event. The time-series sampler uses these for its cycle-window
  ticks, which is what keeps sampled runs bit-identical to unsampled
  ones.
* an optional **step hook** (:attr:`profile_hook`) that, when set, is
  handed each event's callable instead of the engine calling it
  directly — a popped callback, or the spin runner's ``step_spin`` for
  a spin event; the wall-clock profiler uses it to attribute host time
  by component.

A second heap, the **spin heap**, holds ``(time, seq, phase, spin)``
entries: the phases of BackOff-N ``ld_through`` probes, which are not
closures but steps of a spin record run by the record's ``runner``
(:mod:`repro.protocols.vips.spin`). Both heaps draw ``seq`` from one
counter and :meth:`run` always executes whichever head comes first by
``(time, seq)``, so the merged order is the order one heap would have
given.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Optional

#: "No limit" for the spin runner's time and event budgets.
NO_LIMIT = sys.maxsize


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class DeadlockError(SimulationError):
    """Raised when the event queue drains while threads are still blocked.

    When the machine built a structured post-mortem (see
    :mod:`repro.resilience.watchdog`), it is attached as ``diagnosis``.
    """

    def __init__(self, message: str, diagnosis: Optional[Any] = None) -> None:
        super().__init__(message)
        self.diagnosis = diagnosis


class LivenessError(SimulationError):
    """Raised when events keep firing but no thread makes forward progress
    (a livelock — e.g. spinning forever on a value nobody will write).

    Raised by the :class:`~repro.resilience.watchdog.LivenessWatchdog`
    *at the cycle the no-progress window closes*, with its structured
    ``diagnosis`` attached."""

    def __init__(self, message: str, diagnosis: Optional[Any] = None) -> None:
        super().__init__(message)
        self.diagnosis = diagnosis


class SimulationTimeout(SimulationError):
    """A run exceeded its event or cycle budget (watchdog deadline).

    Structured: carries which budget tripped (``reason`` is
    ``"max_events"`` or ``"max_cycles"``), the final ``cycle``, the
    number of ``events`` executed, and — when the machine filled it in —
    ``progress``, a per-core map of retired-op counts, so a timeout
    report can say *which* cores were still moving."""

    def __init__(self, message: str, reason: str = "max_events",
                 cycle: int = 0, events: int = 0,
                 progress: Optional[Dict[int, int]] = None) -> None:
        super().__init__(message)
        self.reason = reason
        self.cycle = cycle
        self.events = events
        self.progress: Dict[int, int] = progress or {}

    def __reduce__(self):  # keep the structure across process boundaries
        return (_rebuild_timeout, (self.args[0], self.reason, self.cycle,
                                   self.events, self.progress))


def _rebuild_timeout(message: str, reason: str, cycle: int, events: int,
                     progress: Dict[int, int]) -> "SimulationTimeout":
    return SimulationTimeout(message, reason=reason, cycle=cycle,
                             events=events, progress=progress)


def _callback_name(callback: Callable[[], None]) -> str:
    """A stable, process-independent label for a queued callback.

    Qualified names identify the code the event will run (e.g.
    ``Core.start.<locals>.<lambda>``) without depending on object ids,
    so two processes that replayed the same history produce the same
    label sequence.
    """
    qualname = getattr(callback, "__qualname__", None)
    if qualname is not None:
        return qualname
    func = getattr(callback, "func", None)  # functools.partial
    if func is not None:
        return f"partial:{_callback_name(func)}"
    return type(callback).__name__


class Engine:
    """A minimal deterministic discrete-event scheduler.

    Events are ``(time, seq, callback, daemon)`` tuples in a binary heap.
    ``seq`` breaks ties so that same-cycle events run in scheduling order,
    making runs bit-reproducible regardless of callback identity.
    """

    def __init__(self) -> None:
        self._queue: list = []
        #: The spin heap: ``(time, seq, phase, spin)``, always live. All
        #: entries share one runner, ``spin.runner``:
        #: ``run_spins(stop_time, stop_events, executed) -> executed``
        #: executes entries while the spin head comes first, its time is
        #: at most ``stop_time`` and fewer than ``stop_events`` events
        #: have run; ``step_spin()`` executes the spin head;
        #: ``spin_label(phase)`` names a phase for :meth:`ckpt_state`.
        self._spins: list = []
        self._seq = 0
        self.now = 0
        self._live = 0
        #: When set, :meth:`run` calls ``profile_hook(callback)`` instead
        #: of ``callback()`` — the hook must invoke the callback exactly
        #: once (see repro.obs.profiler).
        self.profile_hook: Optional[Callable[[Callable[[], None]], None]] = None

    def schedule(self, delay: int, callback: Callable[[], None],
                 daemon: bool = False) -> None:
        """Run ``callback`` ``delay`` cycles from the current time.

        ``delay`` must be non-negative; a zero delay runs the callback later
        in the same cycle (after already-queued same-cycle events).
        ``daemon`` events observe the simulation without keeping it alive.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        heappush(self._queue, (self.now + delay, self._seq, callback,
                               daemon))
        self._seq += 1
        if not daemon:
            self._live += 1

    def schedule_at(self, time: int, callback: Callable[[], None],
                    daemon: bool = False) -> None:
        """Run ``callback`` at absolute cycle ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        heappush(self._queue, (time, self._seq, callback, daemon))
        self._seq += 1
        if not daemon:
            self._live += 1

    def push_spin(self, delay: int, phase: int, spin: Any) -> None:
        """Queue phase ``phase`` of ``spin`` on the spin heap ``delay``
        cycles from now (a live event, run by ``spin.runner``)."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        heappush(self._spins, (self.now + delay, self._seq, phase, spin))
        self._seq += 1
        self._live += 1

    @property
    def pending(self) -> int:
        """Number of events still queued (daemon and spin events
        included)."""
        return len(self._queue) + len(self._spins)

    def next_time(self) -> Optional[int]:
        """Cycle of the earliest queued event (daemon or live), or None."""
        spins, queue = self._spins, self._queue
        if spins and (not queue or spins[0] < queue[0]):
            return spins[0][0]
        return queue[0][0] if queue else None

    def ckpt_state(self) -> Dict[str, Any]:
        """Deterministic view of the scheduler state for checkpoint
        fingerprints (see :mod:`repro.ckpt.state`).

        Only *live* events are listed: daemon observers (telemetry ticks,
        watchdog checks, audit timers) may or may not be attached on a
        restore, and the repo-wide contract is that they never change
        results. Events are listed in execution order — ``(time, seq)``
        — but the raw sequence numbers are omitted, because interleaved
        daemon scheduling shifts them without changing the order of the
        live events themselves.
        """
        live = [(time, seq, _callback_name(callback))
                for time, seq, callback, daemon in self._queue
                if not daemon]
        live += [(time, seq, spin.runner.spin_label(phase))
                 for time, seq, phase, spin in self._spins]
        live.sort()
        return {"now": self.now, "live_pending": self._live,
                "queue": [(time, name) for time, _seq, name in live]}

    @property
    def live_pending(self) -> int:
        """Number of non-daemon events still queued."""
        return self._live

    def drop_daemons(self) -> None:
        """Forget the daemon events queued past the end of a finished
        run: no live event is left to carry the clock to them. A queued
        sampler tick holds gauges that hold this engine, a reference
        cycle that only the collector would otherwise free."""
        if self._live:
            raise SimulationError("drop_daemons() with live events queued")
        self._queue.clear()

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None,
            max_cycles: Optional[int] = None) -> int:
        """Drain the event queue.

        Stops when no *live* (non-daemon) events remain or when the clock
        would pass ``until``. Two watchdog budgets abort runaway runs with
        a structured :class:`SimulationTimeout`:

        * ``max_events`` bounds the number of executed events (daemon
          events included) — a guard against livelocked spin loops;
        * ``max_cycles`` is a deadline on the *simulated clock*: the run
          aborts before executing any event past that cycle, so a hung
          workload fails at a predictable point in simulated time
          regardless of how many events per cycle it churns.

        Trailing daemon events — e.g. a sampler tick beyond the last real
        event — are left unexecuted so the clock ends at the last live
        event. Returns the number of events executed.

        While the spin head comes first, control passes to its runner,
        which stops where these checks would trip and leaves them to this
        loop (unless a :attr:`profile_hook` is set: then each spin event
        is one ``step_spin`` call handed to the hook).
        """
        executed = 0
        queue, spins = self._queue, self._spins
        stop_time = min(NO_LIMIT if until is None else until,
                        NO_LIMIT if max_cycles is None else max_cycles)
        stop_events = NO_LIMIT if max_events is None else max_events
        while self._live > 0:
            if spins and (not queue or spins[0] < queue[0]):
                head = spins[0][0]
                spin_head = True
            else:
                head = queue[0][0]
                spin_head = False
            if head > stop_time or executed >= stop_events:
                if until is not None and head > until:
                    break
                if max_cycles is not None and head > max_cycles:
                    raise SimulationTimeout(
                        f"watchdog: simulated clock would pass the "
                        f"{max_cycles}-cycle deadline at cycle "
                        f"{self.now} ({executed} events executed)",
                        reason="max_cycles", cycle=self.now,
                        events=executed,
                    )
                raise SimulationTimeout(
                    f"watchdog: exceeded {max_events} events at cycle "
                    f"{self.now}",
                    reason="max_events", cycle=self.now, events=executed,
                )
            hook = self.profile_hook
            if not spin_head:
                time, _seq, callback, daemon = heappop(queue)
                if time < self.now:
                    raise SimulationError(
                        "event heap corrupted: time moved backwards")
                self.now = time
                if not daemon:
                    self._live -= 1
                if hook is None:
                    callback()
                else:
                    hook(callback)
                executed += 1
            elif hook is None:
                executed = spins[0][3].runner.run_spins(
                    stop_time, stop_events, executed)
            else:
                hook(spins[0][3].runner.step_spin)
                executed += 1
        return executed
