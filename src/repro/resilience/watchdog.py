"""Liveness watchdog: no-forward-progress detection with a post-mortem.

The paper's synchronization encodings are exactly where lost-wakeup bugs
hide (write_CB0/write_CB1 racing parked readers, Section 2.4): the
failure mode is not a crash but a machine that silently stops making
progress. Two shapes exist and the watchdog distinguishes them:

* **Deadlock** — every blocked thread is parked with *no* pending wakeup:
  the event queue drains and the engine stops. Detected post-run by
  :meth:`~repro.core.machine.Machine.run`, which attaches a
  :class:`Diagnosis` built here to its :class:`DeadlockError`.
* **Livelock** — events keep firing (spin probes, back-off timers) but no
  thread does *useful* work. Detected mid-run by
  :class:`LivenessWatchdog`, a periodic engine *daemon* (it observes the
  run without keeping it alive or perturbing results) that tracks
  per-core useful-op retirement and raises
  :class:`~repro.sim.engine.LivenessError` when a window passes with no
  change and no core computing (a long ``Compute`` retires nothing until
  it ends, but it is progress).

"Useful" retirement excludes spin-class ops (``ld_through``/``ld_cb``
re-reads, back-off waits, fences, MESI spin watches): a spinning core
retires ops at full tilt while going nowhere, so raw retired-op counts
cannot tell a livelock from a healthy run.

The diagnosis is structured — per-core state, callback-directory waiter
tables, event-horizon counts — JSON-able for the failure manifest, and
exportable as a Perfetto-loadable trace through the :mod:`repro.obs`
span machinery (each parked waiter becomes a span from its park cycle to
the diagnosis cycle on its core's track).
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.obs.spans import Instant, Span
from repro.sim.engine import LivenessError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Machine


@dataclass
class Diagnosis:
    """Structured post-mortem of a stuck (or timed-out) simulation."""

    kind: str                     # deadlock | livelock | timeout
    cycle: int
    #: Per-core state rows: core, done, ops_retired, useful_ops,
    #: start_cycle, finish_cycle.
    cores: List[Dict[str, Any]] = field(default_factory=list)
    #: Parked callback waiters: bank, word, core, since (park cycle).
    waiters: List[Dict[str, Any]] = field(default_factory=list)
    pending_events: int = 0
    live_events: int = 0
    parked: int = 0
    #: Free-form context (e.g. the stall window for livelocks).
    detail: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------- queries

    def blocked_cores(self) -> List[int]:
        """Cores whose thread started but never finished."""
        return [row["core"] for row in self.cores
                if not row["done"] and row["start_cycle"] is not None]

    def parked_waiter_cores(self) -> List[int]:
        """Cores named in the callback-directory waiter tables — for a
        lost-wakeup deadlock, the threads nobody will ever wake."""
        return sorted({row["core"] for row in self.waiters})

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "cycle": self.cycle, "cores": self.cores,
                "waiters": self.waiters,
                "pending_events": self.pending_events,
                "live_events": self.live_events, "parked": self.parked,
                "detail": self.detail}

    def brief(self) -> str:
        """A compact human summary (embedded in exception messages)."""
        lines = [f"[{self.kind} diagnosis at cycle {self.cycle}] "
                 f"{len(self.blocked_cores())} blocked core(s), "
                 f"{self.parked} parked waiter(s), "
                 f"{self.live_events} live / {self.pending_events} pending "
                 f"event(s)"]
        for row in self.waiters[:8]:
            lines.append(
                f"  core {row['core']} parked on word {row['word']:#x} "
                f"(bank {row['bank']}) since cycle {row['since']}")
        if len(self.waiters) > 8:
            lines.append(f"  ... and {len(self.waiters) - 8} more")
        return "\n".join(lines)

    # -------------------------------------------------------------- export

    def to_trace(self, label: str = "diagnosis") -> Dict[str, Any]:
        """The diagnosis as a Perfetto-loadable Chrome trace document:
        parked waiters become spans (park cycle -> diagnosis cycle) on
        their core's track, blocked cores get a marker instant, and the
        verdict is an instant on the ``watchdog/0`` track."""
        spans = [
            Span(name=f"parked {row['word']:#x}", cat="watchdog",
                 track=f"core/{row['core']}", start=row["since"],
                 end=self.cycle, args={"bank": row["bank"],
                                       "word": hex(row["word"])})
            for row in self.waiters
        ]
        instants = [
            Instant(name=self.kind, cat="watchdog", track="watchdog/0",
                    ts=self.cycle,
                    args={"blocked": self.blocked_cores(),
                          "parked": self.parked,
                          "live_events": self.live_events})
        ]
        for row in self.cores:
            if not row["done"] and row["start_cycle"] is not None:
                instants.append(Instant(
                    name="blocked", cat="watchdog",
                    track=f"core/{row['core']}", ts=self.cycle,
                    args={"ops_retired": row["ops_retired"],
                          "useful_ops": row["useful_ops"]}))
        return chrome_trace(spans=spans, instants=instants,
                            label=f"{label}:{self.kind}")

    def write_trace(self, path: str, label: str = "diagnosis"
                    ) -> Dict[str, Any]:
        doc = self.to_trace(label)
        problems = validate_chrome_trace(doc)
        if problems:  # pragma: no cover - defensive
            raise ValueError(f"invalid diagnosis trace: {problems[:3]}")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        return doc


def diagnose(machine: "Machine", kind: str,
             detail: Optional[Dict[str, Any]] = None) -> Diagnosis:
    """Build a :class:`Diagnosis` of ``machine``'s current state."""
    cores = [
        {"core": core.core_id, "done": core.done,
         "ops_retired": core.ops_retired,
         "useful_ops": getattr(core, "useful_ops", core.ops_retired),
         "start_cycle": core.start_cycle, "finish_cycle": core.finish_cycle}
        for core in machine._cores
    ]
    waiters: List[Dict[str, Any]] = []
    for directory in getattr(machine.protocol, "cb_dirs", ()):
        for word in directory.resident_words():
            entry = directory.lookup(word)
            for core, waiter in sorted(entry.waiters.items()):
                waiters.append({"bank": directory.bank, "word": word,
                                "core": core, "since": waiter.since})
    return Diagnosis(
        kind=kind,
        cycle=machine.engine.now,
        cores=cores,
        waiters=waiters,
        pending_events=machine.engine.pending,
        live_events=machine.engine.live_pending,
        parked=machine.protocol.parked_cores(),
        detail=dict(detail or {}),
    )


class LivenessWatchdog:
    """Periodic daemon that aborts livelocked runs with a diagnosis.

    Every ``check_every`` cycles it snapshots per-core (done, useful-op)
    vectors; if ``stall_cycles`` pass with no change while threads remain
    unfinished and none of them is inside a ``Compute``, it raises
    :class:`~repro.sim.engine.LivenessError` at that cycle with a ``livelock`` :class:`Diagnosis` attached. The tick
    is a daemon event: it cannot keep the simulation alive, move the
    final clock, or change any result of a healthy run.
    """

    def __init__(self, stall_cycles: int = 50_000,
                 check_every: int = 0) -> None:
        if stall_cycles < 1:
            raise ValueError("stall_cycles must be >= 1")
        self.stall_cycles = stall_cycles
        self.check_every = check_every or max(1, stall_cycles // 4)
        # The attached machine, held weakly: the machine owns its
        # resilience layer, so a strong reference would be a cycle.
        self._machine: Optional["weakref.ref[Machine]"] = None
        self.checks = 0
        self.last_diagnosis: Optional[Diagnosis] = None
        self._last_vector: Optional[tuple] = None
        self._stalled_since: Optional[int] = None

    @property
    def machine(self) -> Optional["Machine"]:
        return self._machine() if self._machine is not None else None

    def attach(self, machine: "Machine") -> None:
        if self._machine is not None:
            raise RuntimeError("watchdog already attached to a machine")
        self._machine = weakref.ref(machine)
        machine.engine.schedule(self.check_every, self._tick,
                                "watchdog.check", daemon=True)

    def _tick(self) -> None:
        engine = self.machine.engine
        self._check(engine.now)
        engine.schedule(self.check_every, self._tick, "watchdog.check",
                        daemon=True)

    def _vector(self) -> tuple:
        return tuple((core.done, core.useful_ops)
                     for core in self.machine._cores)

    def _check(self, cycle: int) -> None:
        self.checks += 1
        machine = self.machine
        if machine._remaining == 0:
            return
        vector = self._vector()
        # A core inside a Compute retires no op until it ends, however
        # long it runs, yet it is making progress.
        if vector != self._last_vector or any(
                not core.done and core.computing_until >= cycle
                for core in machine._cores):
            self._last_vector = vector
            self._stalled_since = None
            return
        if self._stalled_since is None:
            self._stalled_since = cycle
            return
        stalled_for = cycle - self._stalled_since
        if stalled_for < self.stall_cycles:
            return
        diagnosis = diagnose(machine, kind="livelock",
                             detail={"stalled_since": self._stalled_since,
                                     "stalled_for": stalled_for,
                                     "stall_cycles": self.stall_cycles})
        self.last_diagnosis = diagnosis
        if machine.obs is not None:
            machine.obs.emit("watchdog.livelock", cycle=cycle,
                             stalled_for=stalled_for,
                             blocked=diagnosis.blocked_cores())
        raise LivenessError(
            f"liveness watchdog: no useful forward progress for "
            f"{stalled_for} cycles (threshold {self.stall_cycles}) at "
            f"cycle {cycle}\n{diagnosis.brief()}",
            diagnosis=diagnosis,
        )
