"""The machine: cores + protocol + NoC wired together, with a run loop.

:class:`Machine` is the public simulator facade. Construct it from a
:class:`~repro.config.SystemConfig`, hand it thread generator factories
(one per hardware thread), and :meth:`run` to completion. The result is
the populated :class:`~repro.sim.stats.Stats` plus the parallel-section
cycle count, mirroring the paper's methodology of collecting statistics
over the parallel section only.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Callable, Generator, List, Optional, Sequence

from repro.config import SystemConfig
from repro.core.core import Core
from repro.core.thread import ThreadContext
from repro.mem.layout import MemoryLayout
from repro.mem.store import WordStore
from repro.noc.network import Network
from repro.protocols import build_protocol
from repro.protocols.base import CoherenceProtocol
from repro.sim.engine import DeadlockError, Engine, SimulationTimeout
from repro.sim.stats import Stats

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.telemetry import Telemetry
    from repro.resilience.resilience import Resilience

#: A thread body: takes its context, returns an op generator.
ThreadBody = Callable[[ThreadContext], Generator]


class Machine:
    """A complete simulated CMP for one run.

    ``telemetry`` opts the run into the observability layer
    (:mod:`repro.obs`): the probe bus is handed to every component and
    the configured collectors (sampler, span recorder, profiler) start.
    Left ``None`` (the default), every probe site is a dormant ``is
    None`` check and results are bit-identical to an instrumented run.
    """

    def __init__(self, config: SystemConfig,
                 telemetry: Optional["Telemetry"] = None,
                 resilience: Optional["Resilience"] = None) -> None:
        self.config = config
        self.engine = Engine()
        self.stats = Stats()
        self.store = WordStore(config.word_bytes)
        self.network = Network(config, self.engine, self.stats)
        self.protocol: CoherenceProtocol = build_protocol(
            config, self.engine, self.network, self.stats, self.store
        )
        self.layout = MemoryLayout(config)
        # One Core driver per hardware thread (SMT siblings share their
        # physical core's L1 and tile inside the protocol). Cores report
        # completion through a weak reference: without a machine <-> core
        # cycle a finished machine is freed as soon as its last user
        # drops it, not at the next cyclic collection.
        core_done = weakref.WeakMethod(self._core_done)
        self._cores = [
            Core(i, config, self.engine, self.protocol, self.stats,
                 lambda core_id: core_done()(core_id))
            for i in range(config.num_threads)
        ]
        self._remaining = 0
        self._started = False
        #: Name of the installed workload (labels the run's results).
        self.workload_name = ""
        #: Cumulative engine events executed across run slices. A sliced
        #: run (``run(checkpoint_every=...)``) and a restored-and-resumed
        #: run both charge their slices against the same
        #: ``config.max_events`` budget through this counter.
        self.events_executed = 0
        #: The probe bus when telemetry is attached, else None.
        self.obs = None
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.attach(self)
        #: The resilience layer (fault injector / watchdog / auditors)
        #: when attached, else None. Attaching with an empty fault plan
        #: and no watchdog is bit-identical to not attaching at all.
        self.resilience = resilience
        if resilience is not None:
            resilience.attach(self)

    def _core_done(self, core_id: int) -> None:
        self._remaining -= 1

    def spawn(self, bodies: Sequence[ThreadBody]) -> None:
        """Install one thread per body on cores 0..len(bodies)-1."""
        if self._started:
            raise RuntimeError("machine already started")
        if len(bodies) > self.config.num_threads:
            raise ValueError(
                f"{len(bodies)} threads > {self.config.num_threads} "
                f"hardware threads"
            )
        self._started = True
        self._remaining = len(bodies)
        for tid, body in enumerate(bodies):
            ctx = ThreadContext(tid, self.config, self.engine, self.stats,
                                obs=self.obs)
            self._cores[tid].start(body(ctx))

    def progress(self) -> dict:
        """Retired-op counts per hardware thread (the watchdog's and the
        timeout report's forward-progress signal)."""
        return {core.core_id: core.ops_retired for core in self._cores}

    def ckpt_state(self) -> dict:
        """Canonical capture of the whole machine (checkpoint contract,
        :mod:`repro.ckpt.state`): engine clock + live event queue, word
        store, stats, NoC occupancy, the protocol's full state (L1s,
        directories, parked waiters), and per-core execution positions.

        Deliberately excludes :attr:`events_executed` and anything a
        daemon attachment (telemetry, watchdog, audits) could perturb, so
        the capture is invariant under observers — the repo-wide
        "observers never change results" contract, now checkable."""
        return {
            "engine": self.engine.ckpt_state(),
            "store": self.store.ckpt_state(),
            "stats": self.stats.ckpt_state(),
            "network": self.network.ckpt_state(),
            "protocol": self.protocol.ckpt_state(),
            "cores": [core.ckpt_state() for core in self._cores],
            "remaining": self._remaining,
        }

    def _run_engine(self, until: Optional[int] = None) -> int:
        """Run one engine slice, charging the cumulative event budget.

        ``config.max_events`` bounds the *total* events across every
        slice of this machine's life (including re-execution after a
        restore), so a sliced run times out at exactly the same point as
        an unsliced one. A raised :class:`SimulationTimeout` reports
        cumulative events and current per-core progress."""
        budget = None
        if self.config.max_events is not None:
            budget = max(0, self.config.max_events - self.events_executed)
        try:
            executed = self.engine.run(until=until, max_events=budget,
                                       max_cycles=self.config.max_cycles)
        except SimulationTimeout as timeout:
            timeout.events += self.events_executed
            timeout.progress = self.progress()
            raise
        self.events_executed += executed
        return executed

    def fast_forward(self, cycle: int) -> int:
        """Deterministically re-execute history up to (excluding) cycle
        ``cycle`` — the restore path of a re-execution checkpoint: the
        machine's state afterwards is exactly the state a checkpoint
        taken at boundary ``cycle`` captured. Returns events executed."""
        return self._run_engine(until=cycle - 1)

    def run(self, checkpoint_every: int = 0,
            on_checkpoint: Optional[Callable[[int], None]] = None) -> Stats:
        """Run to completion; raises :class:`DeadlockError` if threads
        block forever (e.g. a lost wakeup), with a structured diagnosis
        attached (per-core state, waiter tables, pending events).

        With ``checkpoint_every=N`` the run executes in slices, stopping
        at every crossed multiple of ``N`` cycles and invoking
        ``on_checkpoint(boundary)`` with all events before ``boundary``
        executed and none at-or-after it — the cycle-boundary state a
        checkpoint captures, with the clock at ``boundary - 1``. Slicing
        never changes results: the engine pops the same events in the
        same order either way."""
        if not self._started:
            raise RuntimeError("spawn threads before running")
        if checkpoint_every:
            while self.engine.live_pending > 0:
                # Jump to the first boundary past both the clock and the
                # next live event: dead time (a far-future wakeup) and
                # daemons (observers) never add boundaries.
                head = max(self.engine.now, self.engine.next_time())
                boundary = (head // checkpoint_every + 1) * checkpoint_every
                self._run_engine(until=boundary - 1)
                if self.engine.live_pending > 0 and on_checkpoint is not None:
                    on_checkpoint(boundary)
        else:
            self._run_engine()
        if self._remaining:
            from repro.resilience.watchdog import diagnose
            blocked = [c.core_id for c in self._cores
                       if not c.done and c.start_cycle is not None]
            diagnosis = diagnose(self, kind="deadlock")
            raise DeadlockError(
                f"{self._remaining} thread(s) never finished; blocked cores: "
                f"{blocked} at cycle {self.engine.now}\n{diagnosis.brief()}",
                diagnosis=diagnosis,
            )
        self.stats.cycles = self.engine.now
        self.engine.drop_daemons()
        if self.telemetry is not None:
            self.telemetry.finish()
        return self.stats


def run_threads(config: SystemConfig, bodies: Sequence[ThreadBody],
                telemetry: Optional["Telemetry"] = None,
                resilience: Optional["Resilience"] = None) -> Stats:
    """Convenience: build a machine, spawn ``bodies``, run, return stats."""
    machine = Machine(config, telemetry=telemetry, resilience=resilience)
    machine.spawn(bodies)
    return machine.run()
