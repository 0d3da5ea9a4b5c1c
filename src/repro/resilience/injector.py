"""The fault injector: executes a :class:`FaultPlan` against a machine.

The injector is an engine *daemon* in the same sense as the telemetry
collectors: every one of its events is scheduled with ``daemon=True``, so
it can never keep the simulation alive or move the final clock, and every
mutation it performs goes through a protocol- or NoC-level fault hook
that exists for exactly this purpose. Two invariants follow:

* **An empty plan is inert.** With no faults of a given family, the
  corresponding hook (``network.fault_hook``, ``core.fault_hook``) is
  never installed and no daemon event is scheduled — an attached injector
  with an empty plan is bit-identical to no injector at all.
* **A plan replays exactly.** All randomness was pre-drawn into the plan
  (:mod:`repro.resilience.faults`); the injector maps selector integers
  onto runtime state (which bank, which resident word, which clean line)
  with modular arithmetic, and the simulation underneath is
  deterministic, so the same plan on the same run always lands the same
  faults on the same state.

Instantaneous faults (``cb_evict``, ``l1_drop``) fire as one daemon event
at their cycle. Windowed faults (``wakeup_delay``, ``wakeup_dup``,
``backoff_perturb``) install a hook at attach time and consult the set of
open windows at each hook call; window state is advanced lazily from the
engine clock, so no per-window events are needed at all.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.noc.messages import MsgKind
from repro.resilience.faults import Fault, FaultKind, FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Machine


class FaultInjector:
    """Schedules and applies one :class:`FaultPlan` on one machine."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        # The attached machine, held weakly: the machine owns its
        # resilience layer, so a strong reference would be a cycle.
        self._machine: Optional["weakref.ref[Machine]"] = None
        #: One record per fault after it fires: the fault's dict plus
        #: ``applied`` and a human ``detail`` of what it hit.
        self.injected: List[Dict[str, Any]] = []
        self._delay_windows: List[Fault] = []
        self._dup_windows: List[Fault] = []
        self._perturb_windows: List[Fault] = []

    # -------------------------------------------------------------- attach

    @property
    def machine(self) -> Optional["Machine"]:
        return self._machine() if self._machine is not None else None

    def attach(self, machine: "Machine") -> None:
        if self._machine is not None:
            raise RuntimeError("injector already attached to a machine")
        self._machine = weakref.ref(machine)
        engine = machine.engine
        kinds = {fault.kind for fault in self.plan.faults}

        for fault in self.plan.faults:
            if fault.kind is FaultKind.CB_EVICT:
                engine.schedule(fault.cycle, self._evict_thunk(fault),
                                "fault.cb_evict", daemon=True)
            elif fault.kind is FaultKind.L1_DROP:
                engine.schedule(fault.cycle, self._drop_thunk(fault),
                                "fault.l1_drop", daemon=True)
            elif fault.kind is FaultKind.WAKEUP_DELAY:
                self._delay_windows.append(fault)
            elif fault.kind is FaultKind.WAKEUP_DUP:
                self._dup_windows.append(fault)
            elif fault.kind is FaultKind.BACKOFF_PERTURB:
                self._perturb_windows.append(fault)

        # Hooks are installed only when the plan actually needs them, so
        # an empty (or irrelevant) plan leaves the machine untouched.
        if kinds & {FaultKind.WAKEUP_DELAY, FaultKind.WAKEUP_DUP}:
            machine.network.fault_hook = self._noc_hook
        if FaultKind.BACKOFF_PERTURB in kinds:
            for core in machine._cores:
                core.fault_hook = self._backoff_hook

    # -------------------------------------------------- instantaneous kinds

    def _record(self, fault: Fault, applied: bool, detail: str) -> None:
        self.injected.append({**fault.to_dict(), "applied": applied,
                              "detail": detail})
        if applied:
            self.machine.stats.faults_injected += 1
        if self.machine.obs is not None:
            self.machine.obs.emit("fault.inject", kind=fault.kind.value,
                                  cycle=self.machine.engine.now,
                                  applied=applied, detail=detail)

    def _evict_thunk(self, fault: Fault):
        def fire() -> None:
            protocol = self.machine.protocol
            cb_dirs = getattr(protocol, "cb_dirs", None)
            if cb_dirs is None:
                self._record(fault, False, "no callback directory")
                return
            candidates = [d for d in cb_dirs if d.occupancy() > 0]
            if not candidates:
                self._record(fault, False, "no resident entries")
                return
            directory = candidates[fault.selector % len(candidates)]
            words = directory.resident_words()
            word = words[(fault.selector // 7919) % len(words)]
            woken = protocol.force_cb_eviction(directory.bank, word)
            self._record(fault, True,
                         f"evicted word {word:#x} from bank "
                         f"{directory.bank}, woke {woken} waiter(s)")
        return fire

    def _drop_thunk(self, fault: Fault):
        def fire() -> None:
            protocol = self.machine.protocol
            if not hasattr(protocol, "drop_clean_line"):
                self._record(fault, False, "protocol has no L1 drop hook")
                return
            num_cores = len(self.machine._cores)
            core = fault.selector % num_cores
            line = protocol.drop_clean_line(core,
                                            fault.selector // num_cores)
            if line is None:
                self._record(fault, False, f"core {core} holds no clean line")
            else:
                self._record(fault, True,
                             f"dropped clean line {line:#x} from core "
                             f"{core}'s L1")
        return fire

    # ------------------------------------------------------- windowed kinds

    def _open(self, windows: List[Fault], now: int) -> List[Fault]:
        return [f for f in windows if f.cycle <= now < f.cycle + f.duration]

    def _noc_hook(self, src: int, dst: int, kind: MsgKind,
                  latency: int) -> Tuple[int, int]:
        if kind is not MsgKind.WAKEUP:
            return 0, 0
        now = self.machine.engine.now
        extra = sum(f.magnitude for f in self._open(self._delay_windows, now))
        duplicates = sum(f.magnitude
                         for f in self._open(self._dup_windows, now))
        if extra:
            self.machine.stats.msgs_delayed += 1
            self.machine.stats.faults_injected += 1
        if duplicates:
            self.machine.stats.faults_injected += 1
        return extra, duplicates

    def _backoff_hook(self, core_id: int, attempt: int, delay: int) -> int:
        now = self.machine.engine.now
        jitter = sum(f.magnitude
                     for f in self._open(self._perturb_windows, now))
        if jitter == 0:
            return delay
        self.machine.stats.backoff_perturbations += 1
        self.machine.stats.faults_injected += 1
        # Back-off must stay positive; a negative jitter can shorten the
        # pause but never cancel it.
        return max(1, delay + jitter)

    # -------------------------------------------------------------- report

    def summary(self) -> Dict[str, Any]:
        applied = sum(1 for record in self.injected if record["applied"])
        return {"plan_key": self.plan.plan_key(),
                "faults_planned": len(self.plan),
                "events_fired": len(self.injected),
                "events_applied": applied,
                "injected": list(self.injected)}
