"""The resilience facade: injector + watchdog + continuous auditing.

:class:`Resilience` is to robustness what
:class:`~repro.obs.telemetry.Telemetry` is to observability: a single
opt-in object handed to :class:`~repro.core.machine.Machine` (or
``run_workload(..., resilience=...)``) that attaches the configured
components to the run. Everything it attaches is daemon-scheduled and
hook-mediated, so an "empty" resilience layer (no faults, no watchdog,
no auditing) is bit-identical to running without one — the same contract
the telemetry layer keeps, and the property the regression tests pin
down for all four protocol configurations.

Components, each independently optional:

* **Fault injection** — a :class:`~repro.resilience.faults.FaultPlan`
  executed by a :class:`~repro.resilience.injector.FaultInjector`.
* **Liveness watchdog** — a
  :class:`~repro.resilience.watchdog.LivenessWatchdog` aborting
  no-useful-progress runs with a structured livelock diagnosis.
* **Continuous invariant auditing** — the
  :mod:`repro.validation.checker` auditors, normally run only at the end
  of validation tests, re-run as a periodic daemon every ``audit_every``
  cycles so a corrupted coherence/directory state is caught within one
  audit period of the fault that caused it, not at the end of the run.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.resilience.faults import FaultPlan
from repro.resilience.injector import FaultInjector
from repro.resilience.watchdog import LivenessWatchdog

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Machine


@dataclass
class ResilienceConfig:
    """What to attach. Defaults attach nothing (inert)."""

    #: Fault schedule to execute; ``None`` or an empty plan injects
    #: nothing (and installs no hooks).
    plan: Optional[FaultPlan] = None
    #: Audit protocol invariants every N cycles (0 = off).
    audit_every: int = 0
    #: Abort after this many cycles without useful progress (0 = no
    #: watchdog).
    watchdog_stall: int = 0
    #: Watchdog check period (0 = derived from ``watchdog_stall``).
    watchdog_check_every: int = 0

    def __post_init__(self) -> None:
        if self.audit_every < 0:
            raise ValueError("audit_every must be >= 0")
        if self.watchdog_stall < 0:
            raise ValueError("watchdog_stall must be >= 0")


class Resilience:
    """Facade wiring the configured resilience components onto a machine."""

    def __init__(self, config: Optional[ResilienceConfig] = None,
                 **kwargs: Any) -> None:
        if config is None:
            config = ResilienceConfig(**kwargs)
        elif kwargs:
            raise TypeError("pass a ResilienceConfig or kwargs, not both")
        self.config = config
        # The attached machine, held weakly: the machine owns this
        # layer, so a strong reference would be a cycle.
        self._machine: Optional["weakref.ref[Machine]"] = None
        self.injector: Optional[FaultInjector] = None
        self.watchdog: Optional[LivenessWatchdog] = None
        self.audits_run = 0
        self.audit_checks: List[str] = []

    @property
    def machine(self) -> Optional["Machine"]:
        return self._machine() if self._machine is not None else None

    def attach(self, machine: "Machine") -> None:
        """Called by :class:`~repro.core.machine.Machine.__init__`."""
        if self._machine is not None:
            raise RuntimeError("resilience layer already attached")
        self._machine = weakref.ref(machine)
        if self.config.plan is not None and len(self.config.plan):
            self.injector = FaultInjector(self.config.plan)
            self.injector.attach(machine)
        if self.config.watchdog_stall:
            self.watchdog = LivenessWatchdog(
                stall_cycles=self.config.watchdog_stall,
                check_every=self.config.watchdog_check_every)
            self.watchdog.attach(machine)
        if self.config.audit_every:
            machine.engine.schedule(self.config.audit_every, self._audit,
                                    "audit", daemon=True)

    def _audit(self) -> None:
        """One periodic audit (a daemon tick that re-arms itself)."""
        from repro.validation.checker import InvariantViolation, audit_machine
        machine = self.machine
        engine = machine.engine
        self.audits_run += 1
        try:
            self.audit_checks = audit_machine(machine)
        except InvariantViolation as exc:
            raise InvariantViolation(
                f"periodic audit at cycle {engine.now}: {exc}") from exc
        if machine.obs is not None:
            machine.obs.emit("audit.pass", cycle=engine.now,
                             checks=len(self.audit_checks))
        engine.schedule(self.config.audit_every, self._audit, "audit",
                        daemon=True)

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"audits_run": self.audits_run,
                               "audit_checks": list(self.audit_checks)}
        if self.injector is not None:
            out["injection"] = self.injector.summary()
        if self.watchdog is not None:
            out["watchdog_checks"] = self.watchdog.checks
        return out
