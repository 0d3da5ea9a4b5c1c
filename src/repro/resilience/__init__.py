"""repro.resilience: deterministic fault injection and liveness.

The robustness layer of the reproduction. The paper's central safety
arguments — callback-directory entries may be evicted at any moment
(Section 2.3.1), wakeups may be arbitrarily delayed, spin timing is
never load-bearing — are exactly the kind of claims a timing simulator
can silently stop exercising. This package turns them into executable,
replayable experiments:

* :mod:`~repro.resilience.faults` — content-addressed
  :class:`FaultPlan` schedules with all randomness pre-drawn.
* :mod:`~repro.resilience.injector` — daemon-scheduled
  :class:`FaultInjector` applying a plan through dedicated hooks.
* :mod:`~repro.resilience.watchdog` — :class:`LivenessWatchdog` and
  structured deadlock/livelock :class:`Diagnosis` (Perfetto-exportable).
* :mod:`~repro.resilience.resilience` — the :class:`Resilience` facade
  attaching injector + watchdog + periodic invariant audits to a
  :class:`~repro.core.machine.Machine`.
* :mod:`~repro.resilience.campaign` — fault campaigns comparing faulted
  runs against fault-free fingerprints, plus ddmin plan minimization.
* :mod:`~repro.resilience.classify` — the failure taxonomy and exit
  codes shared with :mod:`repro.orchestrate`.

Everything is opt-in and inert by default: a machine without a
resilience layer (or with an empty one) is bit-identical to the plain
simulator.
"""

from repro.mem.store import functional_fingerprint
from repro.resilience.campaign import (CampaignResult, PlanOutcome,
                                       baseline_fingerprint, execute_plan,
                                       minimize_plan, run_campaign)
from repro.resilience.classify import (FAILURE_EXIT_CODES, classify_failure,
                                       exit_code_for)
from repro.resilience.faults import (Fault, FaultKind, FaultPlan,
                                     load_plan_by_key, make_fault_plan)
from repro.resilience.injector import FaultInjector
from repro.resilience.resilience import Resilience, ResilienceConfig
from repro.resilience.watchdog import Diagnosis, LivenessWatchdog, diagnose

__all__ = [
    "CampaignResult",
    "Diagnosis",
    "FAILURE_EXIT_CODES",
    "Fault",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "LivenessWatchdog",
    "PlanOutcome",
    "Resilience",
    "ResilienceConfig",
    "baseline_fingerprint",
    "classify_failure",
    "diagnose",
    "execute_plan",
    "exit_code_for",
    "functional_fingerprint",
    "load_plan_by_key",
    "make_fault_plan",
    "minimize_plan",
    "run_campaign",
]
