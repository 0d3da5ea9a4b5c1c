"""Fault campaigns: run fault plans, compare against fault-free baselines.

A campaign is the end-to-end check of the paper's robustness claims: for
every (configuration, seed) point it first runs the simulation fault-free
and fingerprints the final memory state, then runs one or more
:class:`~repro.resilience.faults.FaultPlan`\\ s against the same point and
demands that each faulted run *completes* with the *same functional
fingerprint*. Forced callback-directory evictions, delayed or duplicated
wakeups, and back-off jitter are all allowed to change timing and traffic
(they add latency and messages by construction) — what they must never
change is what the program computed. The fingerprint is a SHA-256 over
the word store's final non-zero contents
(:meth:`~repro.mem.store.WordStore.snapshot`), i.e. every lock word,
barrier counter, and shared datum at the end of the run.

Outcomes use the shared failure taxonomy
(:mod:`repro.resilience.classify`) plus ``mismatch`` for runs that
finished with a diverged fingerprint. Failing plans are saved
content-addressed so ``repro-resilience replay <hash>`` reproduces them
exactly, and :func:`minimize_plan` shrinks a failing schedule to a
locally minimal subset with a ddmin-style search.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.config import config_for
from repro.core.machine import Machine
from repro.ioutil import atomic_write_json
from repro.mem.store import WordStore
from repro.resilience.classify import classify_failure
from repro.resilience.faults import FaultKind, FaultPlan, make_fault_plan
from repro.resilience.resilience import Resilience, ResilienceConfig

#: Default watchdog stall window for campaign runs: generous enough that
#: no legitimate run trips it, tight enough that a provoked livelock is
#: caught long before the event budget.
DEFAULT_WATCHDOG_STALL = 200_000


def functional_fingerprint(store: WordStore) -> str:
    """SHA-256 over the store's final non-zero word values."""
    snapshot = store.snapshot()
    blob = json.dumps(sorted(snapshot.items()),
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class PlanOutcome:
    """Result of executing one fault plan (or a fault-free baseline)."""

    plan_key: str
    describe: str
    #: ok | mismatch | invariant | liveness | timeout | error
    status: str
    error: str = ""
    cycles: int = 0
    fingerprint: str = ""
    baseline_fingerprint: str = ""
    faults_applied: int = 0
    injection: Dict[str, Any] = field(default_factory=dict)
    #: Watchdog/deadlock post-mortem when the run got stuck (else None).
    diagnosis: Optional[Any] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_dict(self) -> Dict[str, Any]:
        out = {"plan_key": self.plan_key, "describe": self.describe,
               "status": self.status, "error": self.error,
               "cycles": self.cycles, "fingerprint": self.fingerprint,
               "baseline_fingerprint": self.baseline_fingerprint,
               "faults_applied": self.faults_applied,
               "injection": self.injection}
        if self.diagnosis is not None:
            out["diagnosis"] = self.diagnosis.as_dict()
        return out


def baseline_fingerprint(plan: FaultPlan) -> str:
    """Fingerprint of the plan's run executed fault-free."""
    outcome = execute_plan(plan.subset([]), baseline="")
    if not outcome.ok:
        raise RuntimeError(
            f"fault-free baseline failed ({outcome.status}): "
            f"{outcome.error}")
    return outcome.fingerprint


def execute_plan(plan: FaultPlan, baseline: Optional[str] = None,
                 watchdog_stall: int = DEFAULT_WATCHDOG_STALL,
                 audit_every: int = 0) -> PlanOutcome:
    """Run ``plan``'s simulation with its faults injected.

    ``baseline`` is the fault-free fingerprint to compare against; pass
    ``None`` to compute it here first (one extra fault-free run), or
    ``""`` to skip the comparison.
    """
    # Lazy: the registry lives in repro.orchestrate, whose package
    # import reaches back into repro.harness.runner (which imports this
    # package) — importing it at call time breaks the cycle.
    from repro.orchestrate.registry import build_workload
    if baseline is None:
        baseline = baseline_fingerprint(plan)
    config = config_for(plan.config_label, seed=plan.seed,
                        **plan.config_overrides)
    workload = build_workload(plan.workload, plan.workload_params)
    resilience = Resilience(ResilienceConfig(
        plan=plan, watchdog_stall=watchdog_stall, audit_every=audit_every))
    machine = Machine(config, resilience=resilience)
    workload.install(machine)
    outcome = PlanOutcome(plan_key=plan.plan_key(),
                          describe=plan.describe(), status="ok",
                          baseline_fingerprint=baseline or "")
    try:
        stats = machine.run()
    except Exception as exc:  # noqa: BLE001 — campaign isolation
        outcome.status = classify_failure(exc)
        outcome.error = str(exc)
        outcome.cycles = machine.engine.now
        outcome.diagnosis = getattr(exc, "diagnosis", None)
    else:
        outcome.cycles = stats.cycles
        outcome.fingerprint = functional_fingerprint(machine.store)
        if baseline and outcome.fingerprint != baseline:
            outcome.status = "mismatch"
            outcome.error = ("final memory diverged from the fault-free "
                            "baseline")
    if resilience.injector is not None:
        outcome.injection = resilience.injector.summary()
        outcome.faults_applied = outcome.injection["events_applied"]
    return outcome


@dataclass
class CampaignResult:
    """All outcomes of one fault campaign plus its failure manifest."""

    outcomes: List[PlanOutcome]
    plans_dir: str = ""

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def failed(self) -> List[PlanOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def manifest(self) -> Dict[str, Any]:
        by_status: Dict[str, int] = {}
        for outcome in self.outcomes:
            by_status[outcome.status] = by_status.get(outcome.status, 0) + 1
        return {"total": len(self.outcomes), "by_status": by_status,
                "plans_dir": self.plans_dir,
                "failures": [outcome.as_dict() for outcome in self.failed]}

    def summary(self) -> str:
        counts = self.manifest()["by_status"]
        what = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        return f"{len(self.outcomes)} plan(s): {what}"


def run_campaign(config_labels: Sequence[str], workload: str,
                 workload_params: Optional[Dict[str, Any]] = None,
                 config_overrides: Optional[Dict[str, Any]] = None,
                 seeds: Sequence[int] = (1,),
                 kinds: Sequence[FaultKind] = (FaultKind.CB_EVICT,),
                 fault_seeds: Sequence[int] = (0,),
                 count: int = 8, horizon: int = 20_000,
                 watchdog_stall: int = DEFAULT_WATCHDOG_STALL,
                 audit_every: int = 0,
                 out_dir: Optional[str] = None) -> CampaignResult:
    """Run a grid of fault plans and validate functional identity.

    For every (config_label, seed) point: one fault-free baseline run,
    then one faulted run per ``fault_seed`` with ``count`` faults drawn
    from ``kinds``. With ``out_dir`` set, every *failing* plan is saved
    under ``out_dir/plans/<plan_key>.json``, stuck-run diagnoses become
    Perfetto traces under ``out_dir/diagnoses/``, and the manifest is
    written to ``out_dir/manifest.json``.
    """
    plans_dir = os.path.join(out_dir, "plans") if out_dir else ""
    diagnoses_dir = os.path.join(out_dir, "diagnoses") if out_dir else ""
    outcomes: List[PlanOutcome] = []
    for label in config_labels:
        for seed in seeds:
            probe = make_fault_plan(label, workload, workload_params,
                                    config_overrides, seed=seed,
                                    kinds=kinds, count=0)
            base = baseline_fingerprint(probe)
            for fault_seed in fault_seeds:
                plan = make_fault_plan(label, workload, workload_params,
                                       config_overrides, seed=seed,
                                       fault_seed=fault_seed, kinds=kinds,
                                       count=count, horizon=horizon)
                outcome = execute_plan(plan, baseline=base,
                                       watchdog_stall=watchdog_stall,
                                       audit_every=audit_every)
                outcomes.append(outcome)
                if not outcome.ok and out_dir:
                    plan.save_in(plans_dir)
                    if outcome.diagnosis is not None:
                        os.makedirs(diagnoses_dir, exist_ok=True)
                        outcome.diagnosis.write_trace(os.path.join(
                            diagnoses_dir,
                            f"{plan.plan_key()[:16]}.trace.json"))
    result = CampaignResult(outcomes=outcomes, plans_dir=plans_dir)
    if out_dir:
        atomic_write_json(os.path.join(out_dir, "manifest.json"),
                          result.manifest(), indent=2)
    return result


def minimize_plan(plan: FaultPlan,
                  watchdog_stall: int = DEFAULT_WATCHDOG_STALL,
                  audit_every: int = 0) -> FaultPlan:
    """Shrink a failing plan to a locally minimal failing subset (ddmin).

    The failure is whatever ``execute_plan`` reports for the full plan
    (against a freshly computed fault-free baseline); subsets must
    reproduce the same status to count. Returns ``plan`` unchanged if it
    does not fail at all.
    """
    base = baseline_fingerprint(plan)

    def status_of(faults: Sequence[Any]) -> str:
        return execute_plan(plan.subset(faults), baseline=base,
                            watchdog_stall=watchdog_stall,
                            audit_every=audit_every).status

    target = status_of(plan.faults)
    if target == "ok":
        return plan

    faults = list(plan.faults)
    chunks = 2
    while len(faults) >= 2:
        size = max(1, len(faults) // chunks)
        pieces = [faults[i:i + size] for i in range(0, len(faults), size)]
        reduced = False
        for index in range(len(pieces)):
            complement = [f for j, piece in enumerate(pieces)
                          for f in piece if j != index]
            if complement and status_of(complement) == target:
                faults = complement
                chunks = max(2, chunks - 1)
                reduced = True
                break
        if not reduced:
            if chunks >= len(faults):
                break
            chunks = min(len(faults), chunks * 2)
    return plan.subset(faults)
