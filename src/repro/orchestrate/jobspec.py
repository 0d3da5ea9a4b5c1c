"""First-class experiment jobs.

A :class:`JobSpec` names one simulation declaratively — a paper
configuration label, a dict of :class:`~repro.config.SystemConfig`
overrides, a registered workload spec (name + params, see
:mod:`repro.orchestrate.registry`), and a seed. It is how the harness
names every run, and it is:

* **picklable** — it crosses process boundaries, so a batch can be
  executed by a :class:`~concurrent.futures.ProcessPoolExecutor`;
* **content-addressed** — :meth:`job_key` is a stable SHA-256 over the
  canonical JSON form, so the on-disk cache can answer "has this exact
  simulation already run?" across interpreter sessions.

Everything in a JobSpec must therefore be plain JSON-able data; the
workload is referred to by registry name, never by closure.

:func:`build_machine` is the one path from a spec to a machine: batch
jobs, serve workers, fault plans, checkpoint restores, the in-process
harness runs (:func:`repro.harness.runner.run_spec`) and the
single-run CLIs all build through it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional

from repro.config import config_for
from repro.core.machine import Machine

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.telemetry import Telemetry
    from repro.resilience.faults import FaultPlan
    from repro.resilience.resilience import Resilience


def _canonical(value: Any) -> Any:
    """Normalize override/param values into canonical JSON-able data."""
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    # Enums and other rich objects: fall back to their repr-stable value.
    inner = getattr(value, "value", None)
    if isinstance(inner, (int, float, str)):
        return inner
    return str(value)


@dataclass
class JobSpec:
    """One (configuration, workload, seed) simulation, declaratively."""

    config_label: str
    workload: str
    workload_params: Dict[str, Any] = field(default_factory=dict)
    config_overrides: Dict[str, Any] = field(default_factory=dict)
    seed: int = 1

    def __post_init__(self) -> None:
        if "seed" in self.config_overrides:
            raise ValueError(
                "set JobSpec.seed, not config_overrides['seed'] — the seed "
                "is part of the job identity")
        self.workload_params = dict(self.workload_params)
        self.config_overrides = dict(self.config_overrides)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config_label": self.config_label,
            "workload": self.workload,
            "workload_params": _canonical(self.workload_params),
            "config_overrides": _canonical(self.config_overrides),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        return cls(
            config_label=data["config_label"],
            workload=data["workload"],
            workload_params=dict(data.get("workload_params", {})),
            config_overrides=dict(data.get("config_overrides", {})),
            seed=int(data.get("seed", 1)),
        )

    def canonical_json(self) -> str:
        """The canonical serialized form the content hash is taken over."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def job_key(self) -> str:
        """Stable content address: SHA-256 hex of the canonical JSON."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def describe(self) -> str:
        """A short human label for logs and progress lines."""
        params = ",".join(f"{k}={v}" for k, v in
                          sorted(self.workload_params.items()))
        overrides = ",".join(f"{k}={v}" for k, v in
                             sorted(self.config_overrides.items()))
        parts = [self.workload]
        if params:
            parts.append(params)
        parts.append(self.config_label)
        if overrides:
            parts.append(overrides)
        parts.append(f"seed={self.seed}")
        return " ".join(parts)


def build_machine(spec: JobSpec, plan: Optional["FaultPlan"] = None,
                  telemetry: Optional["Telemetry"] = None,
                  resilience: Optional["Resilience"] = None,
                  prepare: Optional[Callable[[Machine], None]] = None,
                  ) -> Machine:
    """Build the machine ``spec`` names, threads spawned.

    ``plan`` attaches a fault injector replaying the recorded fault
    schedule (merged into ``resilience`` when both are given).
    ``prepare`` runs after construction but *before* threads spawn — the
    attachment window pre-spawn observers (e.g. the race monitor) need.
    """
    # Lazy: the registry imports this module for its spec helpers.
    from repro.orchestrate.registry import build_workload
    workload = build_workload(spec.workload, spec.workload_params)
    if plan is not None:
        from repro.resilience.resilience import Resilience, ResilienceConfig
        if resilience is None:
            resilience = Resilience(ResilienceConfig(plan=plan))
        elif resilience.config.plan is None:
            resilience.config.plan = plan
    config = config_for(spec.config_label, seed=spec.seed,
                        **spec.config_overrides)
    machine = Machine(config, telemetry=telemetry, resilience=resilience)
    if prepare is not None:
        prepare(machine)
    workload.install(machine)
    return machine
