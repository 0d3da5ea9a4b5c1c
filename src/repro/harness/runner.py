"""Experiment runner: one (configuration, workload) simulation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.config import SystemConfig, config_for
from repro.core.machine import Machine
from repro.energy.model import EnergyBreakdown, energy_of
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.resilience.resilience import Resilience, ResilienceConfig
from repro.sim.stats import Stats
from repro.workloads.base import Workload

#: What callers may pass as ``telemetry=``: nothing, a config describing
#: what to collect, or a ready-made (unattached) Telemetry object.
TelemetryArg = Optional[Union[Telemetry, TelemetryConfig]]

#: What callers may pass as ``resilience=``: nothing, a config describing
#: what to attach, or a ready-made (unattached) Resilience object.
ResilienceArg = Optional[Union[Resilience, ResilienceConfig]]


def _as_telemetry(telemetry: TelemetryArg) -> Optional[Telemetry]:
    if telemetry is None:
        return None
    if isinstance(telemetry, TelemetryConfig):
        return Telemetry(telemetry) if telemetry.enabled else None
    return telemetry


def _as_resilience(resilience: ResilienceArg,
                   audit_every: int) -> Optional[Resilience]:
    if resilience is None:
        if audit_every:
            return Resilience(ResilienceConfig(audit_every=audit_every))
        return None
    if isinstance(resilience, ResilienceConfig):
        if audit_every:
            resilience.audit_every = audit_every
        return Resilience(resilience)
    if audit_every:
        resilience.config.audit_every = audit_every
    return resilience


@dataclass
class RunResult:
    """Everything the figures need from one simulation."""

    workload: str
    config_label: str
    stats: Stats
    energy: EnergyBreakdown
    #: The run's telemetry collectors, when requested (else None).
    telemetry: Optional[Telemetry] = None
    #: The run's resilience layer, when requested (else None).
    resilience: Optional[Resilience] = None

    @classmethod
    def of(cls, machine: Machine, stats: Stats) -> "RunResult":
        """The result of ``machine``'s installed workload finishing with
        ``stats``."""
        return cls(workload=machine.workload_name,
                   config_label=machine.config.label(), stats=stats,
                   energy=energy_of(stats), telemetry=machine.telemetry,
                   resilience=machine.resilience)

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def traffic(self) -> int:
        """Network traffic metric: flit-hops (Figures 1/21/23)."""
        return self.stats.flit_hops

    @property
    def llc_sync(self) -> int:
        """LLC accesses due to synchronization (Figures 1/20)."""
        return self.stats.llc_sync_accesses

    def episode_mean(self, category: str) -> float:
        return self.stats.episode_mean(category)


def run_workload(config: SystemConfig, workload: Workload,
                 telemetry: TelemetryArg = None,
                 resilience: ResilienceArg = None,
                 audit_every: int = 0) -> RunResult:
    """Simulate ``workload`` on a machine built from ``config``.

    ``telemetry`` opts the run into observability: pass a
    :class:`~repro.obs.telemetry.TelemetryConfig` (or a prepared
    :class:`~repro.obs.telemetry.Telemetry`) and the attached collectors
    come back on ``RunResult.telemetry``. The default (None) runs fully
    uninstrumented and is bit-identical to the untelemetered simulator.

    ``resilience`` opts the run into the robustness layer
    (:mod:`repro.resilience`): fault injection, the liveness watchdog,
    and periodic invariant auditing. ``audit_every=N`` is shorthand for
    just the auditing component (it merges into whatever ``resilience``
    object/config was passed). Both defaults leave the run untouched.

    Durable, resumable runs take a
    :class:`~repro.orchestrate.jobspec.JobSpec` instead: see
    :class:`~repro.ckpt.checkpoint.Checkpointer`.
    """
    telemetry = _as_telemetry(telemetry)
    resilience = _as_resilience(resilience, audit_every)
    machine = Machine(config, telemetry=telemetry, resilience=resilience)
    workload.install(machine)
    return RunResult.of(machine, machine.run())


def run_config(name: str, workload: Workload,
               telemetry: TelemetryArg = None,
               resilience: ResilienceArg = None,
               audit_every: int = 0, **overrides) -> RunResult:
    """Run under a paper configuration label ("Invalidation", ...)."""
    return run_workload(config_for(name, **overrides), workload,
                        telemetry=telemetry, resilience=resilience,
                        audit_every=audit_every)
