"""Experiment runner: one (configuration, workload) simulation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import SystemConfig, config_for
from repro.core.machine import Machine
from repro.energy.model import EnergyBreakdown, energy_of
from repro.obs.telemetry import Telemetry
from repro.orchestrate.jobspec import JobSpec, build_machine
from repro.resilience.resilience import Resilience
from repro.sim.stats import Stats
from repro.workloads.base import Workload


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


def run_spec(spec: JobSpec, telemetry: Optional[Telemetry] = None,
             resilience: Optional[Resilience] = None) -> RunResult:
    """Simulate the run ``spec`` names, in this process.

    ``telemetry`` (a prepared, unattached
    :class:`~repro.obs.telemetry.Telemetry`) opts the run into
    observability; its collectors come back on ``RunResult.telemetry``.
    ``resilience`` (an unattached
    :class:`~repro.resilience.resilience.Resilience`) opts it into the
    robustness layer: fault injection, the liveness watchdog and
    periodic invariant auditing. Both defaults leave the run
    bit-identical to the bare simulator.

    Batches of specs (parallel, cached, checkpointed) go through
    :func:`repro.orchestrate.run_batch` instead.
    """
    machine = build_machine(spec, telemetry=telemetry,
                            resilience=resilience)
    return RunResult.of(machine, machine.run())


def run_workload(config: SystemConfig, workload: Workload,
                 telemetry: Optional[Telemetry] = None,
                 resilience: Optional[Resilience] = None) -> RunResult:
    """Simulate a :class:`~repro.workloads.base.Workload` object on a
    machine built from ``config``; ``telemetry``/``resilience`` as for
    :func:`run_spec`."""
    machine = Machine(config, telemetry=telemetry, resilience=resilience)
    workload.install(machine)
    return RunResult.of(machine, machine.run())


def run_config(name: str, workload: Workload,
               telemetry: Optional[Telemetry] = None,
               resilience: Optional[Resilience] = None,
               **overrides) -> RunResult:
    """Run under a paper configuration label ("Invalidation", ...)."""
    return run_workload(config_for(name, **overrides), workload,
                        telemetry=telemetry, resilience=resilience)
