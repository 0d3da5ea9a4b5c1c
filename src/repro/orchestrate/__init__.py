"""Experiment orchestration: parallel, cached, fault-tolerant batches.

The reproduction's grids (19 applications x 7 configurations, the
ablations, the extension sweeps) are embarrassingly parallel; this
subsystem exploits that. Simulations become declarative, picklable
:class:`JobSpec`s; an :class:`Orchestrator` executes batches of them
across worker processes with retries, timeouts, and crash recovery; a
content-addressed :class:`ResultCache` makes every re-run incremental;
an :class:`EventLog` narrates progress and throughput. The
``repro-orchestrate`` CLI (:mod:`repro.orchestrate.cli`) drives it from
the shell.
"""

from repro.orchestrate.cache import ResultCache
from repro.orchestrate.events import Event, EventLog
from repro.orchestrate.jobspec import JobSpec, build_machine
from repro.orchestrate.record import RecordResult, record_of
from repro.orchestrate.registry import (build_workload,
                                        register_workload_spec,
                                        workload_spec_names)
from repro.orchestrate.scheduler import (BatchResult, JobResult,
                                         Orchestrator, execute_job,
                                         run_batch)

__all__ = [
    "BatchResult",
    "Event",
    "EventLog",
    "JobResult",
    "JobSpec",
    "Orchestrator",
    "RecordResult",
    "ResultCache",
    "build_machine",
    "build_workload",
    "execute_job",
    "record_of",
    "register_workload_spec",
    "run_batch",
    "workload_spec_names",
]
