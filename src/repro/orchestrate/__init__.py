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

import importlib
from typing import Any

#: Public name -> defining submodule. Exported lazily (PEP 562), so
#: importing one submodule (``jobspec``, say, from the checkpoint code
#: or the harness runner) does not import the scheduler, and through it
#: the harness and the resilience campaign.
_EXPORTS = {
    "BatchResult": "scheduler",
    "Event": "events",
    "EventLog": "events",
    "JobResult": "scheduler",
    "JobSpec": "jobspec",
    "Orchestrator": "scheduler",
    "RecordResult": "record",
    "ResultCache": "cache",
    "build_machine": "jobspec",
    "build_workload": "registry",
    "execute_job": "scheduler",
    "record_of": "record",
    "register_workload_spec": "registry",
    "run_batch": "scheduler",
    "workload_spec_names": "registry",
}


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__all__ = list(_EXPORTS)
