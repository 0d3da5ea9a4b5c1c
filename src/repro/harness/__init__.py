"""Experiment harness: runner, per-figure experiments, reporting, CLI."""

import importlib
from typing import Any

#: Public name -> defining submodule. Exported lazily (PEP 562): the
#: orchestrator imports ``runner`` and ``results_io``, and the sweep and
#: replication modules import the orchestrator, so an eager package
#: init would close an import cycle.
_EXPORTS = {
    "Replicate": "replication",
    "RunResult": "runner",
    "Sweep": "sweeps",
    "acquisition_fairness": "fairness",
    "format_table": "reporting",
    "geomean": "reporting",
    "geomean_rows": "reporting",
    "jain_index": "fairness",
    "latency_fairness": "fairness",
    "load_result": "results_io",
    "normalize_to": "reporting",
    "normalize_to_max": "reporting",
    "replicate": "replication",
    "replicate_comparison": "replication",
    "rows_to_table": "sweeps",
    "run_config": "runner",
    "run_spec": "runner",
    "run_workload": "runner",
    "save_result": "results_io",
}


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__all__ = list(_EXPORTS)
