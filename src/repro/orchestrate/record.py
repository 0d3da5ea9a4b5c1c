"""Job result records and the :class:`RecordResult` adapter.

A finished job is persisted as a plain JSON **record**::

    {
      "job_key":  "<sha256 of the spec>",
      "spec":     {...JobSpec.to_dict()...},
      "result":   {...results_io-style RunResult serialization...},
      "meta":     {"wall_s": ..., "finished_at": ..., "pid": ...}
    }

``result`` is deterministic per spec (the simulator is seeded); ``meta``
is not and is excluded from any equality or parity comparison.

:class:`RecordResult` re-exposes a record behind the slice of the
:class:`~repro.harness.runner.RunResult` interface the sweep metrics use
(``cycles``, ``traffic``, ``llc_sync``, ``episode_mean``,
``energy.as_dict()``), so metric lambdas written against live results
also work against cached records.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Mapping

from repro.harness.results_io import _jsonable
from repro.harness.runner import RunResult

from repro.orchestrate.jobspec import JobSpec


def record_of(spec: JobSpec, result: RunResult,
              wall_s: float = 0.0) -> Dict[str, Any]:
    """Serialize one finished simulation into its cacheable record."""
    return {
        "job_key": spec.job_key(),
        "spec": spec.to_dict(),
        "result": _jsonable(result),
        "meta": {
            "wall_s": wall_s,
            "finished_at": time.time(),
            "pid": os.getpid(),
        },
    }


class _EnergyView:
    """Duck-type of ``EnergyBreakdown`` over the serialized dict."""

    def __init__(self, data: Mapping[str, Any]) -> None:
        self._data = dict(data)
        for key, value in self._data.items():
            setattr(self, key, value)
        if "total" not in self._data:
            self.total = float(sum(self._data.values()))

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._data)


class RecordResult:
    """A cached record viewed through the ``RunResult`` metric interface."""

    def __init__(self, record: Mapping[str, Any]) -> None:
        self.record = dict(record)
        self._result = record["result"]

    @property
    def workload(self) -> str:
        return self._result["workload"]

    @property
    def config_label(self) -> str:
        return self._result["config"]

    @property
    def cycles(self) -> int:
        return self._result["cycles"]

    @property
    def traffic(self) -> int:
        return self._result["traffic"]

    @property
    def llc_sync(self) -> int:
        return self._result["llc_sync"]

    @property
    def energy(self) -> _EnergyView:
        return _EnergyView(self._result.get("energy", {}))

    def episode_mean(self, category: str) -> float:
        episodes = self._result.get("stats", {}).get("episodes", {})
        return float(episodes.get(category, {}).get("mean", 0.0))

    def episode_summary(self, category: str) -> Dict[str, float]:
        episodes = self._result.get("stats", {}).get("episodes", {})
        return dict(episodes.get(category, {"n": 0, "mean": 0.0}))
