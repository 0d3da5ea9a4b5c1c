"""Multi-seed replication: run an experiment across seeds and summarize.

The simulator is deterministic per seed; workload randomness (compute
skew, lock choice, data-access sampling) flows from ``SystemConfig.seed``.
Replicating a measurement across seeds gives a dispersion estimate, so a
figure's conclusion ("CB-One < BackOff-10 in traffic") can be checked for
stability rather than read off a single run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.harness.runner import RunResult
from repro.orchestrate.jobspec import JobSpec
from repro.orchestrate.scheduler import run_batch


@dataclass
class Replicate:
    """Mean/std/range of one metric across seeds."""

    values: List[float]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    @property
    def std(self) -> float:
        if len(self.values) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((v - mu) ** 2 for v in self.values)
                         / (len(self.values) - 1))

    @property
    def cv(self) -> float:
        """Coefficient of variation (std/mean)."""
        return self.std / self.mean if self.mean else 0.0

    @property
    def lo(self) -> float:
        return min(self.values) if self.values else 0.0

    @property
    def hi(self) -> float:
        return max(self.values) if self.values else 0.0

    def separated_from(self, other: "Replicate") -> bool:
        """True if the two samples' ranges do not overlap — a blunt but
        assumption-free separation test for shape assertions."""
        return self.hi < other.lo or other.hi < self.lo


def replicate(
    spec: JobSpec,
    metric: Callable[[RunResult], float],
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> Replicate:
    """Run ``spec`` once per seed (its own ``seed`` is replaced).

    The seeds go through :func:`repro.orchestrate.run_batch` as one
    batch: ``jobs > 1`` simulates seeds concurrently and ``cache_dir``
    makes re-replication simulate only the missing seeds. The per-seed
    values are identical either way. A seed listed twice is simulated
    once.
    """
    batch = run_batch([replace(spec, seed=seed) for seed in seeds],
                      jobs=jobs, cache_dir=cache_dir)
    return Replicate([metric(job.result()) for job in batch.results])


def replicate_comparison(
    labels: Sequence[str],
    spec: JobSpec,
    metric: Callable[[RunResult], float],
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    **kwargs,
) -> Dict[str, Replicate]:
    """Replicate one metric across several configurations: ``spec``
    under each of ``labels``. Forwards ``jobs``/``cache_dir`` to
    :func:`replicate`."""
    return {
        label: replicate(replace(spec, config_label=label), metric, seeds,
                         **kwargs)
        for label in labels
    }
