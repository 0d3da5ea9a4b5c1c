"""Declarative parameter sweeps.

A :class:`Sweep` maps a cartesian grid of (configuration label x config
overrides x workload parameters) onto simulations of one registered
workload spec (:mod:`repro.orchestrate.registry`), collecting any set
of metrics::

    sweep = Sweep(
        configs=["Invalidation", "CB-One"],
        workload_spec="lock",
        spec_params={"lock_name": "ttas", "iterations": 4},
        overrides={"cb_entries_per_bank": [1, 4, 16]},
        metrics={"cycles": lambda r: r.cycles,
                 "traffic": lambda r: r.traffic},
    )
    table = sweep.run(num_cores=16)

``table`` is a list of row dicts (one per grid point) ready for
``rows_to_table`` or JSON export.

Every grid point is one :class:`~repro.orchestrate.jobspec.JobSpec`.
By default the specs simulate one by one in-process; ``run(jobs=4)``
simulates four at a time through the orchestrator, and
``run(cache_dir=...)`` makes re-runs incremental. Parallel results are
bit-identical to serial ones — each grid point is an independent,
seeded simulation, and rows always come back in grid order.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.harness.reporting import format_table
from repro.harness.runner import RunResult, run_spec
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.orchestrate.jobspec import JobSpec
from repro.orchestrate.scheduler import run_batch
from repro.resilience.resilience import Resilience, ResilienceConfig

Metric = Callable[[RunResult], float]


@dataclass
class Sweep:
    """A cartesian sweep specification."""

    configs: Sequence[str]
    #: Registry workload spec name; swept ``params`` become its params.
    workload_spec: str
    metrics: Dict[str, Metric] = field(default_factory=dict)
    #: {config_field: [values...]} — swept as a cartesian product.
    overrides: Dict[str, Sequence[Any]] = field(default_factory=dict)
    #: {workload_param: [values...]} — swept as workload params.
    params: Dict[str, Sequence[Any]] = field(default_factory=dict)
    #: Static workload params merged under each grid point's ``params``.
    spec_params: Dict[str, Any] = field(default_factory=dict)

    def grid(self) -> List[Dict[str, Any]]:
        """All grid points as {field: value} dicts (excluding config)."""
        overlap = sorted(set(self.overrides) & set(self.params))
        if overlap:
            raise ValueError(
                f"sweep key(s) {overlap} appear in both overrides and "
                "params; rename one — a single grid value cannot feed "
                "both the config and the workload")
        axes: Dict[str, Sequence[Any]] = {**self.overrides, **self.params}
        if not axes:
            return [{}]
        return [dict(zip(axes, combo))
                for combo in itertools.product(*axes.values())]

    def _specs(self, seed: Optional[int] = None,
              **base_overrides: Any) -> List[JobSpec]:
        """One :class:`JobSpec` per (grid point, config), in row order."""
        overlap = sorted(set(base_overrides) & set(self.overrides))
        if overlap:
            raise ValueError(
                f"config key(s) {overlap} are both swept (overrides=) "
                "and fixed (run keyword); drop one")
        return [
            JobSpec(config_label=label, workload=self.workload_spec,
                    workload_params={**self.spec_params,
                                     **{k: v for k, v in point.items()
                                        if k in self.params}},
                    config_overrides={**base_overrides,
                                      **{k: v for k, v in point.items()
                                         if k in self.overrides}},
                    seed=seed if seed is not None else 1)
            for point in self.grid() for label in self.configs
        ]

    def run(self, seed: Optional[int] = None, jobs: int = 1,
            cache_dir: Optional[str] = None,
            telemetry: Optional[TelemetryConfig] = None,
            telemetry_dir: Optional[str] = None,
            audit_every: int = 0,
            checkpoint_every: int = 0,
            checkpoint_dir: Optional[str] = None,
            **base_overrides: Any) -> List[Dict[str, Any]]:
        """Execute the sweep; returns one row dict per (config, point).

        ``seed`` sets :attr:`SystemConfig.seed` for every run and is
        included in each result row. ``base_overrides`` fix config
        fields for every run; a key may not be both fixed here and
        swept in ``overrides``. ``jobs``/``cache_dir`` route the sweep
        through :mod:`repro.orchestrate`: ``jobs`` simulations run
        concurrently and results are cached/reused under
        ``cache_dir``.

        ``telemetry`` (a :class:`~repro.obs.telemetry.TelemetryConfig`)
        instruments every grid point; with ``telemetry_dir`` each
        point's Perfetto trace and sampled series are written next to
        the results (``<label>__<point>.trace.json`` / ``.series.json``)
        and the row gains a ``telemetry`` key pointing at them.
        Telemetry collectors live in the simulating process, so
        telemetered sweeps are serial-only.

        ``audit_every=N`` runs the :mod:`repro.validation.checker`
        auditors as a periodic daemon inside every simulation (an
        :class:`~repro.validation.checker.InvariantViolation` fails that
        grid point's run). Auditors live in the simulating process, so
        audited sweeps are serial-only too.

        ``checkpoint_every=N`` with ``checkpoint_dir=`` makes every grid
        point durable (:mod:`repro.ckpt`): points checkpoint as they
        simulate, and an interrupted sweep resumes each point from its
        newest valid checkpoint. This routes through the orchestrator.
        """
        specs = self._specs(seed, **base_overrides)
        checkpointing = bool(checkpoint_every and checkpoint_dir)
        orchestrated = jobs > 1 or cache_dir is not None or checkpointing
        telemetered = telemetry is not None and telemetry.enabled
        if telemetered and orchestrated:
            raise ValueError(
                "telemetry= sweeps are serial-only: collectors live in "
                "the simulating process, so drop jobs=/cache_dir=/"
                "checkpoint_dir=")
        if audit_every and orchestrated:
            raise ValueError(
                "audit_every= sweeps are serial-only: auditors live in "
                "the simulating process, so drop jobs=/cache_dir=/"
                "checkpoint_dir=")
        if orchestrated:
            batch = run_batch(specs, jobs=jobs, cache_dir=cache_dir,
                              checkpoint_dir=checkpoint_dir,
                              checkpoint_every=checkpoint_every)
            results = [job.result() for job in batch.results]
        else:
            results = []
            for spec in specs:
                audits = None
                if audit_every:
                    audits = Resilience(
                        ResilienceConfig(audit_every=audit_every))
                results.append(run_spec(
                    spec, Telemetry(telemetry) if telemetered else None,
                    audits))

        rows: List[Dict[str, Any]] = []
        points = [point for point in self.grid() for _ in self.configs]
        for point, spec, result in zip(points, specs, results):
            label = spec.config_label
            row: Dict[str, Any] = {"config": label, **point}
            if seed is not None:
                row["seed"] = seed
            for name, metric in self.metrics.items():
                row[name] = metric(result)
            run_telemetry = getattr(result, "telemetry", None)
            if run_telemetry is not None and telemetry_dir is not None:
                row["telemetry"] = _persist_telemetry(
                    telemetry_dir, label, point, run_telemetry)
            rows.append(row)
        return rows


def _point_slug(label: str, point: Mapping[str, Any]) -> str:
    parts = [label] + [f"{k}={point[k]}" for k in sorted(point)]
    slug = "__".join(parts)
    return "".join(c if c.isalnum() or c in "=_.-" else "-" for c in slug)


def _persist_telemetry(directory: str, label: str, point: Mapping[str, Any],
                       telemetry: Telemetry) -> Dict[str, str]:
    """Write one grid point's trace/series next to the sweep results."""
    os.makedirs(directory, exist_ok=True)
    slug = _point_slug(label, point)
    written: Dict[str, str] = {}
    if telemetry.spans is not None or telemetry.sampler is not None:
        trace_path = os.path.join(directory, f"{slug}.trace.json")
        telemetry.write_perfetto(trace_path, label=slug)
        written["trace"] = trace_path
    if telemetry.sampler is not None:
        series_path = os.path.join(directory, f"{slug}.series.json")
        with open(series_path, "w") as handle:
            telemetry.sampler.to_json(handle)
        written["series"] = series_path
    return written


def rows_to_table(rows: Sequence[Mapping[str, Any]],
                  metrics: Sequence[str], title: str = "sweep") -> str:
    """Render sweep rows as an aligned table (one line per grid point)."""
    formatted: Dict[str, Dict[str, float]] = {}
    for row in rows:
        label = ", ".join(
            f"{k}={v}" for k, v in row.items() if k not in metrics
        )
        formatted[label] = {m: float(row[m]) for m in metrics}
    return format_table(title, list(metrics), formatted, precision=1)
