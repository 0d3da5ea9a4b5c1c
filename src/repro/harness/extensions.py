"""Extension experiments beyond the paper's figures.

* :func:`scaling` — how the callback advantage evolves with core count
  (the paper evaluates 64 cores only; this sweeps 4..64).
* :func:`power_saving` — quantifies Section 2.1's future-work claim that
  callback-parked cores can sleep (thrifty-barrier style).
* :func:`link_contention` — re-runs a hot-spot workload with the optional
  per-link occupancy model to show queuing amplifies the LLC-spinning
  penalty.

:func:`scaling` and :func:`backoff_tuning` submit their grids through
:mod:`repro.orchestrate` — pass ``jobs=N`` to simulate N grid points
concurrently and ``cache_dir=`` to reuse results across runs.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.config import config_for
from repro.energy.power import core_power_report
from repro.harness.reporting import format_table
from repro.harness.runner import run_spec
from repro.orchestrate.jobspec import JobSpec
from repro.orchestrate.scheduler import run_batch


def scaling(core_counts: Sequence[int] = (4, 16, 36, 64),
            app: str = "fluidanimate", scale: float = 0.5,
            configs: Sequence[str] = ("Invalidation", "BackOff-10",
                                      "CB-One"),
            verbose: bool = True, jobs: int = 1,
            cache_dir: Optional[str] = None,
            ) -> Dict[int, Dict[str, Dict[str, float]]]:
    """Traffic/time per core count; callbacks should win more as the
    machine grows (more spinners per value, longer mesh routes).

    The (core count x config) grid is submitted as one orchestrator
    batch: ``jobs`` simulations run concurrently and ``cache_dir``
    makes re-runs incremental. Results are identical at any ``jobs``.
    """
    grid = [(cores, label) for cores in core_counts for label in configs]
    specs = [
        JobSpec(config_label=label, workload="app",
                workload_params={"name": app, "scale": scale},
                config_overrides={"num_cores": cores})
        for cores, label in grid
    ]
    batch = run_batch(specs, jobs=jobs, cache_dir=cache_dir)
    out: Dict[int, Dict[str, Dict[str, float]]] = {}
    for (cores, label), job in zip(grid, batch.results):
        result = job.result()
        out.setdefault(cores, {})[label] = {
            "cycles": float(result.cycles),
            "traffic": float(result.traffic),
        }
    if verbose:
        for metric in ("cycles", "traffic"):
            rows = {
                str(cores): {label: vals[label][metric]
                             for label in configs}
                for cores, vals in out.items()
            }
            print(format_table(f"scaling {metric} ({app})", list(configs),
                               rows, precision=0))
            print()
    return out


def power_saving(num_cores: int = 64, episodes: int = 6,
                 skew_cycles: int = 2000,
                 configs: Sequence[str] = ("Invalidation", "BackOff-10",
                                           "CB-All"),
                 verbose: bool = True) -> Dict[str, Dict[str, float]]:
    """Sleepable core-cycles per technique on a skewed barrier workload."""
    rows: Dict[str, Dict[str, float]] = {}
    for label in configs:
        result = run_spec(JobSpec(
            label, "barrier", {"barrier_name": "sr", "episodes": episodes,
                               "skew_cycles": skew_cycles},
            {"num_cores": num_cores}))
        cfg = config_for(label, num_cores=num_cores)
        report = core_power_report(result.stats, cfg)
        rows[label] = {
            "sleepable_frac": report.sleepable_fraction,
            "core_energy_saving": report.saving_fraction,
            "cycles": float(result.cycles),
        }
    if verbose:
        print(format_table("power saving",
                           ["sleepable_frac", "core_energy_saving",
                            "cycles"], rows))
        print()
    return rows


def backoff_tuning(num_cores: int = 64, iterations: int = 6,
                   bases: Sequence[int] = (1, 2, 4, 8),
                   limits: Sequence[int] = (0, 5, 10, 15),
                   verbose: bool = True, jobs: int = 1,
                   cache_dir: Optional[str] = None,
                   ) -> Dict[str, Dict[str, float]]:
    """The paper's "no best back-off" claim, as an experiment.

    Sweeps the back-off base and exponentiation limit over a contended
    lock workload and reports time and traffic per tuning, plus the
    untuned callback system. Section 1: "there is no 'best' back-off for
    both time and traffic because it is always a trade-off" — the
    callback row should not be dominated by any tuning.

    The whole (base x limit) grid plus the callback baseline goes
    through the orchestrator as one batch (``jobs`` concurrent
    simulations, cached under ``cache_dir`` when given).
    """
    lock_params = {"lock_name": "ttas", "iterations": iterations}
    names = [f"base={base},limit={limit}"
             for base in bases for limit in limits]
    specs = [
        JobSpec(config_label=f"BackOff-{limit}", workload="lock",
                workload_params=lock_params,
                config_overrides={"num_cores": num_cores,
                                  "backoff_base": base})
        for base in bases for limit in limits
    ]
    names.append("CB-One (untuned)")
    specs.append(JobSpec(config_label="CB-One", workload="lock",
                         workload_params=lock_params,
                         config_overrides={"num_cores": num_cores}))
    batch = run_batch(specs, jobs=jobs, cache_dir=cache_dir)
    rows: Dict[str, Dict[str, float]] = {}
    for name, job in zip(names, batch.results):
        result = job.result()
        rows[name] = {
            "cycles": float(result.cycles),
            "traffic": float(result.traffic),
        }
    if verbose:
        print(format_table("back-off tuning", ["cycles", "traffic"], rows,
                           precision=0))
        print()
    return rows


def link_contention(num_cores: int = 64, iterations: int = 6,
                    configs: Sequence[str] = ("BackOff-0", "CB-One"),
                    verbose: bool = True) -> Dict[str, Dict[str, float]]:
    """Hot-bank lock storm with and without link-occupancy modelling."""
    rows: Dict[str, Dict[str, float]] = {}
    for label in configs:
        for contention in (False, True):
            result = run_spec(JobSpec(
                label, "lock", {"lock_name": "ttas",
                                "iterations": iterations},
                {"num_cores": num_cores,
                 "model_link_contention": contention}))
            key = f"{label}{'/link-contention' if contention else ''}"
            rows[key] = {
                "cycles": float(result.cycles),
                "acquire_latency": result.episode_mean("lock_acquire"),
            }
    if verbose:
        print(format_table("link contention",
                           ["cycles", "acquire_latency"], rows,
                           precision=0))
        print()
    return rows
