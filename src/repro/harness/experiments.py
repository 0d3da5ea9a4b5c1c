"""Per-figure experiment definitions.

Each ``figNN`` function runs the simulations behind one figure of the
paper and returns a structured result (plus, optionally, prints the
normalized table). All functions take ``num_cores``/``scale`` so the same
code serves quick CI-sized runs (16 cores, scale 0.25) and full
paper-sized runs (64 cores, scale 1.0).

Experiment -> paper mapping (see DESIGN.md section 4):

* :func:`fig01` — Figure 1: Invalidation vs BackOff-{0,5,10,15} on CLH
  and TreeSR spin-waiting (LLC accesses + latency, normalized to max).
* :func:`fig20` — Figure 20: all five constructs x all seven techniques.
* :func:`fig21` — Figure 21: execution time + network traffic for the 19
  applications, scalable synchronization, normalized to Invalidation.
* :func:`fig22` — Figure 22: energy (L1/LLC/network) per application.
* :func:`fig23` — Figure 23: naïve vs scalable locks under TreeSR.
* :func:`ablation_dirsize` — Section 5.2 claim: callback directory with
  4/16/64/256 entries per bank.
* :func:`ablation_policy` — CB-One wake policy (round-robin/random/FIFO).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.config import PAPER_CONFIGS, WakePolicy
from repro.harness.reporting import (format_table, geomean, geomean_rows,
                                     normalize_to, normalize_to_max)
from repro.harness.runner import RunResult, run_spec
from repro.orchestrate.jobspec import JobSpec
from repro.workloads.suite import APP_NAMES

BACKOFF_CONFIGS = ("BackOff-0", "BackOff-5", "BackOff-10", "BackOff-15")

#: construct -> (registered workload spec, its params, the param that
#: counts iterations, episode-latency category)
_CONSTRUCTS = {
    "ttas": ("lock", {"lock_name": "ttas"}, "iterations", "lock_acquire"),
    "clh": ("lock", {"lock_name": "clh"}, "iterations", "lock_acquire"),
    "sr": ("barrier", {"barrier_name": "sr"}, "episodes", "barrier_wait"),
    "treesr": ("barrier", {"barrier_name": "treesr"}, "episodes",
               "barrier_wait"),
    "signal-wait": ("signal_wait", {}, "rounds", "wait"),
}


def _app_spec(label: str, app: str, num_cores: int, scale: float,
              lock_name: str = "clh", barrier_name: str = "treesr",
              **overrides) -> JobSpec:
    """One suite application run at ``num_cores``."""
    return JobSpec(label, "app",
                   {"name": app, "lock_name": lock_name,
                    "barrier_name": barrier_name, "scale": scale},
                   {"num_cores": num_cores, **overrides})


def _sync_metrics(construct: str, configs: Sequence[str], num_cores: int,
                  iterations: int) -> Dict[str, Dict[str, float]]:
    """Per-config LLC sync accesses and mean episode latency for one
    synchronization construct."""
    workload, params, count_param, category = _CONSTRUCTS[construct]
    accesses: Dict[str, float] = {}
    latency: Dict[str, float] = {}
    for label in configs:
        result = run_spec(JobSpec(label, workload,
                                  {**params, count_param: iterations},
                                  {"num_cores": num_cores}))
        accesses[label] = float(result.llc_sync)
        latency[label] = result.episode_mean(category)
    return {"llc_accesses": accesses, "latency": latency}


def fig01(num_cores: int = 64, iterations: int = 8, verbose: bool = True
          ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Figure 1: invalidation vs LLC-spinning back-off."""
    configs = ("Invalidation",) + BACKOFF_CONFIGS
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for construct in ("clh", "treesr"):
        metrics = _sync_metrics(construct, configs, num_cores, iterations)
        out[construct] = {
            metric: normalize_to_max(row) for metric, row in metrics.items()
        }
    if verbose:
        for metric in ("llc_accesses", "latency"):
            rows = {c: out[c][metric] for c in out}
            print(format_table(f"Fig1 {metric}", list(configs), rows))
            print()
    return out


def fig20(num_cores: int = 64, iterations: int = 8, verbose: bool = True,
          configs: Sequence[str] = PAPER_CONFIGS
          ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Figure 20: per-construct behaviour of all techniques."""
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for construct in _CONSTRUCTS:
        metrics = _sync_metrics(construct, configs, num_cores, iterations)
        out[construct] = {
            metric: normalize_to_max(row) for metric, row in metrics.items()
        }
    if verbose:
        for metric in ("llc_accesses", "latency"):
            rows = {c: out[c][metric] for c in out}
            print(format_table(f"Fig20 {metric}", list(configs), rows))
            print()
    return out


#: job key -> RunResult. Simulations are deterministic, so fig21/fig22
#: (and repeated CLI invocations in one process) share runs instead of
#: re-simulating.
_RUN_CACHE: Dict[str, RunResult] = {}


def _suite_runs(configs: Sequence[str], num_cores: int, scale: float,
                lock_name: str, barrier_name: str,
                apps: Optional[Sequence[str]] = None,
                ) -> Dict[str, Dict[str, RunResult]]:
    """{app: {config: RunResult}} over the application suite (memoized)."""
    apps = list(apps) if apps is not None else list(APP_NAMES)
    results: Dict[str, Dict[str, RunResult]] = {}
    for app in apps:
        results[app] = {}
        for label in configs:
            spec = _app_spec(label, app, num_cores, scale, lock_name,
                             barrier_name)
            key = spec.job_key()
            if key not in _RUN_CACHE:
                _RUN_CACHE[key] = run_spec(spec)
            results[app][label] = _RUN_CACHE[key]
    return results


def fig21(num_cores: int = 64, scale: float = 1.0, verbose: bool = True,
          configs: Sequence[str] = PAPER_CONFIGS,
          apps: Optional[Sequence[str]] = None) -> Dict[str, Dict]:
    """Figure 21: execution time + traffic, scalable sync (CLH+TreeSR)."""
    runs = _suite_runs(configs, num_cores, scale, "clh", "treesr", apps)
    time_rows = {
        app: normalize_to({c: float(r.cycles) for c, r in per.items()},
                          "Invalidation")
        for app, per in runs.items()
    }
    traffic_rows = {
        app: normalize_to({c: float(r.traffic) for c, r in per.items()},
                          "Invalidation")
        for app, per in runs.items()
    }
    time_rows["geomean"] = geomean_rows(time_rows, list(configs))
    traffic_rows["geomean"] = geomean_rows(traffic_rows, list(configs))
    if verbose:
        print(format_table("Fig21 exec time", list(configs), time_rows))
        print()
        print(format_table("Fig21 traffic", list(configs), traffic_rows))
        print()
    return {"time": time_rows, "traffic": traffic_rows, "runs": runs}


def fig22(num_cores: int = 64, scale: float = 1.0, verbose: bool = True,
          configs: Sequence[str] = PAPER_CONFIGS,
          apps: Optional[Sequence[str]] = None) -> Dict[str, Dict]:
    """Figure 22: energy breakdown (L1/LLC/network), normalized to
    Invalidation's total, geomean over the suite."""
    runs = _suite_runs(configs, num_cores, scale, "clh", "treesr", apps)
    breakdown: Dict[str, Dict[str, float]] = {
        c: {"l1": [], "llc": [], "network": [], "total": []}
        for c in configs
    }
    for app, per in runs.items():
        ref = per["Invalidation"].energy.onchip_pj or 1.0
        for label, result in per.items():
            e = result.energy
            breakdown[label]["l1"].append(e.l1_pj / ref)
            breakdown[label]["llc"].append((e.llc_pj + e.cb_dir_pj) / ref)
            breakdown[label]["network"].append(e.network_pj / ref)
            breakdown[label]["total"].append(e.onchip_pj / ref)
    rows = {
        label: {part: geomean(vals) for part, vals in parts.items()}
        for label, parts in breakdown.items()
    }
    if verbose:
        print(format_table("Fig22 energy", ["l1", "llc", "network", "total"],
                           rows))
        print()
    return {"energy": rows, "runs": runs}


def fig23(num_cores: int = 64, scale: float = 1.0, verbose: bool = True,
          configs: Sequence[str] = ("Invalidation", "BackOff-10", "CB-All",
                                    "CB-One"),
          apps: Optional[Sequence[str]] = None) -> Dict[str, Dict]:
    """Figure 23: T&T&S vs CLH locks under the TreeSR barrier — does lock
    scalability still matter once callbacks are in place?"""
    out: Dict[str, Dict[str, float]] = {"time": {}, "traffic": {}}
    for lock_name in ("ttas", "clh"):
        runs = _suite_runs(configs, num_cores, scale, lock_name, "treesr",
                           apps)
        time_norm = {
            app: normalize_to({c: float(r.cycles) for c, r in per.items()},
                              "Invalidation")
            for app, per in runs.items()
        }
        traffic_norm = {
            app: normalize_to({c: float(r.traffic) for c, r in per.items()},
                              "Invalidation")
            for app, per in runs.items()
        }
        # Geomean of raw cycles/traffic per config, for cross-lock compare.
        raw_time = {c: geomean(float(per[c].cycles) for per in runs.values())
                    for c in configs}
        raw_traffic = {c: geomean(float(per[c].traffic)
                                  for per in runs.values())
                       for c in configs}
        out["time"][lock_name] = raw_time
        out["traffic"][lock_name] = raw_traffic
        out[f"time_norm_{lock_name}"] = geomean_rows(time_norm, list(configs))
        out[f"traffic_norm_{lock_name}"] = geomean_rows(traffic_norm,
                                                        list(configs))
    if verbose:
        print(format_table("Fig23 time (geomean cycles)", list(configs),
                           out["time"]))
        print()
        print(format_table("Fig23 traffic (geomean flit-hops)",
                           list(configs), out["traffic"]))
        print()
    return out


def ablation_dirsize(num_cores: int = 64, scale: float = 0.5,
                     sizes: Sequence[int] = (4, 16, 64, 256),
                     apps: Optional[Sequence[str]] = None,
                     verbose: bool = True) -> Dict[int, Dict[str, float]]:
    """Section 5.2: callback directory entries per bank should not matter."""
    apps = list(apps) if apps is not None else ["barnes", "fluidanimate",
                                                "streamcluster"]
    rows: Dict[int, Dict[str, float]] = {}
    for size in sizes:
        cycles: List[float] = []
        traffic: List[float] = []
        for app in apps:
            result = run_spec(_app_spec("CB-One", app, num_cores, scale,
                                        cb_entries_per_bank=size))
            cycles.append(float(result.cycles))
            traffic.append(float(result.traffic))
        rows[size] = {"time": geomean(cycles), "traffic": geomean(traffic)}
    if verbose:
        print(format_table("CB dir entries/bank", ["time", "traffic"],
                           {str(k): v for k, v in rows.items()}))
        print()
    return rows


def ablation_policy(num_cores: int = 64, iterations: int = 8,
                    verbose: bool = True) -> Dict[str, Dict[str, float]]:
    """CB-One wakeup policy sweep (the paper fixes round-robin)."""
    rows: Dict[str, Dict[str, float]] = {}
    for policy in WakePolicy:
        result = run_spec(JobSpec(
            "CB-One", "lock", {"lock_name": "ttas", "iterations": iterations},
            {"num_cores": num_cores, "cb_wake_policy": policy}))
        rows[policy.value] = {
            "time": float(result.cycles),
            "traffic": float(result.traffic),
            "acquire_latency": result.episode_mean("lock_acquire"),
        }
    if verbose:
        print(format_table("CB-One wake policy",
                           ["time", "traffic", "acquire_latency"], rows))
        print()
    return rows
