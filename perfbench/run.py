"""Benchmark entry point.

    python3 perfbench/run.py --workload fig21_apps --seed 1 --seconds 30 \
        --trace 0

Run from the repository root. The workloads, metrics and units are
declared in ``BENCHMARK.json``; see ``perfbench/README.md`` for why each
workload exists and how to read the traced split. With ``--trace 0`` the
last line of standard output is a JSON object carrying every end-to-end
metric; with ``--trace 1`` it carries every per-layer metric (layers a
workload does not exercise read 0). Failed operations are named on the
lines before it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

_T0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("fig21_apps", "fig20_sync", "serve_jobs")


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def load_reference(workload: str) -> Dict[str, str]:
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle)[workload]


def result_line(outcome: dict, trace: bool, spec: dict) -> dict:
    """The final JSON object: every declared metric of the mode, in
    declaration order. End-to-end metrics must all be measured;
    per-layer metrics a workload does not reach read 0."""
    section = spec["per_layer" if trace else "end_to_end"]
    measured = outcome["metrics"]
    names = [m["name"] for m in section]
    unknown = sorted(set(measured) - set(names))
    if unknown:
        raise KeyError(f"undeclared metrics {unknown}")
    metrics = {}
    for metric in section:
        name = metric["name"]
        if not trace and name not in measured:
            raise KeyError(f"end-to-end metric {name} not measured")
        metrics[name] = {"value": measured.get(name, 0),
                         "unit": metric["unit"]}
    failed = len(outcome["failures"])
    return {"correct": failed == 0, "attempted": outcome["attempted"],
            "failed": failed, "metrics": metrics}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for
    child (the service workload's worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def import_seconds(module: str, trials: int) -> float:
    """Median over ``trials`` fresh interpreters of importing ``module``
    (and through it the simulator), each scaled to the reference host
    speed by calibration kernel passes in the same interpreter right
    before and after it (see :mod:`calib`). The kernel's objects are
    frozen out of the collector's reach so they do not slow the
    import."""
    code = (f"import gc, sys, time\nsys.path[:0] = {[SRC, HERE]!r}\n"
            f"import calib\nkernel = calib.Kernel()\ngc.freeze()\n"
            f"before = kernel.seconds()\n"
            f"t0 = time.perf_counter()\nimport {module}\n"
            f"elapsed = time.perf_counter() - t0\n"
            f"print(calib.to_reference(elapsed, before, kernel.seconds()))")
    times = [float(subprocess.run([sys.executable, "-c", code], check=True,
                                  capture_output=True, text=True,
                                  timeout=120).stdout)
             for _ in range(trials)]
    return statistics.median(times)


def _terminate(signum: int, _frame) -> None:
    # Turn SIGTERM into an exception so every ``finally`` runs: the
    # service workload kills its worker and removes its root there.
    raise SystemExit(128 + signum)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's self-tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    sys.path.insert(0, SRC)
    spec = declared()

    trace = bool(args.trace)
    import sims
    if args.workload == "serve_jobs":
        import serveload
        outcome = serveload.run(os.path.join(ROOT, ".perfbench_tmp"),
                                args.seed, args.seconds, trace)
    else:
        points = sims.points_for(args.workload, smoke=args.smoke)
        reference = load_reference(args.workload)
        if trace:
            outcome = sims.measure_traced(points, args.seed, reference)
        else:
            outcome = sims.measure(points, args.seed, args.seconds,
                                   reference)
    if not trace:
        # Before the import probes below, which are children too.
        outcome["metrics"]["peak_rss_mb"] = peak_rss_mb()
        module = "serveload" if args.workload == "serve_jobs" else "sims"
        outcome["metrics"]["setup_s"] += import_seconds(
            module, sims.SETUP_TRIALS)

    for name, why in sorted(outcome["failures"].items()):
        print(f"FAILED {name}: {why}")
    line = result_line(outcome, trace, spec)
    for name, metric in line["metrics"].items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in outcome.get("info", {}).items():
        print(f"{name:36s} {value:>16.6g} s")
    print(f"{'run_s':36s} {time.perf_counter() - _T0:>16.6g} s")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
