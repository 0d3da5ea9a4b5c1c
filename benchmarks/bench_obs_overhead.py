"""Telemetry overhead: probes must be near-free when nobody listens.

The observability layer's core promise is that an uninstrumented run
pays only one attribute load and an ``is None`` branch per probe site
(``telemetry=None``, the default), and that even an *attached* bus with
no subscribers costs just one extra dict lookup per emission.  These
benches time the same CB-One lock microbenchmark three ways — bare,
with an idle bus attached, and with full sampling + spans — and assert
the idle-bus run stays within a generous bound of the bare one.

The acceptance bar is <=5% overhead for no-collector runs; the assert
below uses 1.5x so CI-noise never flakes it, while the printed ratio is
what the figure-quality claim rests on (locally it sits at ~1.0x).
"""

import json
import os
import platform
import time

import pytest

from benchmarks.conftest import BENCH_CORES, BENCH_ITERS
from repro.config import config_for
from repro.core.machine import Machine
from repro.harness.runner import run_workload
from repro.ioutil import atomic_write_json
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.workloads.microbench import LockMicrobench

#: Manual-timing repetitions for the ratio test (best-of, to shed noise).
RATIO_ROUNDS = 5


def _config():
    return config_for("CB-One", num_cores=BENCH_CORES)


def _workload():
    return LockMicrobench("ttas", iterations=BENCH_ITERS)


def _bare_run():
    return run_workload(_config(), _workload())


def _idle_bus_run():
    # A Telemetry built from an all-off config still attaches when passed
    # as an instance: every component gets ``obs`` set, but nothing
    # subscribes, so each emit returns after one dict lookup.
    return run_workload(_config(), _workload(),
                        telemetry=Telemetry(TelemetryConfig()))


def _full_run():
    return run_workload(
        _config(), _workload(),
        telemetry=Telemetry(TelemetryConfig(sample_every=200, spans=True)))


def _best_interleaved(fns, rounds=RATIO_ROUNDS):
    """Best wall time of each of ``fns``, timed round by round (one run
    of each per round), so a slow stretch of the host hits every
    function alike instead of only the one timed during it."""
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def test_bare_run(benchmark):
    """Baseline: no telemetry object anywhere (``obs is None``)."""
    result = benchmark.pedantic(_bare_run, rounds=3, iterations=1)
    assert result.cycles > 0


def test_attached_idle_bus(benchmark):
    """Bus attached, zero subscribers: the no-collector upper bound."""
    result = benchmark.pedantic(_idle_bus_run, rounds=3, iterations=1)
    assert result.cycles > 0
    assert result.telemetry is not None


def test_full_collection(benchmark):
    """Sampling every 200 cycles + span recording, for scale."""
    result = benchmark.pedantic(_full_run, rounds=3, iterations=1)
    assert result.telemetry.spans is not None


def test_idle_bus_overhead_bounded():
    """Idle-bus runtime stays within 1.5x of bare (target: <=1.05x)."""
    bare, idle = _best_interleaved((_bare_run, _idle_bus_run))
    ratio = idle / bare
    print(f"\nbare {bare * 1e3:.1f} ms, idle bus {idle * 1e3:.1f} ms, "
          f"ratio {ratio:.3f}x")
    assert ratio < 1.5


def test_results_identical_with_idle_bus():
    """The overhead comparison is apples-to-apples: same simulation."""
    bare = _bare_run()
    idle = _idle_bus_run()
    assert bare.cycles == idle.cycles
    assert bare.stats.counters() == idle.stats.counters()


# ---------------------------------------------------------------------------
# BENCH document: the overhead trajectory. Cycles and events are
# deterministic and must match the committed baseline
# (results/BENCH_obs_overhead.json) exactly; wall times are host-bound.

OBS_BASELINE = os.path.join(os.path.dirname(__file__), os.pardir,
                            "results", "BENCH_obs_overhead.json")

#: The three instrumentation levels, as BENCH cases.
_OBS_CASES = (
    ("obs_bare", lambda: None),
    ("obs_idle_bus", lambda: Telemetry(TelemetryConfig())),
    ("obs_full", lambda: Telemetry(TelemetryConfig(sample_every=200,
                                                   spans=True))),
)


def _measure_obs_case(name, telemetry_factory, rounds=RATIO_ROUNDS):
    """Best-of-``rounds`` wall time of one telemetry level, plus its
    cycles and events (asserted equal across rounds). Uses the Machine
    directly so ``events_executed`` is measurable."""
    best = float("inf")
    cycles = events = None
    for _ in range(rounds):
        machine = Machine(_config(), telemetry=telemetry_factory())
        _workload().install(machine)
        t0 = time.perf_counter()
        stats = machine.run()
        best = min(best, time.perf_counter() - t0)
        if cycles is None:
            cycles, events = stats.cycles, machine.events_executed
        else:
            assert (cycles, events) == (stats.cycles,
                                        machine.events_executed)
    return {
        "name": name,
        "workload": "lock",
        "params": {"lock_name": "ttas", "iterations": BENCH_ITERS},
        "protocol": "CB-One",
        "cores": BENCH_CORES,
        "seed": 1,
        "cycles": int(cycles),
        "events": int(events),
        "wall_s": round(best, 6),
        "cycles_per_s": round(cycles / best, 1),
        "events_per_s": round(events / best, 1),
    }


@pytest.fixture(scope="module")
def obs_bench():
    cases = [_measure_obs_case(name, factory)
             for name, factory in _OBS_CASES]
    doc = {"kind": "BENCH", "version": 1, "suite": "obs_overhead",
           "created_unix": time.time(), "iters": RATIO_ROUNDS,
           "env": {"python": platform.python_version(),
                   "implementation": platform.python_implementation(),
                   "platform": platform.platform(),
                   "machine": platform.machine()},
           "cases": cases}
    out = os.environ.get("REPRO_BENCH_OBS_OUT")
    if out:
        atomic_write_json(out, doc, durable=False, indent=2)
    return doc


def test_obs_bench_document_shape(obs_bench):
    by_name = {c["name"]: c for c in obs_bench["cases"]}
    assert set(by_name) == {"obs_bare", "obs_idle_bus", "obs_full"}
    # Telemetry observes; it must never change what the engine computes
    # (simulated cycles identical everywhere). Full sampling *does* add
    # its own periodic events to the queue — more events executed is
    # fine, different cycles would be a probe-effect bug.
    assert len({c["cycles"] for c in by_name.values()}) == 1
    assert by_name["obs_bare"]["events"] == \
           by_name["obs_idle_bus"]["events"]
    assert by_name["obs_full"]["events"] >= \
           by_name["obs_bare"]["events"]


def test_obs_bench_matches_committed_baseline(obs_bench):
    with open(OBS_BASELINE) as handle:
        baseline = json.load(handle)
    assert baseline["kind"] == "BENCH"
    base = {c["name"]: c for c in baseline["cases"]}
    for case in obs_bench["cases"]:
        assert (case["cycles"], case["events"]) == \
               (base[case["name"]]["cycles"],
                base[case["name"]]["events"]), (
            f"{case['name']}: deterministic outputs diverged — "
            f"regenerate results/BENCH_obs_overhead.json if intentional")
