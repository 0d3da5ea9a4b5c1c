"""Figure 21: execution time and network traffic over the 19-app suite
with scalable synchronization (CLH + TreeSR), normalized to Invalidation.

The full sweep is 19 apps x 7 configurations; the timed benchmark runs a
representative 4-app subset, and a second (non-normalizing) check runs
the complete suite under the three headline configurations.
"""

from benchmarks.conftest import BENCH_CORES, BENCH_SCALE
from repro.harness.experiments import fig21
from repro.workloads.suite import APP_NAMES

SUBSET = ["barnes", "raytrace", "streamcluster", "swaptions"]


def test_fig21_subset_all_configs(benchmark):
    out = benchmark.pedantic(
        lambda: fig21(num_cores=BENCH_CORES, scale=BENCH_SCALE,
                      verbose=False, apps=SUBSET),
        rounds=1, iterations=1,
    )
    time_gm = out["time"]["geomean"]
    traffic_gm = out["traffic"]["geomean"]

    # Headline shape: callbacks cut traffic vs Invalidation AND vs the
    # best back-off, while staying competitive in execution time.
    assert traffic_gm["CB-One"] < traffic_gm["Invalidation"]
    assert traffic_gm["CB-One"] < traffic_gm["BackOff-10"]
    assert time_gm["CB-One"] <= time_gm["BackOff-10"]
    assert time_gm["CB-One"] <= 1.10  # competitive with Invalidation

    # BackOff-15 "misses the target in execution time" (Section 5.4.1).
    assert time_gm["BackOff-15"] > time_gm["BackOff-10"] >= time_gm["BackOff-0"] * 0.95

    fig21(num_cores=BENCH_CORES, scale=BENCH_SCALE, verbose=True,
          apps=SUBSET)


def test_fig21_full_suite_headline_configs(benchmark):
    """All 19 applications under the three headline configurations."""
    out = benchmark.pedantic(
        lambda: fig21(num_cores=BENCH_CORES, scale=BENCH_SCALE,
                      verbose=False,
                      configs=("Invalidation", "BackOff-10", "CB-One")),
        rounds=1, iterations=1,
    )
    assert len(out["runs"]) == len(APP_NAMES) == 19
    traffic_gm = out["traffic"]["geomean"]
    assert traffic_gm["CB-One"] < traffic_gm["Invalidation"]
    assert traffic_gm["CB-One"] < traffic_gm["BackOff-10"]
