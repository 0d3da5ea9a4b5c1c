"""Extension: per-link contention modelling.

The default network model counts hops and flits (the paper's effects are
message-count effects). Enabling link occupancy adds queuing delay, which
punishes the LLC-spinning storm (BackOff-0 hammers the home bank's links)
much harder than the callback system (one wakeup message per value).
"""

from benchmarks.conftest import BENCH_CORES, BENCH_ITERS
from repro.harness.extensions import link_contention


def test_link_contention(benchmark):
    out = benchmark.pedantic(
        lambda: link_contention(num_cores=BENCH_CORES,
                                iterations=BENCH_ITERS, verbose=False),
        rounds=1, iterations=1,
    )

    def slowdown(label):
        return (out[f"{label}/link-contention"]["cycles"]
                / out[label]["cycles"])

    # Queuing can only slow things down, and it hurts the probe storm
    # at least as much as the callback system.
    assert slowdown("BackOff-0") >= 1.0
    assert slowdown("CB-One") >= 1.0
    assert slowdown("BackOff-0") >= slowdown("CB-One") * 0.98
    link_contention(num_cores=BENCH_CORES, iterations=BENCH_ITERS,
                    verbose=True)
