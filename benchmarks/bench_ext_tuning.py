"""Extension: the "no best back-off" sweep (Section 1 of the paper).

Sweeps back-off (base x exponentiation limit) on a contended lock and
checks that no tuning dominates the untuned callback system in *both*
execution time and traffic — the paper's core motivation for replacing
tuned back-off with callbacks.
"""

from benchmarks.conftest import BENCH_CORES, BENCH_ITERS
from repro.harness.extensions import backoff_tuning


def test_no_backoff_dominates_callbacks(benchmark):
    # The (base x limit) grid goes through the orchestrator, two
    # simulations in flight at a time.
    out = benchmark.pedantic(
        lambda: backoff_tuning(num_cores=BENCH_CORES, iterations=BENCH_ITERS,
                               bases=(1, 4), limits=(0, 5, 10, 15),
                               verbose=False, jobs=2),
        rounds=1, iterations=1,
    )
    cb = out.pop("CB-One (untuned)")
    dominating = [
        name for name, row in out.items()
        if row["cycles"] <= cb["cycles"] and row["traffic"] <= cb["traffic"]
    ]
    assert dominating == [], (
        f"a tuned back-off dominated callbacks: {dominating}")
    # And the sweep itself exhibits the trade-off: the fastest tuning is
    # not the lowest-traffic tuning.
    fastest = min(out, key=lambda n: out[n]["cycles"])
    leanest = min(out, key=lambda n: out[n]["traffic"])
    assert out[fastest]["traffic"] > out[leanest]["traffic"]
    backoff_tuning(num_cores=BENCH_CORES, iterations=BENCH_ITERS,
                   bases=(1, 4), limits=(0, 5, 10, 15), verbose=True)
