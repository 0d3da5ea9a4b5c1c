"""Ablation: CB-One wakeup policy (Section 2.4).

The paper uses a pseudo-random round-robin policy and notes that
alternatives (random, FIFO) carry different implementation costs but
similar behaviour. This bench quantifies the (small) differences.
"""

from benchmarks.conftest import BENCH_CORES, BENCH_ITERS
from repro.harness.experiments import ablation_policy


def test_wake_policy_sweep(benchmark):
    out = benchmark.pedantic(
        lambda: ablation_policy(num_cores=BENCH_CORES,
                                iterations=BENCH_ITERS, verbose=False),
        rounds=1, iterations=1,
    )
    assert set(out) == {"round_robin", "random", "fifo"}
    times = [row["time"] for row in out.values()]
    # The policies differ in fairness, not gross performance: every
    # policy completes within 25% of the best.
    assert max(times) <= min(times) * 1.25
    ablation_policy(num_cores=BENCH_CORES, iterations=BENCH_ITERS,
                    verbose=True)
