"""Extension: power-saving while waiting (Section 2.1 future work).

A callback-parked core is quiescent from park to wakeup message — it can
deep-sleep. A MESI spinner executes its loop flat out; a back-off spinner
must self-wake on a timer for every probe. This bench quantifies the
sleepable fraction of core-cycles on a skewed barrier workload (the
thrifty-barrier scenario the paper cites).
"""

from benchmarks.conftest import BENCH_CORES
from repro.harness.extensions import power_saving


def test_power_saving(benchmark):
    out = benchmark.pedantic(
        lambda: power_saving(num_cores=BENCH_CORES, episodes=6,
                             skew_cycles=2000, verbose=False),
        rounds=1, iterations=1,
    )
    # Only the callback system can deep-sleep waiting cores.
    assert out["CB-All"]["sleepable_frac"] > 0.15
    assert out["Invalidation"]["sleepable_frac"] == 0.0
    assert out["BackOff-10"]["sleepable_frac"] == 0.0
    # And that translates into the largest core-energy saving.
    assert (out["CB-All"]["core_energy_saving"]
            > out["BackOff-10"]["core_energy_saving"])
    assert (out["CB-All"]["core_energy_saving"]
            > out["Invalidation"]["core_energy_saving"])
    power_saving(num_cores=BENCH_CORES, episodes=6, skew_cycles=2000,
                 verbose=True)
