"""Extension: core-count scaling of the callback advantage.

The paper evaluates a fixed 64-core machine; this bench sweeps machine
size and checks that the callback traffic win grows with core count
(more spinners share each written value, routes get longer, and back-off
probe storms scale with the waiter count).
"""

from repro.harness.extensions import scaling


def test_scaling_sweep(benchmark):
    # The (core count x config) grid goes through the orchestrator, two
    # simulations in flight at a time.
    out = benchmark.pedantic(
        lambda: scaling(core_counts=(4, 16, 36), app="fluidanimate",
                        scale=0.25, verbose=False, jobs=2),
        rounds=1, iterations=1,
    )

    def cb_traffic_saving(cores):
        row = out[cores]
        return 1.0 - row["CB-One"]["traffic"] / row["Invalidation"]["traffic"]

    # The callback saving must be positive at every size and grow with
    # the machine once there is real contention (tiny machines barely
    # contend a fine-grained-locking app, so 4 cores is excluded from
    # the monotonicity check).
    for cores in (4, 16, 36):
        assert cb_traffic_saving(cores) > 0, cores
    assert cb_traffic_saving(36) > cb_traffic_saving(16)
    scaling(core_counts=(4, 16, 36), app="fluidanimate", scale=0.25,
            verbose=True)
