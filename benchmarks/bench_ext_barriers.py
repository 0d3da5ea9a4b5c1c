"""Extension: barrier algorithm comparison (SR vs TreeSR vs dissemination).

The paper evaluates the SR and TreeSR barriers; the dissemination
barrier (same reference, [19]) completes the classic trio. Every one of
its flags has exactly one writer and one spinner, so — like TreeSR — it
is a natural fit for callbacks: per episode, each thread parks
ceil(log2 n) times and receives that many wakeup messages, while
back-off pays a probe storm per round.
"""

from benchmarks.conftest import BENCH_CORES
from repro.harness.sweeps import Sweep, rows_to_table

CONFIGS = ("Invalidation", "BackOff-0", "BackOff-10", "CB-All")
BARRIERS = ("sr", "treesr", "dissemination")


def test_barrier_trio(benchmark):
    sweep = Sweep(
        configs=list(CONFIGS),
        workload_spec="barrier",
        spec_params={"episodes": 5, "skew_cycles": 300},
        params={"barrier_name": list(BARRIERS)},
        metrics={
            "wait_mean": lambda r: r.episode_mean("barrier_wait"),
            "llc_sync": lambda r: float(r.llc_sync),
            "flit_hops": lambda r: float(r.traffic),
        },
    )
    rows = benchmark.pedantic(lambda: sweep.run(num_cores=BENCH_CORES),
                              rounds=1, iterations=1)

    def row(config, barrier):
        (match,) = [r for r in rows
                    if r["config"] == config
                    and r["barrier_name"] == barrier]
        return match

    for barrier in BARRIERS:
        # Callbacks never spin on the LLC: fewest sync accesses per
        # barrier algorithm.
        assert (row("CB-All", barrier)["llc_sync"]
                < row("BackOff-0", barrier)["llc_sync"]), barrier
        assert (row("CB-All", barrier)["llc_sync"]
                <= row("BackOff-10", barrier)["llc_sync"]), barrier

    # The scalable barriers beat the centralized SR under Invalidation
    # (the SR's T&T&S counter lock storms); with callbacks the gap
    # narrows — the Figure 23 story at barrier level.
    inv_gap = (row("Invalidation", "sr")["wait_mean"]
               / row("Invalidation", "dissemination")["wait_mean"])
    cb_gap = (row("CB-All", "sr")["wait_mean"]
              / row("CB-All", "dissemination")["wait_mean"])
    assert cb_gap < inv_gap

    print(rows_to_table(rows, ["wait_mean", "llc_sync", "flit_hops"],
                        title="barrier trio"))
