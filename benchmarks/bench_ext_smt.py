"""Extension: SMT cores (footnote 5 of the paper).

With ``threads_per_core > 1`` the callback directory's F/E + CB bits are
per hardware thread ("this can optionally be extended to the number of
threads for multi-threaded cores"). This bench runs the contended-lock
microbenchmark on an SMT machine and checks the callback advantage
survives: per-thread bits let siblings park independently.
"""

from repro.config import config_for
from repro.harness.runner import run_workload
from repro.workloads.microbench import LockMicrobench


def test_smt_callback_advantage(benchmark):
    def sweep():
        out = {}
        for label in ("Invalidation", "BackOff-0", "CB-One"):
            cfg = config_for(label, num_cores=16, threads_per_core=2)
            out[label] = run_workload(cfg, LockMicrobench("ttas",
                                                          iterations=4))
        return out

    out = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # 32 hardware threads hammered the lock; all work completed.
    for result in out.values():
        assert len(result.stats.episode_latencies["lock_acquire"]) == 32 * 4
    # The callback system still wins traffic and LLC sync accesses.
    assert out["CB-One"].traffic < out["Invalidation"].traffic
    assert out["CB-One"].llc_sync < out["BackOff-0"].llc_sync
    # And parked siblings actually used per-thread bits (blocked reads
    # from more threads than cores).
    assert out["CB-One"].stats.cb_blocked_reads > 16
