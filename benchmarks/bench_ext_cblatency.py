"""Extension: callback-directory access latency sensitivity.

Table 2 gives the 4-entry directory a 1-cycle access. A skeptic might
ask whether the results depend on that aggressive number — a wider CAM
or a further placement could cost several cycles. This sweep shows the
callback advantage is insensitive to it: the directory is consulted
once per parked read (not per spin iteration), so even 8 cycles per
access is noise against the round trips it eliminates.
"""

from benchmarks.conftest import BENCH_CORES, BENCH_ITERS
from repro.harness.runner import run_config
from repro.workloads.microbench import LockMicrobench


def test_cb_latency_sensitivity(benchmark):
    def sweep():
        out = {}
        for latency in (1, 2, 4, 8):
            out[latency] = run_config(
                "CB-One", LockMicrobench("ttas", iterations=BENCH_ITERS),
                num_cores=BENCH_CORES, cb_latency=latency)
        out["backoff"] = run_config(
            "BackOff-10", LockMicrobench("ttas", iterations=BENCH_ITERS),
            num_cores=BENCH_CORES)
        return out

    out = benchmark.pedantic(sweep, rounds=1, iterations=1)
    slowest_cb = max(out[lat].cycles for lat in (1, 2, 4, 8))
    fastest_cb = min(out[lat].cycles for lat in (1, 2, 4, 8))
    # 8x the directory latency moves completion time by only a few %.
    assert slowest_cb <= fastest_cb * 1.10
    # And even the slowest callback directory beats back-off spinning on
    # LLC accesses.
    assert (out[8].llc_sync < out["backoff"].llc_sync)
    for latency in (1, 2, 4, 8):
        print(f"cb_latency={latency}: cycles={out[latency].cycles} "
              f"llc_sync={out[latency].llc_sync}")
