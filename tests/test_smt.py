"""SMT (threads_per_core > 1): footnote 5's per-thread callback bits.

With SMT, hardware threads of one core share its L1 and mesh tile, but
the callback directory tracks F/E + CB bits per *thread* — two siblings
can independently park on the same word.
"""

import pytest

from repro.config import config_for
from repro.core.machine import Machine
from repro.protocols import ops
from repro.protocols.ops import Compute
from repro.sync import make_barrier, make_lock, style_for
from repro.workloads.microbench import BarrierMicrobench, LockMicrobench
from repro.harness.runner import run_workload
from repro.workloads.suite import get_workload

from tests.protocol_utils import issue, issue_pending

ADDR = 0x4000


def smt_machine(label="CB-One", cores=4, tpc=2):
    return Machine(config_for(label, num_cores=cores, threads_per_core=tpc))


class TestConfig:
    def test_num_threads(self):
        cfg = config_for("CB-One", num_cores=4, threads_per_core=2)
        assert cfg.num_threads == 8
        assert cfg.core_of(0) == 0
        assert cfg.core_of(1) == 0
        assert cfg.core_of(7) == 3

    def test_invalid_tpc(self):
        with pytest.raises(ValueError):
            config_for("CB-One", num_cores=4, threads_per_core=0)


class TestSharedL1:
    def test_sibling_fill_is_a_hit(self):
        """Thread 1 hits on the line its sibling (thread 0) filled."""
        m = smt_machine("Invalidation")
        issue(m, 0, ops.Load(ADDR))
        misses = m.stats.l1_misses
        issue(m, 1, ops.Load(ADDR))  # same core (tids 0,1 -> core 0)
        assert m.stats.l1_misses == misses

    def test_non_sibling_still_misses(self):
        m = smt_machine("Invalidation")
        issue(m, 0, ops.Load(ADDR))
        misses = m.stats.l1_misses
        issue(m, 2, ops.Load(ADDR))  # core 1
        assert m.stats.l1_misses == misses + 1

    def test_sibling_store_no_invalidation(self):
        """Writes between SMT siblings stay within one L1 (no Inv)."""
        m = smt_machine("Invalidation")
        issue(m, 0, ops.Load(ADDR))
        inv = m.stats.invalidations_sent
        issue(m, 1, ops.Store(ADDR, 5))
        assert m.stats.invalidations_sent == inv


class TestPerThreadCallbackBits:
    def test_entry_sized_by_threads(self):
        m = smt_machine("CB-One", cores=4, tpc=2)
        issue(m, 0, ops.LoadCB(ADDR))
        entry = m.protocol.cb_dirs[m.protocol.bank_of(ADDR)].lookup(
            m.protocol.addr_map.word_base(ADDR))
        assert entry.num_cores == 8  # bits per hardware thread

    def test_siblings_park_independently(self):
        """Both threads of core 0 can hold callbacks on one word."""
        m = smt_machine("CB-All", cores=4, tpc=2)
        for tid in range(8):
            issue(m, tid, ops.LoadCB(ADDR))  # drain all F/E bits
        fut0 = issue_pending(m, 0, ops.LoadCB(ADDR))
        fut1 = issue_pending(m, 1, ops.LoadCB(ADDR))  # sibling of 0
        assert not fut0.done and not fut1.done
        issue(m, 7, ops.StoreThrough(ADDR, 3))
        m.engine.run()
        assert fut0.done and fut1.done

    def test_sibling_spin_watchers_both_wake(self):
        """MESI: two siblings spinning on one line both wake on Inv."""
        m = smt_machine("Invalidation", cores=4, tpc=2)
        f0 = issue_pending(m, 0, ops.SpinUntil(ADDR, lambda v: v == 1))
        f1 = issue_pending(m, 1, ops.SpinUntil(ADDR, lambda v: v == 1))
        assert not f0.done and not f1.done
        issue(m, 4, ops.Store(ADDR, 1))  # core 2 writes
        m.engine.run()
        assert f0.done and f1.done


LABELS = ("Invalidation", "BackOff-10", "CB-All", "CB-One")


@pytest.mark.parametrize("label", LABELS)
class TestSMTCorrectness:
    def test_lock_mutual_exclusion_with_smt(self, label):
        cfg = config_for(label, num_cores=4, threads_per_core=2)
        machine = Machine(cfg)
        lock = make_lock("ttas", style_for(cfg))
        lock.setup(machine.layout, cfg.num_threads)
        for addr, value in lock.initial_values().items():
            machine.store.write(addr, value)
        counter = machine.layout.alloc_sync_word()

        def body(ctx):
            for _ in range(3):
                yield from lock.acquire(ctx)
                value = machine.store.read(counter)
                yield Compute(8)
                machine.store.write(counter, value + 1)
                yield from lock.release(ctx)

        machine.spawn([body] * 8)
        machine.run()
        assert machine.store.read(counter) == 24

    def test_barrier_with_smt(self, label):
        cfg = config_for(label, num_cores=4, threads_per_core=2)
        machine = Machine(cfg)
        barrier = make_barrier("treesr", style_for(cfg), 8)
        barrier.setup(machine.layout, 8)
        for addr, value in barrier.initial_values().items():
            machine.store.write(addr, value)
        arrived = [0] * 3
        ok = []

        def body(ctx):
            for k in range(3):
                yield Compute(1 + ctx.rng.randrange(60))
                arrived[k] += 1
                yield from barrier.wait(ctx)
                ok.append(arrived[k] == 8)

        machine.spawn([body] * 8)
        machine.run()
        assert all(ok)


class TestSpinWatchEviction:
    def test_evicted_watched_line_wakes_spinner(self):
        """A sibling's fill can evict the line a SpinUntil is parked on.
        An E victim sends PutE, which clears ownership, so no
        invalidation ever comes: the eviction itself must wake the
        spinner (this run used to raise DeadlockError)."""
        machine = Machine(config_for("Invalidation", num_cores=9, seed=1,
                                     threads_per_core=2,
                                     l1_size_bytes=2048))
        get_workload("barnes", "clh", "treesr", 0.1).install(machine)
        machine.run()
        assert machine.protocol.parked_cores() == 0


class TestSMTWorkloads:
    def test_microbenchmarks_use_all_threads(self):
        cfg = config_for("CB-One", num_cores=4, threads_per_core=2)
        result = run_workload(cfg, BarrierMicrobench("sr", episodes=2))
        assert len(result.stats.episode_latencies["barrier_wait"]) == 8 * 2

    def test_smt_vs_single_thread_same_work(self):
        """8 threads on 4 SMT cores do the same lock work as 8 on 8."""
        smt = run_workload(
            config_for("CB-One", num_cores=4, threads_per_core=2),
            LockMicrobench("ttas", iterations=3))
        flat = run_workload(
            config_for("CB-One", num_cores=16, threads_per_core=1),
            LockMicrobench("ttas", iterations=3))
        assert len(smt.stats.episode_latencies["lock_acquire"]) == 8 * 3
        assert len(flat.stats.episode_latencies["lock_acquire"]) == 16 * 3
