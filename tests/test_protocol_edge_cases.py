"""Protocol edge cases: directory queuing, concurrent transactions,
policy determinism, fence interactions."""

import pytest

from repro.config import WakePolicy, config_for
from repro.core.machine import Machine
from repro.protocols import ops

from tests.protocol_utils import issue, issue_pending, start

ADDR = 0x4000


class TestMESIQueuing:
    def test_concurrent_getx_serialize(self):
        """Simultaneous stores to one line: the directory's busy/FIFO
        queue serializes them; both commit, final value is one of them."""
        m = Machine(config_for("Invalidation", num_cores=4))
        r0 = start(m, 0, ops.Store(ADDR, 10))
        r1 = start(m, 1, ops.Store(ADDR, 20))
        m.engine.run()
        assert r0.done and r1.done
        assert m.store.read(ADDR) in (10, 20)

    def test_concurrent_reads_while_owned(self):
        """Many readers hitting an M line: each is served via a forward
        chain without deadlock."""
        m = Machine(config_for("Invalidation", num_cores=9))
        issue(m, 0, ops.Store(ADDR, 7))
        results = [start(m, c, ops.Load(ADDR)) for c in range(1, 9)]
        m.engine.run()
        assert all(r.done and r.value == 7 for r in results)

    def test_read_write_interleave_values_sane(self):
        """Interleaved loads/stores never observe a value nobody wrote."""
        m = Machine(config_for("Invalidation", num_cores=4))
        written = {0}
        results = []
        for i in range(1, 6):
            start(m, i % 4, ops.Store(ADDR, i))
            written.add(i)
            results.append(start(m, (i + 1) % 4, ops.Load(ADDR)))
        m.engine.run()
        for r in results:
            assert r.done and r.value in written


class TestVIPSMSHRQueue:
    def test_deep_atomic_queue_drains_fifo(self):
        """Sixteen RMWs from one core reach the home bank in issue order
        while the first holds the word's MSHR lock; the lock hands the
        word on in arrival order, so each old value is its issue rank."""
        m = Machine(config_for("BackOff-10", num_cores=16))
        results = [
            start(m, 0, ops.Atomic(ADDR, ops.AtomicKind.FETCH_ADD, (1,)))
            for _ in range(16)
        ]
        m.engine.run()
        assert m.store.read(ADDR) == 16
        assert [r.value.old for r in results] == list(range(16))

    def test_atomic_and_store_through_coexist(self):
        m = Machine(config_for("BackOff-10", num_cores=4))
        ra = start(m, 0, ops.Atomic(ADDR, ops.AtomicKind.FETCH_ADD, (5,)))
        rs = start(m, 1, ops.StoreThrough(ADDR, 100))
        m.engine.run()
        assert ra.done and rs.done
        assert m.store.read(ADDR) in (105, 100)  # order-dependent, sane


class TestCallbackPolicyDeterminism:
    def test_random_policy_deterministic_per_seed(self):
        def winner(seed):
            m = Machine(config_for("CB-One", num_cores=4, seed=seed,
                                   cb_wake_policy=WakePolicy.RANDOM))
            issue(m, 3, ops.LoadCB(ADDR))
            issue(m, 3, ops.StoreCB0(ADDR, 0))
            parked = {c: issue_pending(m, c, ops.LoadCB(ADDR))
                      for c in range(3)}
            issue(m, 3, ops.StoreCB1(ADDR, 1))
            m.engine.run()
            chosen = [c for c, f in parked.items() if f.done]
            assert len(chosen) == 1
            return chosen[0]

        assert winner(1) == winner(1)
        # Across many seeds the random policy actually varies.
        assert len({winner(s) for s in range(12)}) > 1


class TestFenceInteractions:
    def test_self_invl_then_reload_sees_written_value(self):
        """The acquire pattern: another core writes through, we fence and
        reload — the fresh fill must observe the write."""
        m = Machine(config_for("CB-One", num_cores=4))
        shared = 0x20000
        issue(m, 1, ops.Load(shared))          # classify shared
        issue(m, 0, ops.Load(shared))
        issue(m, 1, ops.StoreThrough(shared, 9))
        issue(m, 0, ops.Fence(ops.FenceKind.SELF_INVL))
        assert issue(m, 0, ops.Load(shared)) == 9

    def test_stale_read_without_fence(self):
        """Self-invalidation's defining behaviour: without the fence a
        cached DRF copy can legitimately go stale."""
        m = Machine(config_for("CB-One", num_cores=4))
        shared = 0x20000
        issue(m, 1, ops.Load(shared))
        issue(m, 0, ops.Load(shared))   # core 0 caches value 0
        issue(m, 1, ops.StoreThrough(shared, 9))
        # No fence: the L1 hit returns the globally-current value in our
        # value model, but crucially costs no coherence traffic and the
        # line is still cached (we assert the *mechanism*: no refetch).
        misses_before = m.stats.l1_misses
        issue(m, 0, ops.Load(shared))
        assert m.stats.l1_misses == misses_before


class TestWordGranularity:
    def test_independent_callbacks_per_word_in_one_line(self):
        """Section 2.2: word granularity allows independent callbacks on
        words of the same cache line."""
        m = Machine(config_for("CB-One", num_cores=4))
        word_a = ADDR
        word_b = ADDR + 8  # same 64B line
        issue(m, 0, ops.LoadCB(word_a))   # consume word_a's initial full
        issue(m, 0, ops.LoadCB(word_b))   # consume word_b's initial full
        fa = issue_pending(m, 0, ops.LoadCB(word_a))
        fb = issue_pending(m, 0, ops.LoadCB(word_b))
        # Waking word_b must not disturb word_a's waiter.
        issue(m, 2, ops.StoreThrough(word_b, 5))
        m.engine.run()
        assert fb.done and fb.value == 5
        assert not fa.done
        issue(m, 2, ops.StoreThrough(word_a, 6))
        m.engine.run()
        assert fa.done and fa.value == 6
