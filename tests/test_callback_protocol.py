"""The callback protocol: ld_cb blocking, write variants, evictions,
held-off RMWs, and the paper's 3-message claim."""

import pytest

from repro.config import WakePolicy, config_for
from repro.core.machine import Machine
from repro.protocols import ops

from tests.protocol_utils import issue, issue_pending

ADDR = 0x4000


def machine(cores=4, **overrides):
    return Machine(config_for("CB-One", num_cores=cores, **overrides))


def cb_dir(m, addr=ADDR):
    return m.protocol.cb_dirs[m.protocol.bank_of(addr)]


def entry(m, addr=ADDR):
    return cb_dir(m, addr).lookup(m.protocol.addr_map.word_base(addr))


class TestLdCb:
    def test_first_ld_cb_installs_and_consumes(self):
        m = machine()
        m.store.write(ADDR, 5)
        assert issue(m, 0, ops.LoadCB(ADDR)) == 5
        assert m.stats.cb_installs == 1
        assert m.stats.cb_immediate_reads == 1
        e = entry(m)
        assert e is not None and not e.fe_full(0)

    def test_second_ld_cb_blocks(self):
        m = machine()
        issue(m, 0, ops.LoadCB(ADDR))
        fut = issue_pending(m, 0, ops.LoadCB(ADDR))
        assert not fut.done
        assert m.stats.cb_blocked_reads == 1

    def test_write_after_block_wakes_with_new_value(self):
        m = machine()
        issue(m, 0, ops.LoadCB(ADDR))
        fut = issue_pending(m, 0, ops.LoadCB(ADDR))
        issue(m, 1, ops.StoreThrough(ADDR, 42))
        m.engine.run()
        assert fut.done and fut.value == 42
        assert m.stats.cb_wakeups == 1

    def test_write_before_read_is_consumed(self):
        """A callback can consume a write that precedes it (Section 2.1)."""
        m = machine()
        issue(m, 0, ops.LoadCB(ADDR))           # install + consume initial
        issue(m, 1, ops.StoreThrough(ADDR, 7))  # wakes nobody, fills F/E
        assert issue(m, 0, ops.LoadCB(ADDR)) == 7  # completes immediately

    def test_blocked_read_performs_no_llc_access(self):
        m = machine()
        issue(m, 0, ops.LoadCB(ADDR))
        before = m.stats.llc_accesses
        fut = issue_pending(m, 0, ops.LoadCB(ADDR))
        assert not fut.done
        assert m.stats.llc_accesses == before


class TestWriteVariants:
    def _park_three(self, m):
        """Install an entry, drain F/E, park cores 0..2."""
        issue(m, 3, ops.LoadCB(ADDR))
        issue(m, 3, ops.StoreCB0(ADDR, 0))  # One mode, all F/E empty
        return [issue_pending(m, c, ops.LoadCB(ADDR)) for c in range(3)]

    def test_store_through_wakes_all(self):
        m = machine()
        futures = self._park_three(m)
        issue(m, 3, ops.StoreThrough(ADDR, 1))
        m.engine.run()
        assert all(f.done and f.value == 1 for f in futures)
        assert entry(m).mode_all is True

    def test_store_cb1_wakes_exactly_one(self):
        m = machine()
        futures = self._park_three(m)
        issue(m, 3, ops.StoreCB1(ADDR, 1))
        m.engine.run()
        assert sum(f.done for f in futures) == 1
        issue(m, 3, ops.StoreCB1(ADDR, 2))
        m.engine.run()
        assert sum(f.done for f in futures) == 2

    def test_store_cb0_wakes_nobody(self):
        m = machine()
        futures = self._park_three(m)
        issue(m, 3, ops.StoreCB0(ADDR, 1))
        m.engine.run()
        assert not any(f.done for f in futures)
        # A subsequent cbA write releases them all.
        issue(m, 3, ops.StoreThrough(ADDR, 2))
        m.engine.run()
        assert all(f.done for f in futures)

    def test_cb1_without_waiters_fills_in_unison(self):
        m = machine()
        issue(m, 0, ops.LoadCB(ADDR))
        issue(m, 1, ops.StoreCB1(ADDR, 9))
        e = entry(m)
        assert e.mode_all is False
        assert e.fe == e.full_mask
        # Exactly one future read consumes it...
        assert issue(m, 2, ops.LoadCB(ADDR)) == 9
        # ...and the next blocks.
        fut = issue_pending(m, 3, ops.LoadCB(ADDR))
        assert not fut.done

    def test_writes_do_not_install_entries(self):
        m = machine()
        issue(m, 0, ops.StoreThrough(ADDR, 1))
        issue(m, 0, ops.StoreCB1(ADDR, 2))
        issue(m, 0, ops.StoreCB0(ADDR, 3))
        assert entry(m) is None
        assert m.stats.cb_installs == 0

    def test_ld_through_consumes_but_does_not_install(self):
        m = machine()
        # No entry: ld_through leaves the directory empty.
        issue(m, 0, ops.LoadThrough(ADDR))
        assert entry(m) is None
        # With an entry: Table 1 says ld_through resets the F/E bit.
        issue(m, 1, ops.LoadCB(ADDR))
        issue(m, 2, ops.StoreThrough(ADDR, 5))  # F/E full for non-waiters
        issue(m, 0, ops.LoadThrough(ADDR))
        assert entry(m).fe_full(0) is False


class TestCallbackAll:
    def test_all_waiters_share_one_write(self):
        m = Machine(config_for("CB-All", num_cores=4))
        issue(m, 3, ops.LoadCB(ADDR))
        futures = [issue_pending(m, c, ops.LoadCB(ADDR)) for c in range(3)]
        # In All mode cores 0..2 consumed their own F/E on first touch?
        # No: only core 3 installed; cores 0..2 had full bits, so they
        # consumed immediately. Issue a second round, which blocks.
        m.engine.run()
        blocked = [issue_pending(m, c, ops.LoadCB(ADDR)) for c in range(4)]
        assert not any(f.done for f in blocked)
        issue(m, 3, ops.StoreThrough(ADDR, 8))
        m.engine.run()
        # The writer satisfies every parked callback in bulk (Figure 3).
        for f in blocked[:3]:
            assert f.done and f.value == 8


class TestEviction:
    def test_eviction_answers_waiters_with_current_value(self):
        """Section 2.3.1: replacement wakes callbacks with the old value."""
        m = machine(cb_entries_per_bank=1)
        issue(m, 0, ops.LoadCB(ADDR))
        issue(m, 0, ops.StoreCB0(ADDR, 77))  # all F/E empty, value 77
        fut = issue_pending(m, 1, ops.LoadCB(ADDR))  # parked
        assert not fut.done
        # A callback read to a different word in the same bank evicts.
        other = ADDR + m.config.line_bytes * m.config.num_banks
        assert m.protocol.bank_of(other) == m.protocol.bank_of(ADDR)
        issue(m, 2, ops.LoadCB(other))
        m.engine.run()
        assert fut.done and fut.value == 77
        assert m.stats.cb_evictions == 1
        assert m.stats.cb_eviction_wakeups == 1

    def test_reinstalled_entry_is_fresh(self):
        m = machine(cb_entries_per_bank=1)
        issue(m, 0, ops.LoadCB(ADDR))
        other = ADDR + m.config.line_bytes * m.config.num_banks
        issue(m, 2, ops.LoadCB(other))  # evicts ADDR's entry
        m.store.write(ADDR, 5)
        # Re-read: fresh entry, F/E full again (Figure 3 step 6).
        assert issue(m, 0, ops.LoadCB(ADDR)) == 5


class TestAtomicsWithCallbacks:
    def test_rmw_held_in_directory(self):
        """Section 2.6/Figure 6: a callback T&S waits for the release."""
        m = machine()
        issue(m, 0, ops.LoadCB(ADDR))
        issue(m, 0, ops.StoreCB0(ADDR, 1))  # lock "taken", F/E empty
        fut = issue_pending(m, 1, ops.Atomic(ADDR, ops.AtomicKind.TAS,
                                             (0, 1), ld=ops.LdKind.CB,
                                             st=ops.StKind.CB0))
        assert not fut.done  # held off in the callback directory
        issue(m, 0, ops.StoreCB1(ADDR, 0))  # release
        m.engine.run()
        assert fut.done
        assert fut.value.success is True
        assert m.store.read(ADDR) == 1  # lock re-taken by core 1

    def test_failed_rmw_wakes_nobody(self):
        """A failed T&S writes nothing, so it must not service callbacks."""
        m = machine()
        issue(m, 3, ops.LoadCB(ADDR))
        issue(m, 3, ops.StoreCB0(ADDR, 1))  # taken
        parked = issue_pending(m, 1, ops.LoadCB(ADDR))
        # A plain-ld T&S fails (lock == 1): no write, no wakeups.
        r = issue(m, 2, ops.Atomic(ADDR, ops.AtomicKind.TAS, (0, 1),
                                   st=ops.StKind.CB0))
        assert r.success is False
        assert not parked.done

    def test_successful_rmw_st_cb1_wakes_one(self):
        m = machine()
        issue(m, 3, ops.LoadCB(ADDR))
        issue(m, 3, ops.StoreCB0(ADDR, 0))  # One mode, empty
        parked = [issue_pending(m, c, ops.LoadCB(ADDR)) for c in (0, 1)]
        r = issue(m, 2, ops.Atomic(ADDR, ops.AtomicKind.FETCH_ADD, (1,),
                                   st=ops.StKind.CB1))
        assert r.success
        m.engine.run()
        assert sum(f.done for f in parked) == 1


class TestMessageCount:
    def test_communicating_a_value_costs_three_messages(self):
        """Section 2.1: {callback, write, data} — plus only the writer's
        own ack, which the paper's count likewise excludes."""
        m = machine()
        issue(m, 0, ops.LoadCB(ADDR))  # install + consume
        fut = issue_pending(m, 0, ops.LoadCB(ADDR))  # parked
        before = dict(m.stats.msg_kinds)
        issue(m, 1, ops.StoreThrough(ADDR, 1))
        m.engine.run()
        assert fut.done
        delta = {k: m.stats.msg_kinds[k] - before.get(k, 0)
                 for k in m.stats.msg_kinds}
        delta = {k: v for k, v in delta.items() if v}
        assert delta == {
            "StThru": 1,  # write
            "Wakeup": 1,  # data
            "Ack": 1,     # writer's own completion (excluded by the paper)
        }
        # callback (sent before the write) + write + data = 3.
        attributable = 1 + delta["StThru"] + delta["Wakeup"]
        assert attributable == 3

    def test_callback_strictly_cheaper_than_invalidation(self):
        """The end-to-end comparison behind Figure 1."""
        # Callback side: 4 wire messages total (incl. parked LdCB & ack).
        m_cb = machine()
        issue(m_cb, 0, ops.LoadCB(ADDR))
        base = m_cb.stats.messages
        fut = issue_pending(m_cb, 0, ops.LoadCB(ADDR))
        issue(m_cb, 1, ops.StoreThrough(ADDR, 1))
        m_cb.engine.run()
        assert fut.done
        cb_msgs = m_cb.stats.messages - base

        m_inv = Machine(config_for("Invalidation", num_cores=4))
        issue(m_inv, 0, ops.Load(ADDR))
        issue(m_inv, 2, ops.Load(ADDR))
        fut = issue_pending(m_inv, 0, ops.SpinUntil(ADDR, lambda v: v == 1))
        base = m_inv.stats.messages
        issue(m_inv, 1, ops.Store(ADDR, 1))
        m_inv.engine.run()
        assert fut.done
        inv_msgs = m_inv.stats.messages - base

        assert cb_msgs < inv_msgs


class TestWakePolicies:
    @pytest.mark.parametrize("policy", list(WakePolicy))
    def test_every_policy_wakes_exactly_one(self, policy):
        m = machine(cb_wake_policy=policy)
        issue(m, 3, ops.LoadCB(ADDR))
        issue(m, 3, ops.StoreCB0(ADDR, 0))
        parked = [issue_pending(m, c, ops.LoadCB(ADDR)) for c in range(3)]
        issue(m, 3, ops.StoreCB1(ADDR, 1))
        m.engine.run()
        assert sum(f.done for f in parked) == 1
