"""The paper's worked examples, step by step.

These tests replay the exact scenarios of Figures 3, 4, 5, and 6 against
the callback directory and assert every intermediate state the paper
draws — the strongest evidence that the mechanism implemented here is
the mechanism described.
"""

from repro.config import config_for
from repro.core.machine import Machine
from repro.protocols import ops

from tests.protocol_utils import issue, issue_pending

ADDR = 0x4000
FULL = 0b1111  # 4 cores


def machine(mode="CB-All"):
    return Machine(config_for(mode, num_cores=4))


def entry(m):
    return m.protocol.cb_dirs[m.protocol.bank_of(ADDR)].lookup(
        m.protocol.addr_map.word_base(ADDR))


class TestFigure3CallbackAll:
    """Figure 3: the callback-all directory entry through six steps."""

    def test_walkthrough(self):
        m = machine("CB-All")

        # Step 1: first callback installs the entry with all F/E full;
        # "all cores read the variable after its callback entry is
        # installed so the starting state of all the bits is 0".
        for core in range(4):
            issue(m, core, ops.LoadCB(ADDR))
        e = entry(m)
        assert e.fe == 0 and e.cb == 0 and e.mode_all

        # Step 2: cores 0 and 2 issue callback reads; they block and set
        # their CB bits.
        fut0 = issue_pending(m, 0, ops.LoadCB(ADDR))
        fut2 = issue_pending(m, 2, ops.LoadCB(ADDR))
        e = entry(m)
        assert not fut0.done and not fut2.done
        assert e.cb == 0b0101
        assert e.fe == 0

        # Step 3: core 3 writes; both callbacks are activated, two wakeup
        # messages carry the new value; the F/E bits of the cores that
        # did NOT have a callback are set to full.
        issue(m, 3, ops.StoreThrough(ADDR, 42))
        m.engine.run()
        assert fut0.done and fut0.value == 42
        assert fut2.done and fut2.value == 42
        e = entry(m)
        assert e.cb == 0
        assert e.fe == 0b1010  # cores 1 and 3 full; 0 and 2 consumed

        # Step 4: core 1 issues a callback, finds its F/E bit full,
        # consumes the value, leaves both bits unset.
        assert issue(m, 1, ops.LoadCB(ADDR)) == 42
        e = entry(m)
        assert e.fe == 0b1000  # only core 3 still full
        assert e.cb == 0

        # Step 5: replacement with a callback set: the evicted entry's
        # waiters are answered with the current value.
        m2 = Machine(config_for("CB-All", num_cores=4,
                                cb_entries_per_bank=1))
        for core in range(4):
            issue(m2, core, ops.LoadCB(ADDR))
        parked = issue_pending(m2, 0, ops.LoadCB(ADDR))
        m2.store.write(ADDR, 7)  # the "current value" at eviction time
        other = ADDR + m2.config.line_bytes * m2.config.num_banks
        issue(m2, 2, ops.LoadCB(other))  # forces the eviction
        m2.engine.run()
        assert parked.done and parked.value == 7

        # Step 6: a new entry created after the loss starts over: all
        # F/E full, no callbacks.
        issue(m2, 1, ops.LoadCB(ADDR))  # re-install
        e2 = m2.protocol.cb_dirs[m2.protocol.bank_of(ADDR)].lookup(
            m2.protocol.addr_map.word_base(ADDR))
        assert e2.cb == 0
        # Core 1 just consumed its (freshly full) bit; the rest are full.
        assert e2.fe == FULL & ~0b0010


class TestFigure4CallbackOne:
    """Figure 4: lock-optimized callback with write_CB1."""

    def test_walkthrough(self):
        m = machine("CB-One")

        # Reach step 1: A/O = One with all F/E bits full. A st_cb1 with
        # no waiters produces exactly this state.
        issue(m, 0, ops.LoadCB(ADDR))      # install
        issue(m, 0, ops.StoreCB1(ADDR, 0))  # -> One mode, F/E all full
        e = entry(m)
        assert not e.mode_all
        assert e.fe == FULL

        # Step 2: core 2 reads the lock; ALL the F/E bits empty at once.
        assert issue(m, 2, ops.LoadCB(ADDR)) == 0
        e = entry(m)
        assert e.fe == 0

        # Steps 3-5: cores 0, 1, 3 must set callbacks and wait.
        futures = {c: issue_pending(m, c, ops.LoadCB(ADDR))
                   for c in (0, 1, 3)}
        e = entry(m)
        assert e.cb == 0b1011
        assert not any(f.done for f in futures.values())

        # Step 6: core 2 releases with write_CB1: exactly one waiter is
        # woken; the F/E bits are left undisturbed (all empty).
        issue(m, 2, ops.StoreCB1(ADDR, 0))
        m.engine.run()
        woken = [c for c, f in futures.items() if f.done]
        assert len(woken) == 1
        e = entry(m)
        assert e.fe == 0  # step 9's "undisturbed, set to empty"
        assert bin(e.cb).count("1") == 2

    def test_round_robin_hand_off_order(self):
        """Figure 4's arrival order 2,0,1,3 services in order 2,3,0,1
        under the pseudo-random round-robin policy (scan upward from the
        pointer, wrap at the highest id)."""
        m = machine("CB-One")
        issue(m, 0, ops.LoadCB(ADDR))
        issue(m, 0, ops.StoreCB1(ADDR, 0))  # One mode, full
        # Core 2 consumes (gets the lock).
        issue(m, 2, ops.LoadCB(ADDR))
        e = entry(m)
        e.state["rr"] = 3  # the paper's example starts its scan at core 3
        # Cores 0, 1, 3 park (arrival order 0, 1, 3).
        futures = {c: issue_pending(m, c, ops.LoadCB(ADDR))
                   for c in (0, 1, 3)}
        order = []
        for _ in range(3):
            issue(m, 2, ops.StoreCB1(ADDR, 0))
            m.engine.run()
            newly = [c for c, f in futures.items()
                     if f.done and c not in order]
            order.extend(newly)
        assert order == [3, 0, 1]  # 2 already ran: full order 2,3,0,1


class TestFigures5And6RMW:
    """Figures 5/6: premature wakeups with write_CB1 vs write_CB0."""

    def _take_lock_then_park_two(self, m):
        """Core 2 takes the lock; cores 3 and 0 park their callback
        T&S RMWs (arrival order 3 then 0, as in the figures)."""
        r = issue(m, 2, ops.Atomic(ADDR, ops.AtomicKind.TAS, (0, 1),
                                   ld=ops.LdKind.CB, st=ops.StKind.CB0))
        assert r.success
        futures = {}
        for core in (3, 0):
            futures[core] = issue_pending(
                m, core, ops.Atomic(ADDR, ops.AtomicKind.TAS, (0, 1),
                                    ld=ops.LdKind.CB, st=ops.StKind.CB0))
        assert not any(f.done for f in futures.values())
        return futures

    def test_figure5_write_cb1_wakes_prematurely(self):
        """If the acquiring RMW wrote with write_CB1 it would wake core 3
        only for its T&S to fail — the wasted turn of Figure 5."""
        m = machine("CB-One")
        # Install; a waiter-less st_cb1 leaves One mode with F/E full,
        # so core 2's acquiring RMW can consume (Figure 5 step 1).
        issue(m, 1, ops.LoadCB(ADDR))
        issue(m, 1, ops.StoreCB1(ADDR, 0))
        # Core 2 acquires with st_cb1 (the Figure 5 mistake).
        r = issue(m, 2, ops.Atomic(ADDR, ops.AtomicKind.TAS, (0, 1),
                                   ld=ops.LdKind.CB, st=ops.StKind.CB1))
        assert r.success
        fut3 = issue_pending(m, 3, ops.Atomic(ADDR, ops.AtomicKind.TAS,
                                              (0, 1), ld=ops.LdKind.CB,
                                              st=ops.StKind.CB1))
        # Wait: core 3 parks only if nothing woke it... park happens
        # because the lock write used st_cb1 with no waiters yet ->
        # F/E full -> core 3's RMW consumes and FAILS immediately
        # (the premature wakeup): its T&S returns failure.
        m.engine.run()
        assert fut3.done
        assert fut3.value.success is False  # lost its turn (Figure 5)

    def test_figure6_write_cb0_avoids_premature_wakeups(self):
        """With write_CB0 in the RMW, parked acquires stay asleep until
        the release, and the hand-off wastes no turns."""
        m = machine("CB-One")
        issue(m, 1, ops.LoadCB(ADDR))
        issue(m, 1, ops.StoreCB1(ADDR, 0))  # One mode, F/E full
        futures = self._take_lock_then_park_two(m)

        # The successful acquire (st_cb0) woke nobody.
        assert not any(f.done for f in futures.values())

        # Release with write_CB1: exactly one parked RMW executes, and it
        # succeeds (no wasted turns).
        issue(m, 2, ops.StoreCB1(ADDR, 0))
        m.engine.run()
        done = [c for c, f in futures.items() if f.done]
        assert len(done) == 1
        assert futures[done[0]].value.success is True
        # The winner's own st_cb0 again woke nobody.
        remaining = [c for c in futures if c not in done]
        assert not futures[remaining[0]].done
