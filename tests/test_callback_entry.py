"""The callback directory entry state machine (Section 2.3/2.4/2.5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import WakePolicy
from repro.protocols.callback.entry import CBEntry, Waiter

N = 4
FULL = (1 << N) - 1


def entry():
    return CBEntry(word=0x100, num_cores=N)


def waiter(core):
    return Waiter(core, wake=lambda v: None, since=0)


class TestInitialization:
    def test_starts_full_no_callbacks_all_mode(self):
        e = entry()
        assert e.fe == FULL
        assert e.cb == 0
        assert e.mode_all is True

    def test_park_records_word(self):
        e = entry()
        w = waiter(1)
        e.park(w)
        assert w.word == 0x100


class TestAllMode:
    def test_first_read_consumes_own_bit(self):
        e = entry()
        assert e.try_consume(2) is True
        assert e.fe == FULL & ~(1 << 2)

    def test_second_read_blocks(self):
        e = entry()
        e.try_consume(2)
        assert e.try_consume(2) is False

    def test_reads_are_per_core(self):
        e = entry()
        e.try_consume(0)
        assert e.try_consume(1) is True  # core 1's bit untouched

    def test_write_all_wakes_everyone_and_fills_others(self):
        """Figure 3 step 3: waiters consume, non-waiters get F/E full."""
        e = entry()
        for c in range(N):
            e.try_consume(c)
        e.park(waiter(0))
        e.park(waiter(2))
        woken = e.write_all()
        assert sorted(w.core for w in woken) == [0, 2]
        assert e.cb == 0
        # cores 1,3 (no callback) full; cores 0,2 consumed (empty)
        assert e.fe == (1 << 1) | (1 << 3)
        assert e.mode_all is True

    def test_consume_after_write_all(self):
        """Figure 3 step 4: a later read by a non-waiter consumes."""
        e = entry()
        for c in range(N):
            e.try_consume(c)
        e.park(waiter(0))
        e.write_all()
        assert e.try_consume(1) is True
        assert e.try_consume(0) is False  # already consumed via callback


class TestOneMode:
    def _one_mode_entry(self):
        e = entry()
        e.write_one(WakePolicy.ROUND_ROBIN, lambda n: 0)  # no waiters
        return e

    def test_write_one_without_waiters_fills_all(self):
        e = self._one_mode_entry()
        assert e.mode_all is False
        assert e.fe == FULL

    def test_one_mode_read_consumes_all_bits(self):
        """Figure 4 step 2: a read empties every F/E bit at once."""
        e = self._one_mode_entry()
        assert e.try_consume(2) is True
        assert e.fe == 0

    def test_one_mode_second_reader_blocks(self):
        e = self._one_mode_entry()
        e.try_consume(2)
        for core in (0, 1, 3):
            assert e.try_consume(core) is False

    def test_write_one_wakes_exactly_one(self):
        e = self._one_mode_entry()
        e.try_consume(2)
        for core in (0, 1, 3):
            e.park(waiter(core))
        woken = e.write_one(WakePolicy.ROUND_ROBIN, lambda n: 0)
        assert woken is not None
        assert bin(e.cb).count("1") == 2
        # Figure 4 step 9: F/E left undisturbed (empty).
        assert e.fe == 0

    def test_round_robin_order(self):
        """Paper policy: scan upward from the pointer, wrap at top."""
        e = self._one_mode_entry()
        e.try_consume(0)
        for core in (3, 1, 0, 2):
            e.park(waiter(core))
        order = []
        for _ in range(4):
            order.append(e.write_one(WakePolicy.ROUND_ROBIN,
                                     lambda n: 0).core)
        assert order == [0, 1, 2, 3]

    def test_fifo_policy(self):
        e = self._one_mode_entry()
        e.try_consume(0)
        for core in (3, 1, 2):
            e.park(waiter(core))
        assert e.write_one(WakePolicy.FIFO, lambda n: 0).core == 3
        assert e.write_one(WakePolicy.FIFO, lambda n: 0).core == 1

    def test_write_zero_wakes_nobody_and_empties(self):
        """Section 2.5: st_cb0 must not wake premature waiters."""
        e = entry()
        e.park(waiter(1))
        e.write_zero()
        assert e.mode_all is False
        assert e.fe == 0
        assert e.cb == (1 << 1)  # waiter still parked


class TestEviction:
    def test_evict_returns_all_waiters(self):
        e = entry()
        for c in range(N):
            e.try_consume(c)
        e.park(waiter(1))
        e.park(waiter(3))
        woken = e.evict()
        assert sorted(w.core for w in woken) == [1, 3]
        assert e.cb == 0

    def test_double_park_is_a_bug(self):
        e = entry()
        e.park(waiter(1))
        with pytest.raises(RuntimeError, match="already has a callback"):
            e.park(waiter(1))


class TestStateMachineProperty:
    """Random op sequences must preserve structural invariants."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["consume", "park", "write_all", "write_one",
                         "write_zero", "evict"]),
        st.integers(0, N - 1)), max_size=60))
    def test_invariants(self, ops):
        e = entry()
        for op, core in ops:
            fe_before = e.fe
            cb_before = e.cb
            woke = None
            if op == "consume":
                if not (e.cb & (1 << core)):
                    e.try_consume(core)
            elif op == "park":
                if not (e.cb & (1 << core)):
                    e.park(waiter(core))
            elif op == "write_all":
                e.write_all()
            elif op == "write_one":
                woke = e.write_one(WakePolicy.ROUND_ROBIN, lambda n: 0)
            elif op == "write_zero":
                e.write_zero()
            elif op == "evict":
                e.evict()
            # CB bits exactly mirror the waiter table.
            waiters_mask = 0
            for c in e.waiters:
                waiters_mask |= 1 << c
            assert e.cb == waiters_mask
            assert sorted(e.arrival) == sorted(e.waiters)
            # Bit vectors stay within range.
            assert 0 <= e.fe <= FULL
            assert 0 <= e.cb <= FULL
            # write_zero empties F/E; write_one with no waiters fills it
            # in unison; write_one that wakes a waiter leaves F/E
            # undisturbed (Figure 4 step 9).
            if op == "write_zero":
                assert e.fe == 0
            elif op == "write_one":
                assert e.fe == (fe_before if woke is not None else FULL)
            # write_all wakes every waiter and fills exactly the F/E bits
            # of the cores that did not have a callback (Figure 3 step 3).
            elif op == "write_all":
                assert e.cb == 0
                assert e.fe == FULL & ~cb_before
