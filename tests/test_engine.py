"""Discrete-event engine: ordering, determinism, watchdog."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import NO_LIMIT, Engine, SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(30, lambda: fired.append("c"))
        engine.schedule(10, lambda: fired.append("a"))
        engine.schedule(20, lambda: fired.append("b"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_same_cycle_fifo_tiebreak(self):
        engine = Engine()
        fired = []
        for i in range(10):
            engine.schedule(5, lambda i=i: fired.append(i))
        engine.run()
        assert fired == list(range(10))

    def test_clock_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(42, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [42]
        assert engine.now == 42

    def test_zero_delay_runs_same_cycle(self):
        engine = Engine()
        seen = []
        engine.schedule(7, lambda: engine.schedule(0, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [7]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().schedule(-1, lambda: None)

    def test_schedule_at_absolute(self):
        engine = Engine()
        seen = []
        engine.schedule_at(100, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [100]

    def test_schedule_at_past_rejected(self):
        engine = Engine()
        engine.schedule(10, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule_at(5, lambda: None)

    def test_nested_scheduling(self):
        engine = Engine()
        fired = []
        engine.schedule(1, lambda: (fired.append(engine.now),
                                    engine.schedule(5, lambda: fired.append(engine.now))))
        engine.run()
        assert fired == [1, 6]


class TestRunControls:
    def test_run_until_stops_before_later_events(self):
        engine = Engine()
        fired = []
        engine.schedule(5, lambda: fired.append(5))
        engine.schedule(50, lambda: fired.append(50))
        engine.run(until=10)
        assert fired == [5]
        assert engine.pending == 1

    def test_watchdog_raises(self):
        engine = Engine()

        def rearm():
            engine.schedule(1, rearm)

        engine.schedule(1, rearm)
        with pytest.raises(SimulationError, match="watchdog"):
            engine.run(max_events=100)

    def test_step_on_empty_returns_false(self):
        assert Engine().step() is False

    def test_run_returns_event_count(self):
        engine = Engine()
        for _ in range(5):
            engine.schedule(1, lambda: None)
        assert engine.run() == 5


class _LogRunner:
    """A minimal spin runner: each spin-heap entry logs its phase."""

    def __init__(self, engine, log):
        self.engine = engine
        self.log = log
        self.runner = self  # the spin record and its runner in one

    @staticmethod
    def spin_label(phase):
        return f"spin.{phase}"

    def step_spin(self):
        self.run_spins(NO_LIMIT, 1, 0)

    def run_spins(self, stop_time, stop_events, executed):
        engine = self.engine
        spins, queue = engine._spins, engine._queue
        while spins and (not queue or spins[0] < queue[0]):
            if spins[0][0] > stop_time or executed >= stop_events:
                break
            time, _seq, phase, _spin = heapq.heappop(spins)
            engine.now = time
            engine._live -= 1
            executed += 1
            self.log.append(phase)
        return executed


class TestSpinHeap:
    def test_both_heaps_run_in_one_time_seq_order(self):
        engine = Engine()
        log = []
        spin = _LogRunner(engine, log)
        engine.schedule(5, lambda: log.append("a"))
        engine.push_spin(5, "b", spin)
        engine.schedule(5, lambda: log.append("c"))
        engine.push_spin(3, "d", spin)
        engine.schedule(9, lambda: log.append("e"), daemon=True)
        engine.push_spin(8, "f", spin)
        assert engine.pending == 6 and engine.live_pending == 5
        assert engine.next_time() == 3
        queue = engine.ckpt_state()["queue"]
        assert [name for _time, name in queue] == [
            "spin.d", "TestSpinHeap.test_both_heaps_run_in_one_time_seq_"
            "order.<locals>.<lambda>", "spin.b",
            "TestSpinHeap.test_both_heaps_run_in_one_time_seq_order."
            "<locals>.<lambda>", "spin.f"]
        assert engine.run(until=5) == 4
        assert log == ["d", "a", "b", "c"]
        assert engine.run() == 1
        assert log[-1] == "f" and engine.now == 8
        assert engine.pending == 1 and engine.live_pending == 0

    def test_budgets_count_spin_events(self):
        engine = Engine()
        spin = _LogRunner(engine, [])
        for delay in range(1, 11):
            engine.push_spin(delay, delay, spin)
        with pytest.raises(SimulationError, match="exceeded 4 events") as info:
            engine.run(max_events=4)
        assert info.value.events == 4 and info.value.cycle == 4
        with pytest.raises(SimulationError, match="7-cycle") as info:
            engine.run(max_cycles=7)
        assert info.value.cycle == 7

    def test_negative_spin_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().push_spin(-1, 0, None)


class TestDeterminism:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                    max_size=50))
    def test_events_observe_monotone_time(self, delays):
        engine = Engine()
        times = []
        for d in delays:
            engine.schedule(d, lambda: times.append(engine.now))
        engine.run()
        assert times == sorted(times)
        assert len(times) == len(delays)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                    max_size=30))
    def test_two_identical_runs_interleave_identically(self, delays):
        def trace():
            engine = Engine()
            order = []
            for i, d in enumerate(delays):
                engine.schedule(d, lambda i=i: order.append((engine.now, i)))
            engine.run()
            return order

        assert trace() == trace()
