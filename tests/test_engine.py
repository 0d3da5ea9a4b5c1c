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
        engine.schedule(30, lambda: fired.append("c"), "event")
        engine.schedule(10, lambda: fired.append("a"), "event")
        engine.schedule(20, lambda: fired.append("b"), "event")
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_same_cycle_fifo_tiebreak(self):
        engine = Engine()
        fired = []
        for i in range(10):
            engine.schedule(5, lambda i=i: fired.append(i), "event")
        engine.run()
        assert fired == list(range(10))

    def test_clock_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(42, lambda: seen.append(engine.now), "event")
        engine.run()
        assert seen == [42]
        assert engine.now == 42

    def test_zero_delay_runs_same_cycle(self):
        engine = Engine()
        seen = []
        engine.schedule(7, lambda: engine.schedule(
            0, lambda: seen.append(engine.now), "event"), "event")
        engine.run()
        assert seen == [7]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().schedule(-1, lambda: None, "event")

    def test_schedule_at_absolute(self):
        engine = Engine()
        seen = []
        engine.schedule_at(100, lambda: seen.append(engine.now), "event")
        engine.run()
        assert seen == [100]

    def test_schedule_at_past_rejected(self):
        engine = Engine()
        engine.schedule(10, lambda: None, "event")
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule_at(5, lambda: None, "event")

    def test_nested_scheduling(self):
        engine = Engine()
        fired = []
        engine.schedule(1, lambda: (fired.append(engine.now),
                                    engine.schedule(
                                        5, lambda: fired.append(engine.now),
                                        "event")), "event")
        engine.run()
        assert fired == [1, 6]


class TestRunControls:
    def test_run_until_stops_before_later_events(self):
        engine = Engine()
        fired = []
        engine.schedule(5, lambda: fired.append(5), "event")
        engine.schedule(50, lambda: fired.append(50), "event")
        engine.run(until=10)
        assert fired == [5]
        assert engine.pending == 1
        assert engine.now == 10   # the clock at a boundary is the boundary

    def test_clock_at_until_ignores_daemons(self):
        """A daemon that ran before ``until`` leaves no trace on the
        clock a stopped run reports."""
        clocks = []
        for ticks in (False, True):
            engine = Engine()
            engine.schedule(3, lambda: None, "event")
            engine.schedule(50, lambda: None, "event")
            if ticks:
                engine.schedule(7, lambda: None, "tick", daemon=True)
            engine.run(until=10)
            clocks.append((engine.now, engine.ckpt_state()))
        assert clocks[0] == clocks[1] == (10, {
            "now": 10, "live_pending": 1, "queue": [(50, "event")]})

    def test_clock_stays_where_a_budget_will_stop_the_run(self):
        """When the next slice can only time out, the clock stays at the
        last event, where an unsliced run's timeout reports it."""
        engine = Engine()
        engine.schedule(3, lambda: None, "event")
        engine.schedule(50, lambda: None, "event")
        engine.run(until=10, max_cycles=40)
        assert engine.now == 3
        engine.run(until=10, max_events=0)
        assert engine.now == 3
        with pytest.raises(SimulationError, match="40-cycle") as info:
            engine.run(until=100, max_cycles=40)
        assert info.value.cycle == 3

    def test_watchdog_raises(self):
        engine = Engine()

        def rearm():
            engine.schedule(1, rearm, "event")

        engine.schedule(1, rearm, "event")
        with pytest.raises(SimulationError, match="watchdog"):
            engine.run(max_events=100)

    def test_step_on_empty_returns_false(self):
        assert Engine().run() == 0

    def test_run_returns_event_count(self):
        engine = Engine()
        for _ in range(5):
            engine.schedule(1, lambda: None, "event")
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
        spins, queue, daemons = engine._spins, engine._queue, engine._daemons
        while spins:
            head = spins[0]
            if (queue and queue[0] < head) or (daemons and daemons[0] < head):
                break
            if head[0] > stop_time or executed >= stop_events:
                break
            time, _seq, phase, _spin = heapq.heappop(spins)
            engine.now = time
            executed += 1
            self.log.append(phase)
        return executed


class TestSpinHeap:
    def test_both_heaps_run_in_one_time_seq_order(self):
        engine = Engine()
        log = []
        spin = _LogRunner(engine, log)
        engine.schedule(5, lambda: log.append("a"), "a")
        engine.push_spin(5, "b", spin)
        engine.schedule(5, lambda: log.append("c"), "c")
        engine.push_spin(3, "d", spin)
        engine.schedule(9, lambda: log.append("e"), "tick", daemon=True)
        engine.push_spin(8, "f", spin)
        assert engine.pending == 6 and engine.live_pending == 5
        assert engine.next_time() == 3
        queue = engine.ckpt_state()["queue"]
        assert [name for _time, name in queue] == [
            "spin.d", "a", "spin.b", "c", "spin.f"]
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


class TestDaemonHeap:
    """Daemon events sit in a heap of their own; liveness is the length
    of the general and spin heaps."""

    def test_one_cycle_runs_in_seq_order_across_three_heaps(self):
        engine = Engine()
        log = []
        spin = _LogRunner(engine, log)
        engine.schedule(4, lambda: log.append("daemon"), "tick", daemon=True)
        engine.push_spin(4, "spin", spin)
        engine.schedule(4, lambda: log.append("live"), "event")
        engine.schedule(4, lambda: log.append("daemon2"), "tick", daemon=True)
        engine.push_spin(4, "spin2", spin)
        assert engine.run() == 5
        assert log == ["daemon", "spin", "live", "daemon2", "spin2"]
        assert engine.now == 4

    def test_only_daemons_left_stops_at_the_last_live_event(self):
        engine = Engine()
        fired = []

        def tick():
            fired.append(engine.now)
            engine.schedule(3, tick, "tick", daemon=True)

        engine.schedule(0, tick, "tick", daemon=True)
        engine.schedule(10, lambda: fired.append("live"), "event")
        assert engine.run() == 5   # ticks at 0, 3, 6, 9, then the event
        assert fired == [0, 3, 6, 9, "live"]
        assert engine.now == 10
        assert engine.live_pending == 0 and engine.pending == 1
        assert engine.next_time() is None   # only a daemon is left

    def test_max_events_counts_daemon_events(self):
        engine = Engine()
        for delay in range(1, 6):
            engine.schedule(delay, lambda: None, "tick", daemon=True)
        engine.schedule(10, lambda: None, "event")
        with pytest.raises(SimulationError, match="exceeded 3 events") as info:
            engine.run(max_events=3)
        assert info.value.events == 3 and info.value.cycle == 3

    def test_run_spins_yields_to_an_earlier_daemon_head(self):
        engine = Engine()
        log = []
        spin = _LogRunner(engine, log)
        engine.push_spin(1, "a", spin)
        engine.schedule(2, lambda: log.append("daemon"), "tick", daemon=True)
        engine.push_spin(2, "b", spin)
        engine.push_spin(3, "c", spin)
        # The runner alone stops before the daemon head at cycle 2.
        assert spin.run_spins(NO_LIMIT, NO_LIMIT, 0) == 1
        assert log == ["a"]
        assert engine.run() == 3
        assert log == ["a", "daemon", "b", "c"]

    def test_drop_daemons_empties_only_the_daemon_heap(self):
        engine = Engine()
        engine.schedule(5, lambda: None, "tick", daemon=True)
        engine.schedule(1, lambda: None, "event")
        with pytest.raises(SimulationError, match="live events"):
            engine.drop_daemons()
        assert engine.pending == 2
        engine.run()
        assert engine.pending == 1 and engine.now == 1
        engine.drop_daemons()
        assert engine.pending == 0 and engine.next_time() is None

    def test_introspection_reads_as_one_merged_queue(self):
        engine = Engine()
        spin = _LogRunner(engine, [])
        assert (engine.pending, engine.live_pending) == (0, 0)
        assert engine.next_time() is None
        engine.schedule(2, lambda: None, "tick", daemon=True)
        assert (engine.pending, engine.live_pending) == (1, 0)
        assert engine.next_time() is None   # daemons are not pending work
        assert engine.ckpt_state() == {"now": 0, "live_pending": 0,
                                       "queue": []}
        engine.schedule(7, lambda: None, "event")
        engine.push_spin(7, 0, spin)
        engine.schedule_at(3, lambda: None, "tick", daemon=True)
        assert (engine.pending, engine.live_pending) == (4, 2)
        assert engine.scheduled == 4
        assert engine.next_time() == 7
        state = engine.ckpt_state()
        assert state["live_pending"] == 2
        assert [time for time, _name in state["queue"]] == [7, 7]
        assert state["queue"][1] == (7, "spin.0")


class TestDeterminism:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                    max_size=50))
    def test_events_observe_monotone_time(self, delays):
        engine = Engine()
        times = []
        for d in delays:
            engine.schedule(d, lambda: times.append(engine.now), "event")
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
                engine.schedule(d, lambda i=i: order.append((engine.now, i)),
                                "event")
            engine.run()
            return order

        assert trace() == trace()
