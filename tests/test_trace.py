"""Trace recording and analysis."""

import io

import pytest

from repro.config import config_for
from repro.core.machine import Machine
from repro.protocols.ops import Compute
from repro.sync import make_lock, style_for
from repro.trace import (TraceEvent, TraceRecorder, concurrent_races,
                         hottest_words, load_trace, op_mix, racy_fraction)
from repro.workloads.suite import get_workload
from tests.protocol_utils import start


def record_lock_run(label="CB-One", threads=4, stream=None,
                    lock_name="ttas"):
    cfg = config_for(label, num_cores=threads)
    machine = Machine(cfg)
    recorder = TraceRecorder(machine, stream=stream)
    lock = make_lock(lock_name, style_for(cfg))
    lock.setup(machine.layout, threads)
    for addr, value in lock.initial_values().items():
        machine.store.write(addr, value)

    def body(ctx):
        for _ in range(3):
            yield from lock.acquire(ctx)
            yield Compute(10)
            yield from lock.release(ctx)

    machine.spawn([body] * threads)
    machine.run()
    return recorder.detach(), lock


class TestRecorder:
    def test_records_sync_ops(self):
        events, lock = record_lock_run()
        kinds = op_mix(events)
        assert kinds.get("atomic", 0) > 0
        assert kinds.get("st_cb1", 0) > 0 or kinds.get("st_through", 0) > 0

    def test_events_are_time_ordered(self):
        events, _lock = record_lock_run()
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_detach_stops_recording(self):
        cfg = config_for("CB-One", num_cores=4)
        machine = Machine(cfg)
        recorder = TraceRecorder(machine)
        recorder.detach()
        from repro.protocols import ops
        start(machine, 0, ops.LoadThrough(0x4000))
        machine.engine.run()
        assert recorder.events == []

    def test_jsonl_roundtrip(self):
        stream = io.StringIO()
        events, _lock = record_lock_run(stream=stream)
        stream.seek(0)
        loaded = load_trace(stream)
        assert loaded == events

    def test_recording_does_not_change_results(self):
        def run(record):
            cfg = config_for("CB-One", num_cores=4)
            machine = Machine(cfg)
            if record:
                TraceRecorder(machine)
            workload = get_workload("radix", scale=0.2)
            workload.install(machine)
            return machine.run().cycles

        assert run(True) == run(False)


class TestAtomicHalves:
    """Every Atomic is traced as the composite event plus two derived
    zero-weight halves carrying the LdKind/StKind names."""

    def test_halves_follow_each_composite(self):
        from repro.trace.recorder import DERIVED_KINDS
        events, _lock = record_lock_run()
        for i, event in enumerate(events):
            if event.kind != "atomic":
                continue
            ld, st = events[i + 1], events[i + 2]
            assert ld.kind == "atomic.ld" and st.kind == "atomic.st"
            assert ld.addr == event.addr and st.addr == event.addr
            assert ld.time == event.time and st.time == event.time
            assert ld.core == event.core and st.core == event.core
            assert ld.weight == 0 and st.weight == 0
            # detail mirrors the composite's [kind, ld, st, operands].
            assert ld.detail == [event.detail[1]]
            assert st.detail == [event.detail[2]]
            assert not ld.is_racy and not st.is_racy
            assert ld.kind in DERIVED_KINDS and st.kind in DERIVED_KINDS

    def test_half_counts_match_composites(self):
        events, _lock = record_lock_run()
        kinds = op_mix(events)
        assert kinds["atomic"] > 0
        assert kinds["atomic.ld"] == kinds["atomic"]
        assert kinds["atomic.st"] == kinds["atomic"]

    def test_halves_surface_callback_kinds(self):
        """Under CB-One the T&S guard/spin atomics carry their Table-1
        annotation kinds in the derived events."""
        events, _lock = record_lock_run(label="CB-One", lock_name="tas")
        ld_kinds = {tuple(e.detail) for e in events
                    if e.kind == "atomic.ld"}
        st_kinds = {tuple(e.detail) for e in events
                    if e.kind == "atomic.st"}
        assert ("PLAIN",) in ld_kinds and ("CB",) in ld_kinds
        assert ("CB0",) in st_kinds

    def test_halves_roundtrip_jsonl(self):
        stream = io.StringIO()
        events, _lock = record_lock_run(stream=stream)
        stream.seek(0)
        loaded = load_trace(stream)
        assert [e for e in loaded if e.kind.startswith("atomic.")] \
            == [e for e in events if e.kind.startswith("atomic.")]

    def test_replay_skips_halves(self):
        from repro.trace.replay import replay_bodies
        events, _lock = record_lock_run()
        bodies = replay_bodies(events)
        composites = sum(1 for e in events if e.kind == "atomic")
        from repro.protocols import ops as op_mod

        class _Ctx:
            pass

        replayed_atomics = 0
        for body in bodies:
            for op in body(_Ctx()):
                if isinstance(op, op_mod.Atomic):
                    replayed_atomics += 1
        assert replayed_atomics == composites


class TestAnalysis:
    def test_lock_word_is_hottest(self):
        events, lock = record_lock_run()
        (word, _count), = hottest_words(events, top=1)
        assert word == lock.addr

    def test_racy_fraction_bounds(self):
        events, _lock = record_lock_run()
        fraction = racy_fraction(events)
        assert 0.0 < fraction <= 1.0

    def test_concurrent_races_small_for_one_lock(self):
        """One contended lock => at most one racing word at a time."""
        events, _lock = record_lock_run(threads=4)
        result = concurrent_races(events, window=500)
        assert result.max_concurrent <= 1

    def test_concurrent_races_empty_trace(self):
        result = concurrent_races([])
        assert result.max_concurrent == 0
        assert result.windows == 0

    def test_app_races_fit_a_tiny_directory(self):
        """The Section 2.2 claim on an application stand-in: ongoing
        races concern very few addresses at any instant."""
        cfg = config_for("CB-One", num_cores=16)
        machine = Machine(cfg)
        recorder = TraceRecorder(machine)
        workload = get_workload("fluidanimate", scale=0.3)
        workload.install(machine)
        machine.run()
        result = concurrent_races(recorder.detach(), window=2000)
        # Machine-wide concurrent races stay far below the aggregate
        # directory capacity (4 entries x 16 banks).
        assert result.max_concurrent <= 16

    def test_dataless_ops_excluded(self):
        events = [TraceEvent(0, 0, "fence", -1),
                  TraceEvent(1, 1, "ld_through", 0x40),
                  TraceEvent(2, 2, "ld_through", 0x40)]
        result = concurrent_races(events, window=10)
        assert result.max_concurrent == 1
