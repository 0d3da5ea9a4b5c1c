"""The observability layer: bus, metrics, sampler, spans, export, CLI.

The two load-bearing guarantees tested here:

* **Bit-identical results.** Attaching any combination of collectors —
  sampler (daemon engine events), span recorder, profiler — must leave
  cycles, every counter, and every episode latency exactly equal to an
  uninstrumented run, for every protocol family.
* **Valid traces.** Whatever the exporters emit must satisfy the Chrome
  trace-event invariants (monotonic per-track timestamps, matched B/E,
  complete X) so Perfetto actually loads it.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.config import config_for
from repro.harness.runner import run_workload
from repro.harness.sweeps import Sweep
from repro.ioutil import FSYNC_ERRORS
from repro.obs import (DEFAULT_COUNTERS, HostProfiler, MetricsRegistry,
                       ProbeBus, SpanRecorder, Telemetry, TelemetryConfig,
                       TimeSeriesSampler, chrome_trace, component_label,
                       load_spans, trace_events_to_spans,
                       validate_chrome_trace)
from repro.obs.cli import main as obs_main
from repro.orchestrate.events import EventLog
from repro.orchestrate.registry import build_workload
from repro.sim.engine import Engine
from repro.sim.stats import (MAX_MERGED_FIELDS, Stats, int_field_names,
                             summed_field_names)
from tests.test_appendlog import needs_proc_fds, open_handles


def run_pair(label, spec, params=None, cores=4, tconfig=None):
    """The same seeded run, bare and instrumented."""
    tconfig = tconfig or TelemetryConfig(sample_every=100, spans=True)
    bare = run_workload(config_for(label, num_cores=cores, seed=1),
                        build_workload(spec, params))
    telemetry = Telemetry(tconfig)
    instrumented = run_workload(config_for(label, num_cores=cores, seed=1),
                                build_workload(spec, params),
                                telemetry=telemetry)
    return bare, instrumented, telemetry


# ------------------------------------------------------------------ bus

class TestProbeBus:
    def test_emit_without_subscribers_is_noop(self):
        bus = ProbeBus()
        bus.emit("cb.park", core=1, word=64)
        assert bus.emitted == 0

    def test_topic_and_wildcard_delivery(self):
        bus = ProbeBus()
        got = []
        bus.subscribe("a", lambda t, c, f: got.append(("topic", t, c, f)))
        bus.subscribe("*", lambda t, c, f: got.append(("star", t, c, f)))
        bus.emit("a", _cycle=7, x=1)
        bus.emit("b", _cycle=8, y=2)
        assert got == [("topic", "a", 7, {"x": 1}),
                       ("star", "a", 7, {"x": 1}),
                       ("star", "b", 8, {"y": 2})]
        assert bus.emitted == 2

    def test_cycle_stamped_from_engine(self):
        engine = Engine()
        bus = ProbeBus(engine)
        seen = []
        bus.subscribe("t", lambda t, c, f: seen.append(c))
        engine.schedule(5, lambda: bus.emit("t"), "event")
        engine.run()
        assert seen == [5]

    def test_unsubscribe(self):
        bus = ProbeBus()
        fn = lambda t, c, f: (_ for _ in ()).throw(AssertionError)
        bus.subscribe("x", fn)
        assert bus.active("x")
        bus.unsubscribe("x", fn)
        assert not bus.active("x")
        bus.emit("x")

    def test_every_requires_engine_and_positive_window(self):
        with pytest.raises(RuntimeError):
            ProbeBus().every(10, lambda c: None)
        with pytest.raises(ValueError):
            ProbeBus(Engine()).every(0, lambda c: None)


class TestDaemonEvents:
    """The engine semantics the sampler's bit-identity rests on."""

    def test_daemon_events_do_not_keep_run_alive(self):
        engine = Engine()
        fired = []
        engine.schedule(10, lambda: fired.append("real"), "event")

        def tick():
            fired.append("tick")
            engine.schedule(4, tick, "tick", daemon=True)

        engine.schedule(0, tick, "tick", daemon=True)
        engine.run()
        # Ticks at 0/4/8 fire before the last real event at 10; the tick
        # scheduled for 12 never runs and never moves the clock.
        assert engine.now == 10
        assert fired == ["tick", "tick", "tick", "real"]

    def test_all_daemon_run_executes_nothing(self):
        engine = Engine()
        engine.schedule(5, lambda: None, "tick", daemon=True)
        engine.run()
        assert engine.now == 0
        assert engine.live_pending == 0


# -------------------------------------------------------------- metrics

class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops", kind="load")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        with pytest.raises(ValueError):
            counter.inc(-1)
        gauge = registry.gauge("depth")
        gauge.set(7.0)
        assert gauge.value == 7.0
        live = registry.gauge("live", fn=lambda: 42)
        assert live.value == 42
        with pytest.raises(RuntimeError):
            live.set(1)

    def test_registry_keys_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", bank="0")
        b = registry.counter("hits", bank="1")
        assert a is not b
        assert registry.counter("hits", bank="0") is a
        with pytest.raises(TypeError):
            registry.gauge("hits", bank="0")

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        for value in (1, 2, 4, 100, 1000):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.min == 1 and histogram.max == 1000
        assert histogram.percentile(50) == 4.0   # within a power of two
        assert histogram.percentile(100) == 512.0  # 1000's bucket floor
        with pytest.raises(ValueError):
            histogram.observe(-1)

    def test_snapshot_is_jsonable(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2)
        registry.histogram("h").observe(10)
        json.dumps(registry.snapshot())
        assert len(registry) == 3


# -------------------------------------------------------------- sampler

class TestSampler:
    def test_unknown_counters_rejected(self):
        with pytest.raises(ValueError, match="unknown Stats counters"):
            TimeSeriesSampler(Stats(), 10, counters=["not_a_counter"])
        with pytest.raises(ValueError):
            TimeSeriesSampler(Stats(), 0)

    def test_all_expands_to_every_int_field(self):
        sampler = TimeSeriesSampler(Stats(), 10, counters="all")
        assert sampler.counter_names == int_field_names()

    def test_sampling_and_deltas(self):
        stats = Stats()
        sampler = TimeSeriesSampler(stats, 10, counters=["messages"],
                                    gauges={"g": lambda: 5.0})
        sampler.sample(0)
        stats.messages = 4
        sampler.sample(10)
        stats.messages = 9
        sampler.sample(20)
        assert sampler.series("cycle") == [0, 10, 20]
        assert sampler.series("messages") == [0, 4, 9]
        assert sampler.deltas("messages") == [0, 4, 5]
        assert sampler.series("g") == [5.0, 5.0, 5.0]

    def test_csv_and_json_round_trip(self):
        stats = Stats()
        sampler = TimeSeriesSampler(stats, 10, counters=["messages"])
        sampler.sample(0)
        stats.messages = 2
        sampler.sample(10)
        csv = io.StringIO()
        sampler.to_csv(csv)
        lines = csv.getvalue().splitlines()
        assert lines[0] == "cycle,messages"
        assert lines[1:] == ["0,0", "10,2"]
        blob = io.StringIO()
        sampler.to_json(blob)
        loaded = json.loads(blob.getvalue())
        assert loaded["every"] == 10
        assert loaded["columns"]["messages"] == [0, 2]


# --------------------------------------------------- bit-identical runs

@pytest.mark.parametrize("label", ["Invalidation", "BackOff-6", "CB-One"])
def test_telemetry_leaves_results_bit_identical(label):
    bare, instrumented, _ = run_pair(label, "lock",
                                     {"lock_name": "ttas", "iterations": 3})
    assert bare.stats.cycles == instrumented.stats.cycles
    assert bare.stats.counters() == instrumented.stats.counters()
    assert dict(bare.stats.msg_kinds) == dict(instrumented.stats.msg_kinds)
    assert (dict(bare.stats.episode_latencies)
            == dict(instrumented.stats.episode_latencies))


def test_profiler_leaves_results_bit_identical():
    bare, instrumented, telemetry = run_pair(
        "CB-One", "barrier", {"barrier_name": "sr"},
        tconfig=TelemetryConfig(profile=True))
    assert bare.stats.cycles == instrumented.stats.cycles
    assert bare.stats.counters() == instrumented.stats.counters()
    assert telemetry.profiler.events > 0


# ---------------------------------------------------------------- spans

@pytest.mark.parametrize("label", ["Invalidation", "CB-One"])
@pytest.mark.parametrize("spec,params,category", [
    ("lock", {"lock_name": "ttas", "iterations": 3}, "lock_acquire"),
    ("barrier", {"barrier_name": "sr", "episodes": 3}, "barrier_wait"),
    ("signal_wait", {"rounds": 3}, "wait"),
])
def test_span_recording_per_workload(label, spec, params, category):
    _, result, telemetry = run_pair(label, spec, params)
    recorder = telemetry.spans
    episodes = [s for s in recorder.spans if s.name == category]
    assert episodes, f"no {category} spans under {label}"
    assert all(s.track.startswith("thread/") for s in episodes)
    assert all(s.end is not None and s.end >= s.start for s in episodes)
    if spec == "lock":
        holds = [s for s in recorder.spans if s.name == "lock_hold"]
        assert holds and all(s.end is not None for s in holds)
    if spec == "barrier":
        marks = {i.name for i in recorder.instants}
        assert {"barrier.arrive", "barrier.leave"} <= marks
    if spec == "signal_wait":
        assert any(i.name == "signal.post" for i in recorder.instants)
    if label == "CB-One":
        # Parked cores and directory-entry lifetimes show up on the
        # core/bank track families.
        tracks = {s.track.partition("/")[0] for s in recorder.spans}
        assert "core" in tracks and "bank" in tracks
    # The whole thing exports to a valid Perfetto document.
    doc = telemetry.perfetto()
    assert validate_chrome_trace(doc) == []


def test_mesi_spin_windows_recorded():
    _, _, telemetry = run_pair("Invalidation", "lock",
                               {"lock_name": "ttas", "iterations": 3})
    spins = [s for s in telemetry.spans.spans if s.cat == "spin"]
    assert spins and all(s.track.startswith("core/") for s in spins)


class TestSpanRecorder:
    def test_begin_end_matching_by_key(self):
        recorder = SpanRecorder()
        recorder.begin("a", "c", "thread/0", 10)
        recorder.begin("a", "c", "thread/1", 11)
        recorder.end("a", "thread/0", 20)
        spans = {s.track: s for s in recorder.spans}
        assert spans["thread/0"].end == 20
        assert spans["thread/1"].end is None

    def test_self_heals_duplicate_begin(self):
        recorder = SpanRecorder()
        recorder.begin("a", "c", "thread/0", 10)
        recorder.begin("a", "c", "thread/0", 15)
        first, second = recorder.spans
        assert first.end == 15 and first.args.get("lost")
        assert second.end is None

    def test_unmatched_end_dropped(self):
        recorder = SpanRecorder()
        recorder.end("a", "thread/0", 20)
        assert recorder.spans == []

    def test_close_open_tags_truncated(self):
        recorder = SpanRecorder()
        recorder.begin("a", "c", "thread/0", 10)
        assert recorder.close_open(99) == 1
        assert recorder.spans[0].end == 99
        assert recorder.spans[0].args["truncated"] is True

    def test_jsonl_round_trip(self):
        recorder = SpanRecorder()
        recorder.complete("a", "sync", "thread/0", 1, 5, tid=0)
        recorder.begin("open", "sync", "thread/1", 2)
        recorder.instant("m", "sync", "thread/0", 3)
        blob = io.StringIO()
        recorder.to_jsonl(blob)
        blob.seek(0)
        loaded = load_spans(blob)
        assert [s.as_dict() for s in loaded.spans] == \
               [s.as_dict() for s in recorder.spans]
        assert [i.as_dict() for i in loaded.instants] == \
               [i.as_dict() for i in recorder.instants]


# --------------------------------------------------------------- export

class TestChromeTrace:
    def test_open_span_becomes_unclosed_b(self):
        recorder = SpanRecorder()
        recorder.begin("open", "sync", "thread/0", 2)
        doc = chrome_trace(spans=recorder.spans)
        assert any(e["ph"] == "B" for e in doc["traceEvents"])
        problems = validate_chrome_trace(doc)
        assert any("unclosed B" in p for p in problems)

    def test_counter_series_become_counter_events(self):
        doc = chrome_trace(series={"cycle": [0, 10], "messages": [1, 2]})
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert [(e["ts"], e["args"]["value"]) for e in counters] == \
               [(0, 1), (10, 2)]

    def test_track_metadata_names_tracks(self):
        recorder = SpanRecorder()
        recorder.complete("a", "sync", "thread/3", 0, 1)
        doc = chrome_trace(spans=recorder.spans)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {"process_name", "thread_name"} == {e["name"] for e in meta}

    def test_validator_catches_bad_traces(self):
        assert validate_chrome_trace({}) != []
        bad_ts = {"traceEvents": [
            {"name": "a", "ph": "i", "ts": 5, "pid": 1, "tid": 0},
            {"name": "b", "ph": "i", "ts": 3, "pid": 1, "tid": 0},
        ]}
        assert any("ts 3 < previous" in p
                   for p in validate_chrome_trace(bad_ts))
        bad_x = {"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0, "pid": 1, "tid": 0}]}
        assert any("without dur" in p for p in validate_chrome_trace(bad_x))
        no_b = {"traceEvents": [
            {"name": "a", "ph": "E", "ts": 0, "pid": 1, "tid": 0}]}
        assert any("E without open B" in p
                   for p in validate_chrome_trace(no_b))

    def test_trace_recorder_round_trip(self, tmp_path):
        """repro.trace JSONL -> instants -> valid Perfetto document."""
        from repro.core.machine import Machine
        from repro.trace.recorder import TraceRecorder, load_trace
        config = config_for("CB-One", num_cores=4, seed=1)
        machine = Machine(config)
        path = tmp_path / "ops.jsonl"
        with open(path, "w") as sink:
            recorder = TraceRecorder(machine, stream=sink)
            build_workload("lock", {"lock_name": "tas",
                                    "iterations": 2}).install(machine)
            machine.run()
            events = recorder.detach()
        with open(path) as handle:
            reloaded = load_trace(handle)
        assert [e.time for e in reloaded] == [e.time for e in events]
        instants = trace_events_to_spans(reloaded)
        assert len(instants) == len(events)
        assert {"racy", "op"} >= {i.cat for i in instants}
        doc = chrome_trace(instants=instants)
        assert validate_chrome_trace(doc) == []


# ------------------------------------------------------------- profiler

class TestProfiler:
    def test_attribution(self):
        engine = Engine()
        profiler = HostProfiler()
        profiler.attach(engine)

        def busy():
            sum(range(500))

        for delay in (1, 2, 3):
            engine.schedule(delay, busy, "event")
        engine.run()
        profiler.detach()
        rows = profiler.by_component()
        assert profiler.events == 3
        assert rows[0][1] == 3 and rows[0][2] > 0
        assert "test_obs" in rows[0][0]
        # Nested functions are trimmed at .<locals>, so the report names
        # the enclosing method rather than `busy` itself.
        assert "test_attribution" in profiler.report()

    def test_double_attach_rejected(self):
        engine = Engine()
        HostProfiler().attach(engine)
        with pytest.raises(RuntimeError):
            HostProfiler().attach(engine)

    def test_component_label_trims_locals(self):
        def outer():
            return lambda: None
        label = component_label(outer())
        assert label.endswith(":TestProfiler."
                              "test_component_label_trims_locals")
        assert ".<locals>" not in label


# ------------------------------------------------------ stats satellites

class TestStatsMerge:
    def test_every_int_field_is_merged(self):
        """Regression for the old hand-maintained merge list: a counter
        can no longer be silently dropped from suite aggregation."""
        a, b = Stats(), Stats()
        for index, name in enumerate(int_field_names()):
            setattr(a, name, index + 1)
            setattr(b, name, 100 + index)
        a.merge(b)
        for index, name in enumerate(int_field_names()):
            if name in MAX_MERGED_FIELDS:
                assert getattr(a, name) == 100 + index, name
            else:
                assert getattr(a, name) == 101 + 2 * index, name

    def test_max_merged_fields(self):
        assert set(MAX_MERGED_FIELDS) <= set(int_field_names())
        assert "cb_max_active_entries" in MAX_MERGED_FIELDS
        assert "cycles" in summed_field_names()

    def test_episode_summary_matches_percentiles(self):
        stats = Stats()
        samples = [5, 1, 9, 3, 7, 100, 2]
        for sample in samples:
            stats.record_episode("lock_acquire", sample)
        summary = stats.episode_summary("lock_acquire")
        assert summary["n"] == len(samples)
        assert summary["max"] == 100.0
        assert summary["mean"] == pytest.approx(sum(samples) / len(samples))
        for pct in (50, 95, 99):
            assert summary[f"p{pct}"] == stats.episode_percentile(
                "lock_acquire", pct)


# ------------------------------------------------------------- event log

class TestEventLog:
    @needs_proc_fds
    def test_single_sink_handle(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(sink_path=str(path))
        for index in range(5):
            log.record("queued", f"job{index}")
            assert open_handles(path) == 1
        # Every record is already flushed: no flush() call needed.
        assert len(path.read_text().splitlines()) == 5
        log.close()
        log.close()  # idempotent
        assert open_handles(path) == 0

    def test_failed_durable_fsync_is_counted(self, tmp_path, monkeypatch):
        def broken_fsync(fd):
            raise OSError(5, "injected EIO")
        monkeypatch.setattr(os, "fsync", broken_fsync)
        log = EventLog(sink_path=str(tmp_path / "events.jsonl"))
        before = FSYNC_ERRORS.value
        log.record("queued", "job0")            # not durable: no fsync
        log.record("failed", "job0", failure_kind="error")
        log.close()
        assert FSYNC_ERRORS.value == before + 1

    def test_bus_mirroring(self):
        bus = ProbeBus()
        seen = []
        bus.subscribe("orchestrate.finished", lambda t, c, f: seen.append(f))
        log = EventLog(bus=bus)
        log.record("finished", "k1", "label", cycles=42)
        assert seen == [{"job_key": "k1", "label": "label", "cycles": 42}]


# ----------------------------------------------------------------- sweeps

class TestSweepTelemetry:
    def test_persists_traces_next_to_results(self, tmp_path):
        sweep = Sweep(configs=["CB-One"], workload_spec="lock",
                      spec_params={"lock_name": "tas", "iterations": 2},
                      metrics={"cycles": lambda r: r.cycles},
                      overrides={"cb_entries_per_bank": [2, 4]})
        rows = sweep.run(seed=1, num_cores=4,
                         telemetry=TelemetryConfig(sample_every=100,
                                                   spans=True),
                         telemetry_dir=str(tmp_path))
        assert len(rows) == 2
        for row in rows:
            trace = row["telemetry"]["trace"]
            with open(trace) as handle:
                assert validate_chrome_trace(json.load(handle)) == []
            with open(row["telemetry"]["series"]) as handle:
                series = json.load(handle)
            assert series["every"] == 100
            assert "cycle" in series["columns"]

    def test_parallel_telemetry_rejected(self):
        sweep = Sweep(configs=["CB-One"], workload_spec="lock",
                      metrics={})
        with pytest.raises(ValueError, match="serial-only"):
            sweep.run(jobs=2, telemetry=TelemetryConfig(spans=True))


# -------------------------------------------------------------------- CLI

class TestCLI:
    ARGS = ["--cores", "4", "--param", "iterations=2"]

    def test_sample(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        assert obs_main(["sample", "--workload", "lock:tas", "--config",
                         "CB-One", "--every", "100", "--out", str(out)]
                        + self.ARGS) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header[0] == "cycle"
        assert set(DEFAULT_COUNTERS) <= set(header)
        assert "cores_parked" in header

    def test_spans_and_convert(self, tmp_path, capsys):
        jsonl = tmp_path / "spans.jsonl"
        assert obs_main(["spans", "--workload", "signal_wait", "--config",
                         "CB-One", "--jsonl", str(jsonl), "--cores", "4",
                         "--param", "rounds=2"]) == 0
        assert "sync" in capsys.readouterr().out
        out = tmp_path / "trace.json"
        assert obs_main(["export", "--from-spans", str(jsonl), "--out",
                         str(out)]) == 0
        with open(out) as handle:
            assert validate_chrome_trace(json.load(handle)) == []

    @pytest.mark.parametrize("config", ["Invalidation", "CB-One"])
    def test_export_workloads(self, tmp_path, config):
        for spec, extra in (("lock:ttas", self.ARGS),
                            ("barrier:sr", ["--cores", "4", "--param",
                                            "episodes=2"]),
                            ("signal_wait", ["--cores", "4", "--param",
                                             "rounds=2"])):
            out = tmp_path / f"{spec.replace(':', '_')}_{config}.json"
            assert obs_main(["export", "--workload", spec, "--config",
                             config, "--out", str(out)] + extra) == 0
            with open(out) as handle:
                doc = json.load(handle)
            assert validate_chrome_trace(doc) == []
            assert any(e.get("ph") == "X" for e in doc["traceEvents"])

    def test_profile(self, tmp_path, capsys):
        blob = tmp_path / "profile.json"
        assert obs_main(["profile", "--workload", "lock:tas", "--config",
                         "CB-One", "--json", str(blob)] + self.ARGS) == 0
        assert "component" in capsys.readouterr().out
        with open(blob) as handle:
            profile = json.load(handle)
        assert profile and all("seconds" in v for v in profile.values())

    def test_export_rejects_conflicting_sources(self, tmp_path):
        with pytest.raises(SystemExit):
            obs_main(["export", "--workload", "lock", "--from-spans", "x",
                      "--out", str(tmp_path / "t.json")])


# ------------------------------------------------------------- telemetry

class TestTelemetry:
    def test_attach_once(self):
        from repro.core.machine import Machine
        config = config_for("CB-One", num_cores=4)
        telemetry = Telemetry(TelemetryConfig(spans=True))
        Machine(config, telemetry=telemetry)
        with pytest.raises(RuntimeError, match="already attached"):
            Machine(config, telemetry=telemetry)

    def test_summary_shape(self):
        _, _, telemetry = run_pair("CB-One", "lock",
                                   {"lock_name": "tas", "iterations": 2})
        summary = telemetry.summary()
        assert summary["probes_emitted"] > 0
        assert summary["samples"] == len(
            telemetry.sampler.columns["cycle"])
        assert summary["spans"] == len(telemetry.spans.spans)
        assert any(m["name"] == "episode_cycles"
                   for m in summary["metrics"])
        json.dumps(summary)

    def test_gauge_columns_present(self):
        _, _, telemetry = run_pair("CB-One", "lock",
                                   {"lock_name": "tas", "iterations": 2})
        columns = telemetry.sampler.columns
        for name in ("cores_parked", "flits_in_flight",
                     "cb_active_entries"):
            assert name in columns
        assert any(name.startswith("cb_active[") for name in columns)

    def test_config_round_trip(self):
        config = TelemetryConfig(sample_every=50, counters=["messages"],
                                 spans=True, profile=True)
        assert TelemetryConfig.from_dict(config.to_dict()) == config
        assert not TelemetryConfig().enabled
        assert TelemetryConfig(sample_every=1).enabled
