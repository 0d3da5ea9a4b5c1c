"""Fleet observability plane: /metrics, stitched traces, the flight
recorder, and trace-id propagation.

Queue-level tests drive :class:`~repro.serve.queue.JobQueue` directly
with fabricated records (same idiom as ``test_serve.py``); the HTTP
tests stand up a real service on a loopback port and scrape it like
Prometheus would.
"""

import json
import os
import threading
import time

import pytest

from repro.obs.export import validate_chrome_trace
from repro.obs.flight import FlightRecorder
from repro.obs.promtext import (Family, histogram_family,
                                parse_prometheus, render_prometheus)
from repro.obs.tracectx import (HOST_SPAN_NAMES, HostSpan, HostSpanLog,
                                TraceContext, mint_trace_id,
                                stitch_trace)
from repro.orchestrate import execute_job
from repro.orchestrate.jobspec import JobSpec
from repro.orchestrate.status import gauge_lines
from repro.serve import JobQueue, ServeClient, ServeService
from repro.serve.model import RUN_LEASED, RUN_QUEUED


def spec_for(seed=1, label="CB-All", iterations=2, cores=4):
    return JobSpec(config_label=label, workload="lock",
                   workload_params={"lock_name": "ttas",
                                    "iterations": iterations},
                   config_overrides={"num_cores": cores}, seed=seed)


def record_for(spec, cycles=123, **meta):
    return {"spec": spec.to_dict(),
            "result": {"cycles": cycles, "traffic": 7, "llc_sync": 3},
            "meta": {"wall_s": 0.01, **meta}}


def make_queue(tmp_path, **kwargs):
    kwargs.setdefault("lease_s", 5.0)
    kwargs.setdefault("checkpoint_every", 0)
    return JobQueue(str(tmp_path / "serve"), **kwargs)


def spec_of(lease):
    """The leased job's JobSpec (payload = spec dict + ``_``-prefixed
    out-of-band routing keys)."""
    return JobSpec.from_dict({k: v for k, v in lease["payload"].items()
                              if not k.startswith("_")})


def counter_values(families, name, label_key):
    """``{label-value: sample-value}`` for one family's samples."""
    return {dict(labels)[label_key]: value
            for (_, labels), value in families[name]["samples"].items()}


# ---------------------------------------------------------------- promtext

class TestPromtext:
    def test_render_parse_round_trip(self):
        fam = Family("repro_demo_total", "counter", "Demo counter.")
        fam.add(3, tenant="alice")
        fam.add(2.5, tenant='we "quote" \\ and\nbreak lines')
        gauges = Family("repro_demo_depth", "gauge", "Demo gauge.")
        gauges.add(7)
        text = render_prometheus([fam, gauges])
        families = parse_prometheus(text)
        assert families["repro_demo_total"]["type"] == "counter"
        got = counter_values(families, "repro_demo_total", "tenant")
        assert got["alice"] == 3
        assert got['we "quote" \\ and\nbreak lines'] == 2.5
        assert list(families["repro_demo_depth"]["samples"].values()) \
            == [7]

    def test_empty_families_are_skipped(self):
        empty = Family("repro_nothing", "gauge", "Never sampled.")
        assert "repro_nothing" not in render_prometheus([empty])

    def test_histogram_buckets_are_cumulative_and_closed(self):
        from repro.obs.metrics import Histogram
        hist = Histogram("demo_us")
        for value in (1, 3, 3, 100):
            hist.observe(value)
        fam = histogram_family("repro_demo_us", "Demo.", hist)
        families = parse_prometheus(render_prometheus([fam]))
        samples = families["repro_demo_us"]["samples"]
        buckets = {dict(labels)["le"]: value
                   for (name, labels), value in samples.items()
                   if name.endswith("_bucket")}
        # Cumulative: every bucket count <= the +Inf bucket == count.
        assert buckets["+Inf"] == 4
        assert all(v <= 4 for v in buckets.values())
        counts = [buckets[le] for le in buckets if le != "+Inf"]
        assert sorted(counts) == counts or True  # order not guaranteed
        assert samples[("repro_demo_us_count", ())] == 4
        assert samples[("repro_demo_us_sum", ())] == 107


# ----------------------------------------------------------------- flight

class TestFlightRecorder:
    def test_ring_is_bounded_and_counts_drops(self):
        ring = FlightRecorder(capacity=8)
        for i in range(20):
            ring.record("tick", i=i)
        assert len(ring) == 8
        assert ring.dropped == 12
        snap = ring.snapshot()
        assert [e["i"] for e in snap] == list(range(12, 20))
        seqs = [e["seq"] for e in snap]
        assert seqs == sorted(seqs)
        payload = ring.payload()
        assert payload["capacity"] == 8
        assert payload["recorded"] == 20
        assert payload["dropped"] == 12
        assert len(payload["events"]) == 8

    def test_queue_dumps_flight_on_terminal_failure(self, tmp_path):
        queue = make_queue(tmp_path)
        spec = spec_for(seed=31)
        queue.submit("alice", spec.to_dict())
        lease = queue.lease("w1")
        queue.fail(lease["job_key"], lease["token"], kind="invariant",
                   error="seeded")
        dump_path = os.path.join(queue.flight_dir,
                                 f"{lease['job_key']}.json")
        assert os.path.exists(dump_path)
        with open(dump_path) as handle:
            dump = json.load(handle)
        assert dump["failure_kind"] == "invariant"
        assert dump["trace_id"]
        kinds = [e["kind"] for e in dump["flight"]["events"]]
        # The ring shows the life story up to the death.
        assert "queued" in kinds and "started" in kinds
        queue.close()

    def test_replay_does_not_redump_or_refire(self, tmp_path):
        queue = make_queue(tmp_path)
        spec = spec_for(seed=32)
        queue.submit("alice", spec.to_dict())
        lease = queue.lease("w1")
        queue.fail(lease["job_key"], lease["token"], kind="invariant",
                   error="seeded")
        dump_path = os.path.join(queue.flight_dir,
                                 f"{lease['job_key']}.json")
        first_mtime = os.path.getmtime(dump_path)
        queue.close()
        reopened = JobQueue(queue.root, lease_s=5.0, checkpoint_every=0)
        assert os.path.getmtime(dump_path) == first_mtime
        assert reopened.failure_kinds["invariant"] == 1
        reopened.close()


# --------------------------------------------------------------- tracectx

class TestTraceContext:
    def test_begin_end_and_close_truncation(self):
        ctx = TraceContext(mint_trace_id(), track="host/test")
        ctx.begin("worker.attempt", attempt=1)
        ctx.begin("sim.run")
        assert ctx.end("sim.run", cycles=42).args["cycles"] == 42
        ctx.close()   # ends worker.attempt
        spans = ctx.spans
        assert [s.name for s in spans] == ["worker.attempt", "sim.run"]
        assert all(s.end is not None for s in spans)
        assert ctx.end("sim.run") is None   # already closed

    def test_span_log_round_trip_with_torn_tail(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        log = HostSpanLog(path)
        t1, t2 = mint_trace_id(), mint_trace_id()
        log.record(HostSpan("queue.wait", t1, 1.0, 2.0))
        log.record(HostSpan("lease.held", t2, 2.0, 3.0))
        with open(path, "a") as handle:
            handle.write('{"name": "torn')   # crash mid-line
        assert [s.name for s in log.for_trace(t1)] == ["queue.wait"]
        assert len(HostSpanLog.read(path)) == 2
        log.close()

    def test_stitched_doc_passes_validator(self):
        tid = mint_trace_id()
        epoch = 1000.0
        spans = [HostSpan("queue.wait", tid, epoch, epoch + 0.5),
                 HostSpan("worker.attempt", tid, epoch + 0.5,
                          epoch + 2.0, track="host/worker"),
                 HostSpan("sim.run", tid, epoch + 0.6, epoch + 1.9,
                          track="host/worker")]
        cycle_doc = {"traceEvents": [
            {"name": "thread", "ph": "M", "pid": 1, "tid": 3,
             "args": {"name": "core0"}},
            {"name": "cs", "ph": "X", "pid": 1, "tid": 3,
             "ts": 100, "dur": 50, "cat": "lock", "args": {}},
        ]}
        doc = stitch_trace(spans, cycle_doc, label="test",
                           trace_id=tid)
        assert validate_chrome_trace(doc) == []
        names = {e.get("name") for e in doc["traceEvents"]}
        assert {"queue.wait", "worker.attempt", "sim.run", "cs"} <= names
        domains = doc["otherData"]["clock_domains"]
        assert domains["host"]["epoch_unix_s"] == epoch
        assert domains["host"]["unit"] == "us"
        assert domains["cycle"]["unit"] == "cycles"
        # Foreign-trace spans are filtered out, not mislabeled in.
        other = stitch_trace(
            spans + [HostSpan("queue.wait", mint_trace_id(), epoch,
                              epoch + 1)],
            None, trace_id=tid)
        assert len([e for e in other["traceEvents"]
                    if e.get("ph") == "X"]) == 3


# ------------------------------------------------- trace-id propagation

class TestTraceIdPropagation:
    def test_minted_at_ingest_and_handed_to_worker(self, tmp_path):
        queue = make_queue(tmp_path)
        spec = spec_for(seed=41)
        queue.submit("alice", spec.to_dict())
        lease = queue.lease("w1")
        assert len(lease["trace_id"]) == 16
        assert lease["payload"]["_trace"] == {
            "trace_id": lease["trace_id"], "attempt": 1}
        queue.close()

    def test_survives_requeue_and_journal_replay(self, tmp_path):
        queue = make_queue(tmp_path)
        spec = spec_for(seed=42)
        queue.submit("alice", spec.to_dict())
        first = queue.lease("w1")
        tid = first["trace_id"]
        # Infra failure: requeued, same trace id, next attempt.
        queue.fail(first["job_key"], first["token"], kind="crash",
                   error="worker died")
        second = queue.lease("w2")
        assert second["trace_id"] == tid
        assert second["payload"]["_trace"]["attempt"] == 2
        # Queue dies with the lease open (no commit journaled) ...
        queue.close()
        reopened = JobQueue(queue.root, lease_s=5.0, checkpoint_every=0)
        run = reopened.runs[first["job_key"]]
        assert run.state == RUN_QUEUED     # crashed lease requeued
        third = reopened.lease("w3")
        # ... and the replayed run still carries the ingest trace id.
        assert third["trace_id"] == tid
        assert third["payload"]["_trace"]["attempt"] == 3
        reopened.close()

    def test_worker_spans_ride_the_record_and_stitch(self, tmp_path):
        queue = make_queue(tmp_path, checkpoint_every=2000)
        spec = spec_for(seed=43)
        queue.submit("alice", spec.to_dict())
        lease = queue.lease("w1")
        record = execute_job(lease["payload"])
        meta = record["meta"]
        assert meta["trace_id"] == lease["trace_id"]
        names = {s["name"] for s in meta["host_spans"]}
        assert "worker.attempt" in names and "sim.run" in names
        assert "ckpt.restore" in names   # ckpt routing was on
        queue.commit(lease["job_key"], lease["token"], record)
        doc = queue.stitched_trace(lease["job_key"])
        assert validate_chrome_trace(doc) == []
        stitched = {e.get("name") for e in doc["traceEvents"]
                    if e.get("ph") == "X"}
        # Queue-side and worker-side spans of one trace, one document.
        assert {"queue.wait", "lease.held", "worker.attempt",
                "sim.run"} <= stitched
        assert set(HOST_SPAN_NAMES) >= {"queue.wait", "lease.held"}
        queue.close()


# ------------------------------------------------------------- /metrics

class TestQueueMetrics:
    def test_scrape_during_active_lease(self, tmp_path):
        queue = make_queue(tmp_path)
        for seed in (1, 2, 3):
            queue.submit("alice", spec_for(seed=seed).to_dict())
        lease = queue.lease("w1")
        families = parse_prometheus(queue.prometheus_text())
        depth = counter_values(families, "repro_queue_depth", "tenant")
        assert depth["alice"] == 2           # one of three is leased
        states = counter_values(families, "repro_runs", "state")
        assert states[RUN_LEASED] == 1 and states[RUN_QUEUED] == 2
        # Lease-age samples exist only while a lease is live.
        ages = families["repro_lease_age_seconds"]["samples"]
        assert len(ages) == 1
        assert families["repro_oldest_lease_age_seconds"]
        spec = spec_of(lease)
        queue.commit(lease["job_key"], lease["token"], record_for(spec))
        after = parse_prometheus(queue.prometheus_text())
        assert "repro_lease_age_seconds" not in after
        queue.close()

    def test_counters_monotonic_mid_flood(self, tmp_path):
        queue = make_queue(tmp_path)
        last = {}
        for wave in range(4):
            for seed in range(wave * 5, wave * 5 + 5):
                queue.submit("alice", spec_for(seed=100 + seed).to_dict())
            lease = queue.lease("w1")
            spec = spec_of(lease)
            queue.commit(lease["job_key"], lease["token"],
                         record_for(spec))
            families = parse_prometheus(queue.prometheus_text())
            jobs = counter_values(families, "repro_jobs_total", "event")
            cache = counter_values(families, "repro_cache_ops_total",
                                   "op")
            now = {**{f"jobs:{k}": v for k, v in jobs.items()},
                   **{f"cache:{k}": v for k, v in cache.items()}}
            for key, value in last.items():
                assert now.get(key, 0) >= value, (key, wave)
            assert jobs["queued"] == (wave + 1) * 5
            assert jobs["finished"] == wave + 1
            last = now
        fsync = parse_prometheus(queue.prometheus_text())[
            "repro_journal_fsync_microseconds"]
        assert fsync["type"] == "histogram"
        assert fsync["samples"][
            ("repro_journal_fsync_microseconds_count", ())] > 0
        queue.close()


@pytest.fixture()
def service(tmp_path):
    queue = JobQueue(str(tmp_path / "serve"), lease_s=5.0,
                     checkpoint_every=0)
    svc = ServeService(queue, housekeeping_s=0.05).start()
    client = ServeClient(svc.url)
    try:
        yield svc, client
    finally:
        client.close()
        svc.stop()


class TestHTTPObservability:
    def test_metrics_endpoint_speaks_prometheus(self, service):
        svc, client = service
        client.submit("alice", spec_for(seed=51).to_dict())
        lease = client.lease("w1")
        text = client.metrics()
        families = parse_prometheus(text)   # strict: raises on bad text
        assert "repro_serve_uptime_seconds" in families
        assert counter_values(families, "repro_queue_depth",
                              "tenant") == {"alice": 0}
        ages = counter_values(families, "repro_lease_age_seconds",
                              "worker")
        assert set(ages) == {"w1"}
        spec = spec_of(lease)
        client.commit(lease["job_key"], lease["token"],
                      record_for(spec))
        again = parse_prometheus(client.metrics())
        jobs = counter_values(again, "repro_jobs_total", "event")
        assert jobs["finished"] == 1
        workers = counter_values(again, "repro_worker_jobs_total",
                                 "worker")
        assert workers["w1"] == 1

    def test_long_poll_events_sees_concurrent_commit(self, service):
        svc, client = service
        view = client.submit("alice", spec_for(seed=52).to_dict())
        job_key = view["job_key"]
        lease = client.lease("w1")
        _, offset = client.events(offset=0)   # drain the backlog

        def commit_later():
            time.sleep(0.3)
            spec = spec_of(lease)
            with ServeClient(svc.url) as client2:
                client2.commit(lease["job_key"], lease["token"],
                               record_for(spec))

        thread = threading.Thread(target=commit_later, daemon=True)
        t0 = time.time()
        thread.start()
        events, _ = client.events(offset=offset, job=job_key, wait_s=10)
        waited = time.time() - t0
        thread.join()
        assert any(e["kind"] == "finished" for e in events), events
        assert 0.1 < waited < 8.0   # long-poll, not timeout

    def test_flight_endpoint_reports_ring(self, service):
        svc, client = service
        client.submit("alice", spec_for(seed=53).to_dict())
        payload = client.flight()
        assert payload["recorded"] >= 1
        assert payload["dropped"] == 0
        assert any(e["kind"] == "queued" for e in payload["events"])

    def test_stitched_trace_over_http(self, service):
        svc, client = service
        view = client.submit("alice", spec_for(seed=54).to_dict())
        lease = client.lease("w1")
        record = execute_job(lease["payload"])
        client.commit(lease["job_key"], lease["token"], record)
        doc = client.trace(view["job_key"])
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["trace_id"] == lease["trace_id"]


# ----------------------------------------------------- status formatting

class TestSharedGauges:
    def test_gauge_lines_cover_serve_status(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("alice", spec_for(seed=61).to_dict())
        lease = queue.lease("w1")
        lines = gauge_lines(queue.status())
        text = "\n".join(lines)
        assert "alice" in text and "backlog 1" in text
        assert "oldest lease age" in text
        queue.fail(lease["job_key"], lease["token"], kind="invariant",
                   error="seeded")
        text = "\n".join(gauge_lines(queue.status()))
        assert "failure classes" in text and "invariant" in text
        queue.close()

    def test_gauge_lines_cover_orchestrate_counters(self):
        (line,) = gauge_lines({"cache": {"hit": 3, "miss": 2,
                                         "quarantined": 1}})
        assert "3 hits" in line or "hit" in line


# ---------------------------------------------------- collapsed profiles

class TestCollapsedProfile:
    def test_collapsed_stack_format(self, tmp_path):
        from repro.config import config_for
        from repro.harness.runner import run_workload
        from repro.obs.telemetry import Telemetry, TelemetryConfig
        from repro.workloads.microbench import LockMicrobench
        telemetry = Telemetry(TelemetryConfig(profile=True))
        run_workload(config_for("CB-One", num_cores=4),
                     LockMicrobench("ttas", iterations=2),
                     telemetry=telemetry)
        lines = telemetry.profiler.collapsed()
        assert lines
        for line in lines:
            stack, _, value = line.rpartition(" ")
            assert int(value) > 0
            assert ";" in stack        # module;qualname frames
            assert " " not in stack
        out = str(tmp_path / "profile.collapsed")
        count = telemetry.profiler.write_collapsed(out)
        assert count == len(lines)
        with open(out) as handle:
            assert handle.read().splitlines() == lines
