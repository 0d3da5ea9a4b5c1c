"""Tests for repro.chaos: fault shims, crash-point exploration, and
the graceful-degradation machinery they force on the service plane."""

import errno
import json
import os

import pytest

from repro import iohooks
from repro.chaos import campaign
from repro.chaos.campaign import run_campaign, run_drill
from repro.chaos.crashpoints import enumerate_crash_points, run_crash_point
from repro.chaos.fio import FaultyIO, SiteCounter
from repro.chaos.httpshim import ChaosTransport
from repro.chaos.lifecycle import (TENANT, audit_queue, lifecycle_spec,
                                   lifecycle_specs, recover_and_verify,
                                   run_lifecycle)
from repro.chaos.parity import empty_plan_parity
from repro.chaos.plan import (HTTP_DROP, HTTP_DROP_RESPONSE, HTTP_ERROR,
                              HTTP_TRUNCATE, READ_EIO, TORN_WRITE,
                              WRITE_ENOSPC, FSYNC_ENOSPC, ChaosPlan,
                              HostFault, make_chaos_plan)
from repro.ioutil import (CorruptArtifactError, atomic_write_json,
                          read_checked_json, read_events, sha256_of)
from repro.orchestrate.jobspec import JobSpec
from repro.serve.api import ServeService
from repro.serve.client import ServeClient, ServeHTTPError
from repro.serve.journal import Journal, journal_path
from repro.serve.model import (HEALTH_OK, HEALTH_READ_ONLY, RUN_FAILED,
                               SUB_FAILED, SUB_QUEUED,
                               BacklogExceededError,
                               ServiceUnavailableError)
from repro.serve.queue import JobQueue


def spec_for(seed=1):
    return JobSpec(config_label="CB-All", workload="lock",
                   workload_params={"lock_name": "ttas", "iterations": 2},
                   config_overrides={"num_cores": 4}, seed=seed)


def record_for(spec, cycles=123):
    return {"spec": spec.to_dict(),
            "result": {"cycles": cycles, "traffic": 7, "llc_sync": 3},
            "meta": {"wall_s": 0.01}}


@pytest.fixture(autouse=True)
def _clean_hooks():
    """A failed test must not leave a handler installed process-wide."""
    yield
    iohooks.uninstall()


# ---------------------------------------------------------------- plans

class TestChaosPlan:
    def test_content_addressed_and_deterministic(self):
        a = make_chaos_plan(seed=9, io_faults=3, http_faults=3)
        b = make_chaos_plan(seed=9, io_faults=3, http_faults=3)
        c = make_chaos_plan(seed=10, io_faults=3, http_faults=3)
        assert a.plan_key() == b.plan_key()
        assert a.plan_key() != c.plan_key()
        assert a.canonical_json() == b.canonical_json()

    def test_key_independent_of_fault_order(self):
        f1 = HostFault(kind=WRITE_ENOSPC, site="journal.append.write")
        f2 = HostFault(kind=READ_EIO, site="ioutil.read", nth=3)
        assert ChaosPlan(faults=[f1, f2]).plan_key() == \
            ChaosPlan(faults=[f2, f1]).plan_key()

    def test_round_trip_and_save_load(self, tmp_path):
        plan = make_chaos_plan(seed=4)
        again = ChaosPlan.from_dict(plan.to_dict())
        assert again.plan_key() == plan.plan_key()
        path = str(tmp_path / "plan.json")
        plan.save(path)
        assert ChaosPlan.load(path).plan_key() == plan.plan_key()

    def test_key_is_pinned(self):
        # Recorded before plans moved onto the shared ioutil base.
        assert make_chaos_plan(seed=1).plan_key() == \
            "be1ccb922a0809915ca82db532acd819d146d17dde1c5a7bea97a5a9407fea31"

    def test_bare_plan_under_a_wrong_key_name_is_refused(self, tmp_path):
        plan = make_chaos_plan(seed=4)
        path = str(tmp_path / f"{'0' * 64}.json")
        atomic_write_json(path, plan.to_dict())
        with pytest.raises(ValueError):
            ChaosPlan.load(path)

    def test_campaign_manifest_loads_as_its_plan(self, tmp_path):
        # The shape repro.chaos.campaign.run_campaign writes.
        plan = make_chaos_plan(seed=7, label="campaign-seed-7")
        path = str(tmp_path / "campaign-seed7.json")
        atomic_write_json(path, {"schema": "chaos-campaign-v1",
                                 "plan_key": plan.plan_key(),
                                 "plan": plan.to_dict(), "jobs": 6,
                                 "ok": True}, indent=2)
        loaded, doc = ChaosPlan.load_doc(path)
        assert loaded.plan_key() == plan.plan_key()
        assert doc["jobs"] == 6
        assert ChaosPlan.load(path).faults == plan.faults

    def test_load_rejects_tampered_key(self, tmp_path):
        plan = make_chaos_plan(seed=4)
        path = str(tmp_path / "plan.json")
        atomic_write_json(path, {"plan": plan.to_dict(),
                                 "plan_key": "f" * 64})
        with pytest.raises(ValueError):
            ChaosPlan.load(path)


# ------------------------------------------------------------- IO shims

class TestFaultyIO:
    def test_write_enospc_at_nth_hit(self, tmp_path):
        plan = ChaosPlan(faults=[HostFault(
            kind=WRITE_ENOSPC, site="journal.append.write", nth=2)])
        journal = Journal(str(tmp_path / "j.jsonl"))
        with FaultyIO(plan) as fio:
            journal.append("submit", sub="a-1", job_key="k1")
            with pytest.raises(OSError) as exc:
                journal.append("submit", sub="a-2", job_key="k2")
            assert exc.value.errno == errno.ENOSPC
        journal.close()
        assert fio.injected and \
            fio.injected[0]["kind"] == WRITE_ENOSPC
        entries = read_events(str(tmp_path / "j.jsonl"))
        assert [e["sub"] for e in entries] == ["a-1"]

    def test_fsync_enospc_on_atomic_write_cleans_tmp(self, tmp_path):
        plan = ChaosPlan(faults=[HostFault(
            kind=FSYNC_ENOSPC, site="ioutil.tmp.fsync")])
        path = str(tmp_path / "a.json")
        with FaultyIO(plan):
            with pytest.raises(OSError):
                atomic_write_json(path, {"v": 1})
        assert not os.path.exists(path)
        assert not [n for n in os.listdir(str(tmp_path))
                    if n.endswith(".tmp")]

    def test_torn_journal_append_replays_complete_prefix(self, tmp_path):
        plan = ChaosPlan(faults=[HostFault(
            kind=TORN_WRITE, site="journal.append.write", nth=2,
            magnitude=11)])
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path)
        with FaultyIO(plan):
            journal.append("submit", sub="a-1", job_key="k1")
            with pytest.raises(OSError) as exc:
                journal.append("submit", sub="a-2", job_key="k2")
            assert "torn journal append" in str(exc.value)
        journal.close()
        entries = read_events(path)
        assert [e["sub"] for e in entries] == ["a-1"]

    def test_read_eio_surfaces_as_corrupt_artifact(self, tmp_path):
        path = str(tmp_path / "a.json")
        body = {"v": 1}
        atomic_write_json(path, dict(body, integrity=sha256_of(body)))
        plan = ChaosPlan(faults=[HostFault(kind=READ_EIO,
                                           site="ioutil.read")])
        with FaultyIO(plan):
            with pytest.raises(CorruptArtifactError):
                read_checked_json(path, "integrity")
        # The file itself was never damaged: a bare re-read succeeds.
        assert read_checked_json(path, "integrity") == body

    def test_disk_full_toggle(self, tmp_path):
        with FaultyIO() as fio:
            fio.disk_full = True
            with pytest.raises(OSError) as exc:
                atomic_write_json(str(tmp_path / "x.json"), {})
            assert exc.value.errno == errno.ENOSPC
            hits_before = dict(fio.hits)
            fio.disk_full = False
            atomic_write_json(str(tmp_path / "x.json"), {})
        assert hits_before  # sites were seen while full

    def test_handlers_do_not_stack(self):
        with FaultyIO():
            with pytest.raises(RuntimeError):
                iohooks.install(SiteCounter())


class TestEmptyPlanParity:
    def test_bit_identical_files(self, tmp_path):
        report = empty_plan_parity(str(tmp_path))
        assert report["identical"], report
        assert report["bare"]  # actually compared something

    def test_http_parity_against_live_service(self, tmp_path):
        queue = JobQueue(str(tmp_path / "s"), checkpoint_every=0)
        service = ServeService(queue).start()
        try:
            with ServeClient(service.url) as client:
                bare = client.health()
            with ServeClient(service.url,
                             transport=ChaosTransport(ChaosPlan())) as client:
                shimmed = client.health()
            assert bare == shimmed
        finally:
            service.stop()


# ---------------------------------------------------- crash-point sweep

class TestCrashPoints:
    def test_catalog_covers_every_journal_and_rename_site(self):
        points = enumerate_crash_points(jobs=1)
        sites = {site for site, _ in points}
        # The acceptance bar: every journal fsync/rename-protocol site
        # in the lifecycle is a crash point.
        for required in ("journal.append.write", "journal.append.fsync",
                         "journal.append.synced", "ioutil.tmp.write",
                         "ioutil.tmp.fsync", "ioutil.publish.rename",
                         "ioutil.dir.fsync", "ioutil.published"):
            assert required in sites, f"missing crash site {required}"

    @pytest.mark.parametrize("site,nth", [
        ("journal.append.fsync", 1),   # submit ack never made
        ("journal.append.fsync", 2),   # submit acked, commit pending
        ("ioutil.publish.rename", 1),  # died mid cache.put
        ("journal.append.synced", 2),  # commit durable, ack printed?
    ])
    def test_kill_and_recover_loses_and_duplicates_nothing(self, site,
                                                           nth):
        report = run_crash_point(site, nth, jobs=1)
        assert report["killed"], report
        assert report["ok"], report["problems"]


# ---------------------------------------------------------------- audit

def _lifecycle_root(tmp_path, capsys):
    """A queue root after a clean two-job lifecycle, plus its acks."""
    root = str(tmp_path / "q")
    run_lifecycle(root, jobs=2)
    acked = dict(line[len("ACK "):].split(" ", 1)
                 for line in capsys.readouterr().out.splitlines()
                 if line.startswith("ACK "))
    return root, acked


def _unknown_sub(queue, acked):
    acked["alice-9999999"] = next(iter(acked.values()))
    return queue, {}


def _acked_still_queued(queue, acked):
    queue.subs[next(iter(acked))].state = SUB_QUEUED
    return queue, {}


def _acked_run_failed(queue, acked):
    sub_id, job_key = next(iter(acked.items()))
    queue.subs[sub_id].state = SUB_FAILED
    queue.runs[job_key].state = RUN_FAILED
    return queue, {}


def _committed_not_done(queue, acked):
    view = queue.submit(TENANT, lifecycle_spec(2).to_dict())
    return queue, {"committed": [view["job_key"]]}


def _second_commit_line(queue, acked):
    queue.close()
    with Journal(journal_path(queue.root)) as journal:
        journal.append("commit", job_key=next(iter(acked.values())), gen=1)
    reopened = JobQueue(queue.root, lease_s=30.0, checkpoint_every=0)
    # The cold replay treats the second line as a no-op: the journal
    # is the only place the double commit still shows.
    assert all(run.commits <= 1 for run in reopened.runs.values())
    return reopened, {}


def _committed_twice_in_memory(queue, acked):
    queue.runs[next(iter(acked.values()))].commits = 2
    return queue, {}


def _record_deleted(queue, acked):
    os.remove(queue.cache.path_for(lifecycle_spec(0).job_key()))
    return queue, {"specs": lifecycle_specs(2)}


def _run_left_leased(queue, acked):
    queue.submit(TENANT, lifecycle_spec(2).to_dict())
    assert queue.lease("stuck-worker") is not None
    return queue, {}


class TestAudit:
    @pytest.mark.parametrize("inject,count", [
        (_unknown_sub, "lost"),
        (_acked_still_queued, "lost"),
        (_acked_run_failed, "lost"),
        (_committed_not_done, "lost"),
        (_second_commit_line, "duplicate_commits"),
        (_committed_twice_in_memory, "over_committed"),
        (_record_deleted, "missing_records"),
        (_run_left_leased, None),
    ], ids=lambda v: v.__name__.strip("_") if callable(v) else v)
    def test_each_violation_is_caught(self, tmp_path, capsys, inject,
                                      count):
        root, acked = _lifecycle_root(tmp_path, capsys)
        queue = JobQueue(root, lease_s=30.0, checkpoint_every=0)
        try:
            clean = audit_queue(queue, acked, acked.values(),
                                lifecycle_specs(2))
            assert clean["problems"] == [], clean
            assert clean["commit_journal_lines"] == 2
            queue, kwargs = inject(queue, acked)
            audit = audit_queue(queue, acked, **kwargs)
        finally:
            queue.close()
        if count is None:   # a leftover run has no count of its own
            assert audit["problems"][0].startswith("unfinished runs")
        else:
            assert audit[count] == 1, audit
        assert audit["problems"]

    def test_duplicate_commit_line_fails_both_verdicts(self, tmp_path,
                                                       capsys):
        root, acked = _lifecycle_root(tmp_path, capsys)
        with Journal(journal_path(root)) as journal:
            journal.append("commit", job_key=next(iter(acked.values())),
                           gen=1)
        report = recover_and_verify(root, acked, list(acked.values()),
                                    jobs=2)
        assert report["ok"] is False
        assert report["journal_commit_lines"] == 3
        verdict = campaign._verify(root, acked, lifecycle_specs(2),
                                   list(acked.values()))
        assert verdict["checks"]["none_duplicated"] is False
        assert verdict["checks"]["none_lost"] is True


# ------------------------------------------------- graceful degradation

class TestDegradation:
    def test_disk_full_trips_read_only_and_probe_heals(self, tmp_path):
        queue = JobQueue(str(tmp_path / "s"), checkpoint_every=0,
                         probe_interval_s=0.0)
        try:
            with FaultyIO() as fio:
                queue.submit("alice", spec_for(1).to_dict())
                fio.disk_full = True
                with pytest.raises(ServiceUnavailableError) as exc:
                    queue.submit("alice", spec_for(2).to_dict())
                assert exc.value.retry_after is not None
                assert queue.health == HEALTH_READ_ONLY
                # Reads still work; leasing is off.
                assert queue.status()["health"] == HEALTH_READ_ONLY
                assert queue.lease("w") is None
                assert queue.healthz()["state"] == HEALTH_READ_ONLY
                # Probe fails while the disk is full...
                assert queue.health_probe() == HEALTH_READ_ONLY
                # ...and heals the instant it is not.
                fio.disk_full = False
                assert queue.health_probe() == HEALTH_OK
            view = queue.submit("alice", spec_for(2).to_dict())
            assert view["state"] == "queued"
            assert queue.counters["health_recoveries"] == 1
        finally:
            queue.close()

    def test_backlog_watermark_returns_429(self, tmp_path):
        queue = JobQueue(str(tmp_path / "s"), checkpoint_every=0,
                         max_queued_runs=2)
        try:
            queue.submit("alice", spec_for(1).to_dict())
            queue.submit("alice", spec_for(2).to_dict())
            with pytest.raises(BacklogExceededError) as exc:
                queue.submit("alice", spec_for(3).to_dict())
            assert exc.value.http_status == 429
            assert exc.value.retry_after is not None
            assert queue.counters["rejected_backlog"] == 1
            # Near-watermark backlog shows up as degraded.
            assert queue.healthz()["state"] == "degraded"
        finally:
            queue.close()

    def test_metrics_expose_health_and_rejections(self, tmp_path):
        queue = JobQueue(str(tmp_path / "s"), checkpoint_every=0,
                         max_queued_runs=1)
        try:
            queue.submit("alice", spec_for(1).to_dict())
            with pytest.raises(BacklogExceededError):
                queue.submit("alice", spec_for(2).to_dict())
            text = queue.prometheus_text()
            assert 'repro_health_state{state="ok"} 0' in text
            assert 'repro_health_state{state="degraded"} 1' in text
            assert ('repro_submit_rejections_total{reason="backlog"} 1'
                    in text)
            assert 'repro_io_fsync_errors_total{layer="journal"} 0' \
                in text
        finally:
            queue.close()

    def test_drill_round_trip(self, tmp_path):
        manifest = run_drill(str(tmp_path / "drill"),
                             probe_interval_s=0.05)
        assert manifest["ok"], manifest["steps"]
        assert len(manifest["steps"]) == 6


# -------------------------------------------------------- client retry

def _scripted_transport(script):
    """A transport that pops canned (status, body, headers) responses;
    a response of 'drop' raises ConnectionResetError."""
    calls = []

    def transport(method, url, data, timeout, headers):
        calls.append((method, url))
        step = script.pop(0)
        if step == "drop":
            raise ConnectionResetError("scripted drop")
        return step

    transport.calls = calls
    return transport


class TestClientRetry:
    def test_retries_503_with_retry_after_then_succeeds(self):
        ok = (200, b'{"v": 1}', {})
        busy = (503, b'{"error": "read-only", "retry_after": 0.0}',
                {"Retry-After": "0.0"})
        client = ServeClient("http://x", retries=3, backoff_s=0.001,
                             retry_seed=1,
                             transport=_scripted_transport(
                                 [busy, busy, ok]))
        assert client.request("GET", "/v1/status") == {"v": 1}
        assert client.retry_counts["503"] == 2

    def test_429_without_retry_after_raises_immediately(self):
        quota = (429, b'{"error": "quota"}', {})
        client = ServeClient("http://x", retries=5, backoff_s=0.001,
                             transport=_scripted_transport([quota]))
        with pytest.raises(ServeHTTPError) as exc:
            client.request("GET", "/v1/status")
        assert exc.value.status == 429
        assert not client.retry_counts

    def test_connection_error_retried_only_when_idempotent(self):
        ok = (200, b'{}', {})
        client = ServeClient("http://x", retries=2, backoff_s=0.001,
                             transport=_scripted_transport(["drop", ok]))
        assert client.request("GET", "/v1/status") == {}
        client2 = ServeClient("http://x", retries=2, backoff_s=0.001,
                              transport=_scripted_transport(["drop", ok]))
        with pytest.raises(OSError):
            client2.request("POST", "/v1/worker/fail", {"x": 1})

    def test_truncated_body_retried_for_gets(self):
        torn = (200, b'{"v": ', {})
        ok = (200, b'{"v": 1}', {})
        client = ServeClient("http://x", retries=2, backoff_s=0.001,
                             transport=_scripted_transport([torn, ok]))
        assert client.request("GET", "/v1/status") == {"v": 1}
        assert client.retry_counts["bad_body"] == 1

    def test_zero_budget_is_the_old_behavior(self):
        busy = (503, b'{"error": "x", "retry_after": 1}',
                {"Retry-After": "1"})
        client = ServeClient("http://x",
                             transport=_scripted_transport([busy]))
        with pytest.raises(ServeHTTPError):
            client.request("GET", "/v1/status")


class TestWaitIdleLongPoll:
    def test_wait_idle_rides_event_stream(self, tmp_path):
        queue = JobQueue(str(tmp_path / "s"), checkpoint_every=0)
        service = ServeService(queue).start()
        try:
            with ServeClient(service.url) as client:
                spec = spec_for(1)
                client.submit("alice", spec.to_dict())
                lease = client.lease("w")
                client.commit(lease["job_key"], lease["token"],
                              record_for(spec))
                status = client.wait_idle(timeout_s=10.0)
            assert status["runs"].get("leased", 0) == 0
        finally:
            service.stop()

    def test_wait_idle_times_out(self, tmp_path):
        queue = JobQueue(str(tmp_path / "s"), checkpoint_every=0)
        service = ServeService(queue).start()
        try:
            with ServeClient(service.url) as client:
                client.submit("alice", spec_for(1).to_dict())
                with pytest.raises(TimeoutError):
                    client.wait_idle(timeout_s=0.3)
        finally:
            service.stop()


# ------------------------------------------------------------ HTTP shim

class TestChaosTransport:
    def test_injected_503_is_absorbed_by_retry_budget(self, tmp_path):
        plan = ChaosPlan(faults=[HostFault(
            kind=HTTP_ERROR, site="POST /v1/jobs", nth=1)])
        queue = JobQueue(str(tmp_path / "s"), checkpoint_every=0)
        service = ServeService(queue).start()
        try:
            shim = ChaosTransport(plan)
            with ServeClient(service.url, retries=3, backoff_s=0.001,
                             retry_seed=0, transport=shim) as client:
                view = client.submit("alice", spec_for(1).to_dict())
            assert view["state"] == "queued"
            assert shim.injected[0]["kind"] == HTTP_ERROR
            assert client.retry_counts["503"] == 1
        finally:
            service.stop()

    def test_dropped_response_after_server_side_effect(self, tmp_path):
        plan = ChaosPlan(faults=[HostFault(
            kind=HTTP_DROP_RESPONSE, site="POST /v1/jobs", nth=1)])
        queue = JobQueue(str(tmp_path / "s"), checkpoint_every=0)
        service = ServeService(queue).start()
        try:
            with ServeClient(service.url, retries=2, backoff_s=0.001,
                             retry_seed=0,
                             transport=ChaosTransport(plan)) as client:
                # submit is declared idempotent (content-address dedup),
                # so the lost reply is retried and lands on the same run.
                view = client.submit("alice", spec_for(1).to_dict())
            assert view["state"] == "queued"
            assert len(queue.runs) == 1
        finally:
            service.stop()

    def test_drop_and_truncate(self, tmp_path):
        plan = ChaosPlan(faults=[
            HostFault(kind=HTTP_DROP, site="GET /v1/status", nth=1),
            HostFault(kind=HTTP_TRUNCATE, site="GET /v1/health", nth=1,
                      magnitude=3)])
        queue = JobQueue(str(tmp_path / "s"), checkpoint_every=0)
        service = ServeService(queue).start()
        try:
            with ServeClient(service.url, retries=2, backoff_s=0.001,
                             retry_seed=0,
                             transport=ChaosTransport(plan)) as client:
                assert "runs" in client.status()     # drop retried
                assert client.health()["ok"] is True  # truncate retried
        finally:
            service.stop()


# ------------------------------------------------------------ campaign

class TestCampaign:
    @pytest.mark.slow
    def test_seeded_campaign_holds_invariants(self, tmp_path):
        plan = make_chaos_plan(seed=1, io_faults=5, http_faults=5,
                               label="unit")
        manifest = run_campaign(str(tmp_path / "c"), plan, jobs=4,
                                deadline_s=40.0)
        assert manifest["ok"], manifest["problems"]
        assert manifest["plan_key"] == plan.plan_key()
        assert manifest["checks"]["none_lost"]
        assert manifest["checks"]["none_duplicated"]

    def test_cli_drill_writes_manifest(self, tmp_path):
        from repro.chaos.cli import main
        out = str(tmp_path / "m" / "drill.json")
        rc = main(["drill", "--root", str(tmp_path / "d"),
                   "--out", out])
        assert rc == 0
        with open(out) as handle:
            assert json.load(handle)["ok"] is True
