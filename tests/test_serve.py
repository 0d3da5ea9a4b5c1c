"""repro.serve unit and integration tests: the journal, the queue state
machine (dedup, quotas, fair share, lease fencing), crash-replay, and
the HTTP service round trip.

The queue-level tests drive :class:`~repro.serve.queue.JobQueue`
directly with fabricated records (no simulation) so every lease/commit
corner case runs in microseconds; the HTTP tests stand up a real
:class:`~repro.serve.api.ServeService` on a loopback port and act as
the worker themselves via the client's worker verbs. The full
worker-process story (SIGKILL, resume, 1000-job flood) lives in
``test_serve_load.py``.
"""

import builtins
import errno
import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.ioutil import read_events
from repro.obs.promtext import parse_prometheus
from repro.orchestrate import execute_job
from repro.orchestrate.jobspec import JobSpec
from repro.orchestrate.status import job_status_entry
from repro.serve import (JobQueue, Journal, QuotaExceededError,
                         ServeClient, ServeHTTPError, ServeService,
                         ServiceUnavailableError, StaleLeaseError,
                         spawn_worker)
from repro.serve import api
from repro.serve.journal import journal_path
from repro.serve.model import (RUN_DONE, RUN_FAILED, RUN_LEASED,
                               RUN_QUEUED, SUB_DONE, SUB_QUEUED)
from tests.test_appendlog import open_handles


def spec_for(seed=1, label="CB-All", iterations=2, cores=4):
    return JobSpec(config_label=label, workload="lock",
                   workload_params={"lock_name": "ttas",
                                    "iterations": iterations},
                   config_overrides={"num_cores": cores}, seed=seed)


def record_for(spec, cycles=123, **meta):
    """A well-formed record without running a simulation."""
    return {"spec": spec.to_dict(),
            "result": {"cycles": cycles, "traffic": 7, "llc_sync": 3},
            "meta": {"wall_s": 0.01, **meta}}


def make_queue(tmp_path, **kwargs):
    kwargs.setdefault("lease_s", 5.0)
    kwargs.setdefault("checkpoint_every", 0)   # no ckpt routing in units
    return JobQueue(str(tmp_path / "serve"), **kwargs)


class TestJournal:
    def test_append_and_replay(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path)
        journal.append("submit", sub="t-1", job_key="k1")
        journal.append("lease", job_key="k1", gen=1)
        journal.close()
        entries = read_events(path)
        assert [e["op"] for e in entries] == ["submit", "lease"]

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path)
        journal.append("submit", sub="t-1", job_key="k1")
        journal.close()
        with open(path, "a") as handle:   # crash mid-append
            handle.write('{"op": "commit", "job_')
        entries = read_events(path)
        assert [e["op"] for e in entries] == ["submit"]

    def test_batch_append_is_one_write(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path)
        journal.append_many([{"op": "submit", "sub": f"t-{i}"}
                             for i in range(50)])
        journal.close()
        assert len(read_events(path)) == 50


class TestSubmitDedup:
    def test_identical_specs_collapse_onto_one_run(self, tmp_path):
        queue = make_queue(tmp_path)
        spec = spec_for(seed=5).to_dict()
        views = [queue.submit(t, dict(spec))
                 for t in ("alice", "bob", "carol")]
        keys = {v["job_key"] for v in views}
        assert len(keys) == 1
        assert len(queue.runs) == 1
        run = queue.runs[keys.pop()]
        assert len(run.submissions) == 3
        assert run.tenants == {"alice", "bob", "carol"}
        queue.close()

    def test_piggyback_tenant_appears_in_status(self, tmp_path):
        # A tenant whose every submission dedup'd onto other tenants'
        # runs owns no run, but must still get a tenants row.
        queue = make_queue(tmp_path)
        spec = spec_for(seed=5).to_dict()
        queue.submit("alice", dict(spec))
        queue.submit("carol", dict(spec))
        tenants = queue.status()["tenants"]
        assert tenants["carol"]["submissions"] == 1
        assert tenants["carol"]["queued"] == 0  # run charged to alice
        assert tenants["alice"]["queued"] == 1
        queue.close()

    def test_done_run_answers_later_tenants_from_cache(self, tmp_path):
        queue = make_queue(tmp_path)
        spec = spec_for(seed=6)
        queue.submit("alice", spec.to_dict())
        lease = queue.lease("w1")
        queue.commit(lease["job_key"], lease["token"], record_for(spec))
        view = queue.submit("bob", spec.to_dict())
        assert view["state"] == SUB_DONE
        assert view["cache_hit"] is True
        queue.close()

    def test_prewarmed_cache_answers_without_queueing(self, tmp_path):
        queue = make_queue(tmp_path)
        spec = spec_for(seed=7)
        queue.cache.put(spec, record_for(spec))   # an earlier batch
        view = queue.submit("alice", spec.to_dict())
        assert view["state"] == SUB_DONE
        assert view["cache_hit"] is True
        assert queue.runs[spec.job_key()].state == RUN_DONE
        queue.close()

    def test_priority_is_max_over_attached_submissions(self, tmp_path):
        queue = make_queue(tmp_path)
        spec = spec_for(seed=8).to_dict()
        queue.submit("alice", dict(spec), priority=1)
        queue.submit("bob", dict(spec), priority=9)
        (run,) = queue.runs.values()
        assert run.priority == 9
        queue.close()

    def test_fresh_demand_revives_failed_run(self, tmp_path):
        queue = make_queue(tmp_path, max_attempts=1)
        spec = spec_for(seed=9)
        queue.submit("alice", spec.to_dict())
        lease = queue.lease("w1")
        queue.fail(lease["job_key"], lease["token"], "crash", "boom")
        run = queue.runs[spec.job_key()]
        assert run.state == RUN_FAILED
        queue.submit("bob", spec.to_dict())
        assert run.state == RUN_QUEUED
        assert run.attempts == 0
        queue.close()

    def test_bad_tenant_rejected(self, tmp_path):
        queue = make_queue(tmp_path)
        with pytest.raises(ValueError):
            queue.submit("", spec_for().to_dict())
        with pytest.raises(ValueError):
            queue.submit("a/b", spec_for().to_dict())
        queue.close()


class TestScheduling:
    def test_higher_priority_leases_first(self, tmp_path):
        queue = make_queue(tmp_path)
        low = queue.submit("alice", spec_for(seed=1).to_dict(),
                           priority=0)
        high = queue.submit("alice", spec_for(seed=2).to_dict(),
                            priority=5)
        lease = queue.lease("w1")
        assert lease["job_key"] == high["job_key"]
        assert queue.lease("w2")["job_key"] == low["job_key"]
        queue.close()

    def test_fair_share_prefers_least_loaded_tenant(self, tmp_path):
        queue = make_queue(tmp_path)
        for seed in range(1, 5):
            queue.submit("hog", spec_for(seed=seed).to_dict())
        polite = queue.submit("polite", spec_for(seed=10).to_dict())
        first = queue.lease("w1")          # both tenants at 0: tie -> hog
        assert queue.runs[first["job_key"]].tenant == "hog"
        second = queue.lease("w2")         # hog now has 1 lease
        assert second["job_key"] == polite["job_key"]
        queue.close()

    def test_lease_quota_caps_concurrency_per_tenant(self, tmp_path):
        queue = make_queue(tmp_path, quotas={"alice": 1})
        queue.submit("alice", spec_for(seed=1).to_dict())
        queue.submit("alice", spec_for(seed=2).to_dict())
        assert queue.lease("w1") is not None
        assert queue.lease("w2") is None          # quota reached
        queue.close()

    def test_submission_quota_rejects_the_flood(self, tmp_path):
        queue = make_queue(tmp_path, max_queued_per_tenant=2)
        queue.submit("alice", spec_for(seed=1).to_dict())
        queue.submit("alice", spec_for(seed=2).to_dict())
        with pytest.raises(QuotaExceededError):
            queue.submit("alice", spec_for(seed=3).to_dict())
        # ...but other tenants are unaffected.
        queue.submit("bob", spec_for(seed=4).to_dict())
        queue.close()

    def test_draining_stops_leasing(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("alice", spec_for().to_dict())
        queue.drain(True)
        assert queue.lease("w1") is None
        queue.drain(False)
        assert queue.lease("w1") is not None
        queue.close()


class TestLeaseLifecycle:
    def test_heartbeat_extends_the_lease(self, tmp_path):
        queue = make_queue(tmp_path, lease_s=5.0)
        queue.submit("alice", spec_for().to_dict())
        lease = queue.lease("w1")
        before = queue.runs[lease["job_key"]].lease_expires
        time.sleep(0.01)
        after = queue.heartbeat(lease["job_key"], lease["token"], "w1")
        assert after > before
        queue.close()

    def test_expired_lease_requeues_exactly_once(self, tmp_path):
        """Satellite: heartbeat loss -> requeued exactly once; the
        second sweep finds nothing."""
        queue = make_queue(tmp_path, lease_s=5.0)
        queue.submit("alice", spec_for().to_dict())
        lease = queue.lease("w1")
        late = time.time() + 6.0
        assert queue.expire_leases(now=late) == [lease["job_key"]]
        run = queue.runs[lease["job_key"]]
        assert run.state == RUN_QUEUED
        assert run.requeues == 1
        assert queue.expire_leases(now=late) == []      # exactly once
        assert run.requeues == 1
        queue.close()

    def test_zombie_cannot_double_commit(self, tmp_path):
        """Satellite: the lease generation fence. A worker that lost
        its lease commits late; the commit is refused, the run commits
        exactly once (to the re-leased worker's record)."""
        queue = make_queue(tmp_path, lease_s=5.0)
        spec = spec_for()
        queue.submit("alice", spec.to_dict())
        zombie = queue.lease("zombie")
        queue.expire_leases(now=time.time() + 6.0)      # zombie dies
        fresh = queue.lease("fresh")
        assert fresh["token"] > zombie["token"]

        with pytest.raises(StaleLeaseError):
            queue.commit(zombie["job_key"], zombie["token"],
                         record_for(spec, cycles=666))   # wrong result
        run = queue.runs[spec.job_key()]
        assert run.commits == 0
        assert run.stale_commits == 1
        assert run.state == RUN_LEASED                   # fresh still owns

        queue.commit(fresh["job_key"], fresh["token"],
                     record_for(spec, cycles=123))
        assert run.commits == 1
        assert queue.result(spec.job_key())["result"]["cycles"] == 123

        # Even later, the zombie's ghost is still fenced.
        with pytest.raises(StaleLeaseError):
            queue.commit(zombie["job_key"], zombie["token"],
                         record_for(spec, cycles=666))
        assert run.commits == 1
        assert queue.result(spec.job_key())["result"]["cycles"] == 123
        queue.close()

    def test_zombie_heartbeat_and_fail_are_fenced_too(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("alice", spec_for().to_dict())
        zombie = queue.lease("zombie")
        queue.expire_leases(now=time.time() + 6.0)
        with pytest.raises(StaleLeaseError):
            queue.heartbeat(zombie["job_key"], zombie["token"], "zombie")
        with pytest.raises(StaleLeaseError):
            queue.fail(zombie["job_key"], zombie["token"], "crash", "x")
        queue.close()

    def test_deterministic_failure_is_terminal(self, tmp_path):
        queue = make_queue(tmp_path, max_attempts=5)
        queue.submit("alice", spec_for().to_dict())
        lease = queue.lease("w1")
        view = queue.fail(lease["job_key"], lease["token"],
                          "invariant", "SC-for-DRF violated")
        assert view["state"] == RUN_FAILED
        run = queue.runs[lease["job_key"]]
        assert run.attempts == 1                 # no retries burned
        assert run.kind == "invariant"
        queue.close()

    def test_transient_failure_requeues_until_max_attempts(self, tmp_path):
        queue = make_queue(tmp_path, max_attempts=3)
        queue.submit("alice", spec_for().to_dict())
        for attempt in (1, 2):
            lease = queue.lease("w1")
            queue.fail(lease["job_key"], lease["token"], "crash", "boom")
            assert queue.runs[lease["job_key"]].state == RUN_QUEUED
        lease = queue.lease("w1")
        queue.fail(lease["job_key"], lease["token"], "crash", "boom")
        assert queue.runs[lease["job_key"]].state == RUN_FAILED
        queue.close()

    def test_commit_settles_every_tenants_submission(self, tmp_path):
        queue = make_queue(tmp_path)
        spec = spec_for()
        subs = [queue.submit(t, spec.to_dict())
                for t in ("alice", "bob", "carol")]
        lease = queue.lease("w1")
        queue.commit(lease["job_key"], lease["token"],
                     record_for(spec, resumed_from=300))
        for sub in subs:
            view = queue.submission_view(sub["submission_id"])
            assert view["state"] == SUB_DONE
            assert view["resumed_from"] == 300
        queue.close()

    def test_cancel_releases_run_only_when_unanimous(self, tmp_path):
        queue = make_queue(tmp_path)
        spec = spec_for()
        a = queue.submit("alice", spec.to_dict())
        b = queue.submit("bob", spec.to_dict())
        queue.cancel(a["submission_id"])
        assert queue.runs[spec.job_key()].state == RUN_QUEUED  # bob waits
        queue.cancel(b["submission_id"])
        assert queue.runs[spec.job_key()].state == "cancelled"
        queue.close()


class TestReplay:
    def test_restart_restores_submissions_and_results(self, tmp_path):
        root = str(tmp_path / "serve")
        queue = JobQueue(root)
        spec = spec_for()
        queue.submit("alice", spec.to_dict())
        lease = queue.lease("w1")
        queue.commit(lease["job_key"], lease["token"], record_for(spec))
        queue.submit("bob", spec_for(seed=2).to_dict())
        queue.close()

        revived = JobQueue(root)
        assert revived.runs[spec.job_key()].state == RUN_DONE
        assert revived.runs[spec_for(seed=2).job_key()].state == RUN_QUEUED
        assert revived.subs["alice-0000001"].state == SUB_DONE
        assert revived.result(spec.job_key())["result"]["cycles"] == 123
        # Fresh ids keep counting where the old life stopped.
        view = revived.submit("carol", spec_for(seed=3).to_dict())
        assert view["submission_id"] == "carol-0000003"
        revived.close()

    def test_open_lease_is_requeued_on_restart(self, tmp_path):
        root = str(tmp_path / "serve")
        queue = JobQueue(root)
        queue.submit("alice", spec_for().to_dict())
        lease = queue.lease("w1")
        queue.close()                        # service dies mid-lease

        revived = JobQueue(root)
        run = revived.runs[lease["job_key"]]
        assert run.state == RUN_QUEUED
        assert run.requeues == 1
        # The dead worker's token is fenced by the next lease's bump.
        fresh = revived.lease("w2")
        assert fresh["token"] > lease["token"]
        with pytest.raises(StaleLeaseError):
            revived.commit(lease["job_key"], lease["token"],
                           record_for(spec_for()))
        revived.close()

    def test_crash_between_cache_put_and_journal_completes(self, tmp_path):
        """The commit ordering invariant: cache.put lands before the
        journal line. A crash in between replays as 'queued run whose
        record already exists' and finishes as a cache hit."""
        root = str(tmp_path / "serve")
        queue = JobQueue(root)
        spec = spec_for()
        queue.submit("alice", spec.to_dict())
        queue.lease("w1")
        # Simulate the torn commit: record persisted, journal line lost.
        queue.cache.put(spec, record_for(spec, resumed_from=600))
        queue.close()

        revived = JobQueue(root)
        run = revived.runs[spec.job_key()]
        assert run.state == RUN_DONE
        assert run.resumed_from == 600
        assert revived.subs["alice-0000001"].state == SUB_DONE
        revived.close()

    def test_torn_journal_tail_replays_cleanly(self, tmp_path):
        root = str(tmp_path / "serve")
        queue = JobQueue(root)
        queue.submit("alice", spec_for().to_dict())
        queue.close()
        with open(journal_path(root), "a") as handle:
            handle.write('{"op": "submit", "sub": "bob-')   # crash tear
        revived = JobQueue(root)
        assert len(revived.subs) == 1
        revived.close()

    def test_draining_survives_restart(self, tmp_path):
        root = str(tmp_path / "serve")
        queue = JobQueue(root)
        queue.drain(True)
        queue.close()
        revived = JobQueue(root)
        assert revived.draining is True
        revived.close()


@pytest.fixture()
def service(tmp_path):
    queue = JobQueue(str(tmp_path / "serve"), lease_s=5.0,
                     checkpoint_every=0)
    svc = ServeService(queue, housekeeping_s=0.05).start()
    try:
        with ServeClient(svc.url) as client:
            yield svc, client
    finally:
        svc.stop()


class TestServeHTTP:
    def _work_one(self, client, worker="w1"):
        """Act as the worker for exactly one job, over HTTP."""
        lease = client.lease(worker)
        assert lease is not None
        record = execute_job(lease["payload"])
        return client.commit(lease["job_key"], lease["token"], record)

    def test_submit_execute_result_round_trip(self, service):
        _, client = service
        spec = spec_for(seed=11).to_dict()
        view = client.submit("alice", spec)
        assert view["state"] == "queued"
        done = self._work_one(client)
        assert done["state"] == RUN_DONE
        record = client.result(view["submission_id"])
        assert record["spec"] == spec
        assert record["result"]["cycles"] > 0
        assert client.result(view["job_key"]) == record

    def test_sweep_collapses_across_tenants(self, service):
        _, client = service
        specs = [spec_for(seed=s).to_dict() for s in (1, 2)]
        alice = client.submit_many("alice", specs)
        bob = client.submit_many("bob", specs)
        assert {v["job_key"] for v in alice} \
            == {v["job_key"] for v in bob}
        status = client.status()
        assert status["runs"]["total"] == 2
        assert status["submissions"]["total"] == 4

    def test_status_endpoint_shares_the_inspect_formatter(self, service):
        """Satellite: the run view is job_status_entry — the service
        and ``repro-orchestrate inspect --json`` speak one schema."""
        svc, client = service
        spec = spec_for(seed=12)
        client.submit("alice", spec.to_dict())
        self._work_one(client)
        view = client.run(spec.job_key())
        record = svc.queue.cache.get(spec)
        shared = job_status_entry(spec, record)
        for field in ("job_key", "label", "spec", "cached", "result"):
            assert view[field] == shared[field]
        assert view["state"] == RUN_DONE
        assert view["tenants"] == ["alice"]

    def test_unknowns_are_404(self, service):
        _, client = service
        with pytest.raises(ServeHTTPError) as err:
            client.submission("alice-9999999")
        assert err.value.status == 404
        with pytest.raises(ServeHTTPError) as err:
            client.run("0" * 64)
        assert err.value.status == 404
        with pytest.raises(ServeHTTPError) as err:
            client.request("GET", "/v1/nonsense")
        assert err.value.status == 404

    def test_quota_maps_to_429(self, tmp_path):
        queue = JobQueue(str(tmp_path / "serve"), max_queued_per_tenant=1,
                         checkpoint_every=0)
        svc = ServeService(queue).start()
        try:
            with ServeClient(svc.url) as client:
                client.submit("alice", spec_for(seed=1).to_dict())
                with pytest.raises(ServeHTTPError) as err:
                    client.submit("alice", spec_for(seed=2).to_dict())
            assert err.value.status == 429
        finally:
            svc.stop()

    def test_cancel_over_http(self, service):
        _, client = service
        view = client.submit("alice", spec_for(seed=13).to_dict())
        cancelled = client.cancel(view["submission_id"])
        assert cancelled["state"] == "cancelled"
        assert client.lease("w1") is None

    def test_event_stream_offsets_resume(self, service):
        _, client = service
        client.submit("alice", spec_for(seed=14).to_dict())
        events, offset = client.events()
        assert [e["kind"] for e in events] == ["queued"]
        again, offset2 = client.events(offset=offset)
        assert again == [] and offset2 == offset
        self._work_one(client)
        more, _ = client.events(offset=offset)
        assert [e["kind"] for e in more] == ["started", "finished"]

    def test_event_stream_filters_by_job(self, service):
        _, client = service
        a = client.submit("alice", spec_for(seed=15).to_dict())
        client.submit("alice", spec_for(seed=16).to_dict())
        events, _ = client.events(job=a["job_key"])
        assert events and all(e["job_key"] == a["job_key"]
                              for e in events)

    def test_long_poll_wakes_on_new_events(self, service):
        _, client = service
        _, offset = client.events()

        def submit_later():
            time.sleep(0.15)
            client.submit("alice", spec_for(seed=17).to_dict())

        threading.Thread(target=submit_later, daemon=True).start()
        t0 = time.monotonic()
        events, _ = client.events(offset=offset, wait_s=5.0)
        waited = time.monotonic() - t0
        assert [e["kind"] for e in events] == ["queued"]
        assert waited < 4.0          # woke on the event, not the timeout

    def test_expired_lease_requeues_over_http(self, tmp_path):
        """Satellite at the HTTP layer: heartbeat loss -> the
        housekeeping sweep requeues; the zombie's commit 409s."""
        queue = JobQueue(str(tmp_path / "serve"), lease_s=0.2,
                         checkpoint_every=0)
        svc = ServeService(queue, housekeeping_s=0.05).start()
        try:
            with ServeClient(svc.url) as client:
                spec = spec_for(seed=18)
                client.submit("alice", spec.to_dict())
                zombie = client.lease("zombie")
                deadline = time.time() + 5.0
                while time.time() < deadline:
                    if client.run(spec.job_key())["state"] == RUN_QUEUED:
                        break
                    time.sleep(0.05)
                run = client.run(spec.job_key())
                assert run["state"] == RUN_QUEUED
                assert run["requeues"] == 1
                with pytest.raises(StaleLeaseError):
                    client.commit(zombie["job_key"], zombie["token"],
                                  record_for(spec))
        finally:
            svc.stop()

    def test_worker_failure_report_over_http(self, service):
        _, client = service
        client.submit("alice", spec_for(seed=19).to_dict())
        lease = client.lease("w1")
        view = client.fail(lease["job_key"], lease["token"],
                           "invariant", "bad interleaving")
        assert view["state"] == RUN_FAILED
        assert view["failure_kind"] == "invariant"

    def test_worker_fails_an_unresolvable_spec_once(self, service):
        # The orchestrator's retry rule, on the serve plane: an unknown
        # label fails identically on every lease, so the first attempt
        # is terminal instead of burning max_attempts.
        from repro.serve import Worker
        svc, client = service
        view = client.submit("alice", spec_for(label="CB-Two").to_dict())
        Worker(svc.url, worker_id="w1", poll_s=0.05, max_jobs=1).run()
        run = client.run(view["job_key"])
        assert run["state"] == RUN_FAILED
        assert run["attempts"] == 1
        assert run["failure_kind"] == "error"

    def test_drain_endpoint(self, service):
        _, client = service
        doc = client.drain(True)
        assert doc["draining"] is True
        assert client.lease("w1") is None
        client.drain(False)

    def test_health(self, service):
        _, client = service
        assert client.health()["ok"] is True


class TestWorkerProcess:
    def test_package_import_leaves_worker_module_unloaded(self):
        code = ("import sys, repro.serve; "
                "assert 'repro.serve.worker' not in sys.modules; "
                "from repro.serve import spawn_worker; "
                "assert spawn_worker.__module__ == 'repro.serve.worker'")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_spawned_worker_runs_its_module_once(self, service,
                                                  monkeypatch):
        # With the RuntimeWarning runpy emits for a module found in
        # sys.modules before execution turned into an error, a worker
        # whose package import pulled in repro.serve.worker exits 1
        # before leasing anything.
        monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
        svc, client = service
        view = client.submit("alice", spec_for(seed=23).to_dict())
        proc = spawn_worker(svc.url, index=7, poll_s=0.05)
        try:
            client.wait_idle(timeout_s=60.0, poll_s=0.1)
            assert client.run(view["job_key"])["state"] == RUN_DONE
            client.drain(True)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestServeEventsOnDisk:
    def test_queue_events_are_tailable_jsonl(self, tmp_path):
        queue = make_queue(tmp_path)
        spec = spec_for()
        queue.submit("alice", spec.to_dict())
        lease = queue.lease("w1")
        queue.commit(lease["job_key"], lease["token"], record_for(spec))
        events = read_events(queue.events_path)
        assert [e["kind"] for e in events] \
            == ["queued", "started", "finished"]
        assert all(e["job_key"] == spec.job_key() for e in events)
        queue.close()


class _FullDisk:
    """An open file every write to which fails the way a full disk does."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    def flush(self):
        pass

    def fileno(self):
        return self._handle.fileno()

    def close(self):
        self._handle.close()


@pytest.fixture
def full_span_disk(monkeypatch):
    """Every append to a ``hostspans.jsonl`` fails with ENOSPC."""
    real_open = builtins.open

    def fake_open(file, mode="r", *args, **kwargs):
        if str(file).endswith("hostspans.jsonl") and "a" in mode:
            return _FullDisk(real_open(file, mode, *args, **kwargs))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", fake_open)


def degradation(queue, kind):
    """One ``repro_degradation_events_total`` sample from ``/metrics``."""
    family = parse_prometheus(queue.prometheus_text())[
        "repro_degradation_events_total"]
    (value,) = [v for (_, labels), v in family["samples"].items()
                if ("kind", kind) in labels]
    return value


class TestObservabilityLogsNeverWedge:
    """Host spans and events are observability logs: a failed append is
    counted and dropped, never raised into the transition it records."""

    def test_lease_completes_while_span_writes_fail(self, tmp_path,
                                                     full_span_disk):
        queue = make_queue(tmp_path)
        queue.submit("alice", spec_for().to_dict())
        lease = queue.lease("w1")
        assert queue.runs[lease["job_key"]].state == RUN_LEASED
        assert degradation(queue, "dropped_spans") == 1     # queue.wait
        assert degradation(queue, "dropped_events") == 0
        assert queue.healthz()["state"] == "ok"
        queue.close()

    def test_commit_completes_and_settles_while_span_writes_fail(
            self, tmp_path, full_span_disk):
        queue = make_queue(tmp_path)
        spec = spec_for()
        sub = queue.submit("alice", spec.to_dict())
        lease = queue.lease("w1")
        worker_span = {"name": "sim.run", "trace_id": lease["trace_id"],
                       "start": 1.0, "end": 2.0, "track": "host/worker"}
        queue.commit(lease["job_key"], lease["token"],
                     record_for(spec, host_spans=[worker_span]))
        assert queue.runs[lease["job_key"]].state == RUN_DONE
        assert queue.subs[sub["submission_id"]].state == SUB_DONE
        # queue.wait, lease.held and the worker's sim.run.
        assert degradation(queue, "dropped_spans") == 3
        queue.close()

    def test_expiry_requeues_while_span_writes_fail(self, tmp_path,
                                                    full_span_disk):
        queue = make_queue(tmp_path)
        sub = queue.submit("alice", spec_for().to_dict())
        lease = queue.lease("w1")
        assert queue.expire_leases(now=time.time() + 3600) \
            == [lease["job_key"]]
        assert queue.runs[lease["job_key"]].state == RUN_QUEUED
        assert queue.subs[sub["submission_id"]].state == SUB_QUEUED
        assert degradation(queue, "dropped_spans") == 2
        queue.close()

    def test_closed_queue_never_reopens_a_log(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("alice", spec_for().to_dict())
        queue.close()
        paths = [journal_path(queue.root), queue.events_path,
                 queue.hostspans_path]
        before = [os.path.exists(p) and os.path.getsize(p) for p in paths]
        # A late lease journals, narrates and records a span: every one
        # of those appends must find its log closed.
        lease = queue.lease("w1")
        assert queue.runs[lease["job_key"]].state == RUN_LEASED
        assert [os.path.exists(p) and os.path.getsize(p)
                for p in paths] == before
        if os.path.isdir("/proc/self/fd"):
            assert [open_handles(p) for p in paths] == [0, 0, 0]


class TestSubmitAckContract:
    def test_failed_journal_fsync_is_503_and_applies_nothing(
            self, tmp_path, monkeypatch):
        queue = make_queue(tmp_path)

        def broken_fsync(fd):
            raise OSError(errno.EIO, "injected EIO")
        monkeypatch.setattr(os, "fsync", broken_fsync)
        with pytest.raises(ServiceUnavailableError):
            queue.submit("alice", spec_for().to_dict())
        assert queue.subs == {} and queue.runs == {}
        assert queue.counters["journal_write_errors"] == 1
        assert degradation(queue, "journal_write_errors") == 1
        assert queue.healthz()["state"] == "degraded"
        queue.close()


# Satellite of the chaos PR: replay must tolerate exactly the journals
# the fault shims and crash points produce — duplicated ops from client
# retries, and a final record torn at any byte offset.
class TestJournalReplayEdges:
    @staticmethod
    def _submit_entry(sub_id, spec, tenant="alice"):
        return {"op": "submit", "sub": sub_id, "tenant": tenant,
                "priority": 0, "job_key": spec.job_key(),
                "spec": spec.to_dict(), "t": 123.0}

    @staticmethod
    def _write_journal(tmp_path, entries, tail=""):
        root = str(tmp_path / "serve")
        os.makedirs(root, exist_ok=True)
        with open(journal_path(root), "w") as handle:
            for entry in entries:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.write(tail)

    def test_duplicate_submit_lines_collapse(self, tmp_path):
        # A retried submit whose first journal append *did* land: the
        # same line twice. Replay must not mint a second run.
        spec = spec_for()
        entry = self._submit_entry("alice-0000001", spec)
        self._write_journal(tmp_path, [entry, entry])
        queue = make_queue(tmp_path)
        assert len(queue.subs) == 1
        assert len(queue.runs) == 1
        assert queue.runs[spec.job_key()].state == RUN_QUEUED
        queue.close()

    def test_retried_submit_under_fresh_id_dedups_onto_run(self, tmp_path):
        # The server-side dedup story: a retry acknowledged under a new
        # submission id still rides the same content-addressed run.
        spec = spec_for()
        self._write_journal(tmp_path, [
            self._submit_entry("alice-0000001", spec),
            self._submit_entry("alice-0000002", spec),
        ])
        queue = make_queue(tmp_path)
        assert len(queue.subs) == 2
        assert len(queue.runs) == 1
        queue.close()

    def test_duplicate_commit_lines_commit_once(self, tmp_path):
        spec = spec_for()
        commit = {"op": "commit", "job_key": spec.job_key(), "gen": 1}
        self._write_journal(tmp_path, [
            self._submit_entry("alice-0000001", spec),
            {"op": "lease", "job_key": spec.job_key(), "gen": 1,
             "attempt": 1, "expires": 456.0},
            commit, commit,
        ])
        queue = make_queue(tmp_path)
        run = queue.runs[spec.job_key()]
        assert run.state == RUN_DONE
        assert run.commits == 1
        queue.close()

    def test_stray_ops_for_unknown_or_unleased_runs_ignored(self, tmp_path):
        spec = spec_for()
        self._write_journal(tmp_path, [
            self._submit_entry("alice-0000001", spec),
            {"op": "requeue", "job_key": spec.job_key()},   # never leased
            {"op": "lease", "job_key": "no-such-key", "gen": 1},
            {"op": "frobnicate", "job_key": spec.job_key()},  # unknown op
        ])
        queue = make_queue(tmp_path)
        run = queue.runs[spec.job_key()]
        assert run.state == RUN_QUEUED
        assert run.requeues == 0
        assert "no-such-key" not in queue.runs
        queue.close()


# The final journal record a crash tears, truncated at *every* byte
# offset: replay must return exactly the complete prefix each time.
_TORN_FINAL = json.dumps({"gen": 1, "job_key": "k2", "op": "commit"},
                         sort_keys=True) + "\n"


class TestJournalTornTails:
    _COMPLETE = [{"op": "submit", "sub": "t-1", "job_key": "k1"},
                 {"op": "lease", "job_key": "k1", "gen": 1}]

    @pytest.mark.parametrize("cut", range(len(_TORN_FINAL)))
    def test_mid_record_torn_tail(self, tmp_path, cut):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as handle:
            for entry in self._COMPLETE:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.write(_TORN_FINAL[:cut])
        entries = read_events(path)
        assert [e["op"] for e in entries] == ["submit", "lease"], \
            f"cut at byte {cut} corrupted the complete prefix"

    def test_untorn_final_record_replays(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as handle:
            for entry in self._COMPLETE:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.write(_TORN_FINAL)
        assert [e["op"] for e in read_events(path)] \
            == ["submit", "lease", "commit"]

    def test_queue_opens_on_torn_journal(self, tmp_path):
        # The integration-level promise: a queue whose journal was torn
        # mid-commit opens, and the half-committed run is still leasable.
        spec = spec_for()
        torn_commit = json.dumps(
            {"op": "commit", "job_key": spec.job_key(), "gen": 1},
            sort_keys=True)[:20]
        TestJournalReplayEdges._write_journal(
            tmp_path,
            [TestJournalReplayEdges._submit_entry("alice-0000001", spec)],
            tail=torn_commit)
        queue = make_queue(tmp_path)
        assert queue.runs[spec.job_key()].state == RUN_QUEUED
        lease = queue.lease("w1")
        assert lease is not None and lease["job_key"] == spec.job_key()
        queue.close()


class TestDeadlinePropagation:
    """Deadline propagation end to end: submit-time ``deadline_s``
    becomes the run's wall cutoff, which caps the lease TTL and the
    heartbeat horizon (layer 1), rides the payload to the worker
    (layer 2), and — when the queue knows a cycles-per-second rate —
    becomes an engine ``max_cycles`` budget (layer 3)."""

    def test_submit_records_the_absolute_deadline(self, tmp_path):
        queue = make_queue(tmp_path)
        before = time.time()
        queue.submit("alice", spec_for(seed=30).to_dict(), deadline_s=60)
        run = next(iter(queue.runs.values()))
        assert before + 59 < run.deadline_at < time.time() + 61
        queue.close()

    def test_deadline_must_be_positive(self, tmp_path):
        queue = make_queue(tmp_path)
        with pytest.raises(ValueError, match="deadline_s"):
            queue.submit("alice", spec_for(seed=31).to_dict(),
                         deadline_s=0)
        queue.close()

    def test_expired_while_queued_is_terminal_timeout(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("alice", spec_for(seed=32).to_dict(),
                     deadline_s=0.05)
        time.sleep(0.1)
        assert queue.lease("w1") is None  # expiry sweeps before pick
        run = next(iter(queue.runs.values()))
        assert run.state == RUN_FAILED
        assert run.kind == "timeout"          # deterministic: no requeue
        assert "while queued" in run.error
        assert queue.counters["deadline_expirations"] == 1
        queue.close()

    def test_lease_ttl_is_capped_at_the_deadline(self, tmp_path):
        queue = make_queue(tmp_path, lease_s=300.0)
        queue.submit("alice", spec_for(seed=33).to_dict(), deadline_s=2.0)
        lease = queue.lease("w1")
        assert lease["lease_s"] <= 2.0
        run = queue.runs[lease["job_key"]]
        assert lease["payload"]["_deadline"]["expires"] == run.deadline_at
        assert run.lease_expires <= run.deadline_at + 0.001
        queue.close()

    def test_heartbeat_cannot_extend_past_the_deadline(self, tmp_path):
        queue = make_queue(tmp_path, lease_s=300.0)
        queue.submit("alice", spec_for(seed=34).to_dict(), deadline_s=5.0)
        lease = queue.lease("w1")
        run = queue.runs[lease["job_key"]]
        expires = queue.heartbeat(lease["job_key"], lease["token"], "w1")
        assert expires == pytest.approx(run.deadline_at)
        queue.close()

    def test_requeue_past_deadline_is_terminal_timeout(self, tmp_path):
        queue = make_queue(tmp_path, lease_s=300.0, max_attempts=10)
        queue.submit("alice", spec_for(seed=35).to_dict(),
                     deadline_s=0.2)
        lease = queue.lease("w1")
        time.sleep(0.3)   # the capped lease expires with the deadline
        assert queue.expire_leases() == [lease["job_key"]]
        run = queue.runs[lease["job_key"]]
        assert run.state == RUN_FAILED    # terminal, not back in queue
        assert run.kind == "timeout"
        assert "deadline passed after 1 attempt" in run.error
        queue.close()

    def test_dedup_merge_keeps_the_loosest_deadline(self, tmp_path):
        queue = make_queue(tmp_path)
        spec = spec_for(seed=36).to_dict()
        queue.submit("alice", dict(spec), deadline_s=1.0)
        queue.submit("bob", dict(spec), deadline_s=100.0)
        run = next(iter(queue.runs.values()))
        assert run.deadline_at > time.time() + 50  # looser bound won
        queue.submit("carol", dict(spec))          # no deadline at all
        assert run.deadline_at is None
        queue.close()

    def test_payload_carries_an_engine_cycle_budget(self, tmp_path):
        queue = make_queue(tmp_path, deadline_cycles_per_s=1000.0)
        queue.submit("alice", spec_for(seed=37).to_dict(),
                     deadline_s=10.0)
        lease = queue.lease("w1")
        deadline = lease["payload"]["_deadline"]
        assert 1 <= deadline["max_cycles"] <= 10_000
        queue.close()

    def test_worker_refuses_a_pre_expired_payload(self):
        payload = spec_for(seed=38).to_dict()
        payload["_deadline"] = {"expires": time.time() - 1.0}
        with pytest.raises(TimeoutError, match="before execution"):
            execute_job(payload)

    def test_cycle_budget_cuts_the_simulation_off(self):
        from repro.sim.engine import SimulationTimeout
        payload = spec_for(seed=39).to_dict()
        payload["_deadline"] = {"expires": time.time() + 600.0,
                                "max_cycles": 1}
        with pytest.raises(SimulationTimeout):
            execute_job(payload)

    def test_deadline_survives_journal_replay(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("alice", spec_for(seed=40).to_dict(),
                     deadline_s=3600.0)
        run = next(iter(queue.runs.values()))
        deadline_at = run.deadline_at
        queue.close()
        reopened = make_queue(tmp_path)
        replayed = next(iter(reopened.runs.values()))
        assert replayed.deadline_at == deadline_at
        reopened.close()


class TestIdleLeaseEventsOffset:
    def test_idle_lease_carries_the_long_poll_offset(self, service):
        _service, client = service
        doc = client.request("POST", "/v1/worker/lease",
                             {"worker": "w1"})
        assert doc["idle"] is True
        assert doc["events_offset"] == 0
        client.submit("alice", spec_for(seed=41).to_dict())
        doc = client.request("POST", "/v1/worker/lease",
                             {"worker": "w1"})
        assert "events_offset" not in doc      # a real lease this time
        assert doc["job_key"]


class TestEventLongPollCallback:
    """``/v1/events`` long-polls wake on the queue's append (a callback),
    not on the re-read timer; ``_POLL_S`` only bounds how late a line
    from another writer is seen."""

    def _park(self, client, **query):
        """Start one long-poll in a thread; returns (thread, box) where
        box gets the response and the time it arrived."""
        box = {}

        def poll():
            box["doc"] = client.request(
                "GET", "/v1/events?" + "&".join(
                    f"{k}={v}" for k, v in query.items()))
            box["t"] = time.monotonic()

        thread = threading.Thread(target=poll, daemon=True)
        thread.start()
        return thread, box

    def test_submit_wakes_a_parked_long_poll(self, service, monkeypatch):
        from repro.serve import api
        monkeypatch.setattr(api, "_POLL_S", 30.0)
        svc, client = service
        offset = svc.queue.events_offset()
        thread, box = self._park(client, offset=offset, wait_s=20)
        time.sleep(0.3)                  # let it park on the condition
        assert thread.is_alive()
        t0 = time.monotonic()
        client.submit("alice", spec_for(seed=51).to_dict())
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert box["t"] - t0 < 2.0
        assert [e["kind"] for e in box["doc"]["events"]] == ["queued"]

    def test_append_between_count_read_and_wait_wakes(self, service,
                                                      monkeypatch):
        from repro.serve import api
        monkeypatch.setattr(api, "_POLL_S", 30.0)
        svc, client = service
        real_tail = api.tail_events
        calls = []

        def tail_then_append(path, offset=0):
            result = real_tail(path, offset)
            calls.append(offset)
            if len(calls) == 1:
                # The file has been read, the wait has not begun.
                svc.queue.drain(True)
            return result

        monkeypatch.setattr(api, "tail_events", tail_then_append)
        offset = svc.queue.events_offset()
        t0 = time.monotonic()
        doc = client.request("GET", f"/v1/events?offset={offset}&wait_s=3")
        assert time.monotonic() - t0 < 2.0
        assert [e["kind"] for e in doc["events"]] == ["drain"]
        assert len(calls) == 2

    def test_line_from_another_writer_reaches_a_parked_long_poll(
            self, service, monkeypatch):
        from repro.serve import api
        monkeypatch.setattr(api, "_POLL_S", 0.2)
        svc, client = service
        offset = svc.queue.events_offset()
        thread, box = self._park(client, offset=offset, wait_s=10)
        time.sleep(0.3)
        line = {"kind": "external", "job_key": "x", "n": 1}
        t0 = time.monotonic()
        with open(svc.queue.events_path, "a") as handle:
            handle.write(json.dumps(line) + "\n")
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert box["t"] - t0 < 1.0       # within the re-read period
        assert box["doc"]["events"] == [line]
        assert box["doc"]["offset"] == os.path.getsize(
            svc.queue.events_path)

    def test_job_filtered_wait_scans_only_new_bytes(self, service,
                                                    monkeypatch):
        from repro.serve import api
        monkeypatch.setattr(api, "_POLL_S", 30.0)
        svc, client = service
        queue = svc.queue
        real_tail = api.tail_events
        scans = []
        parked = threading.Event()

        def recording_tail(path, offset=0):
            scans.append(offset)
            parked.set()
            return real_tail(path, offset)

        monkeypatch.setattr(api, "tail_events", recording_tail)
        target = spec_for(seed=99)
        start = queue.events_offset()
        thread, box = self._park(client, offset=start,
                                 job=target.job_key(), wait_s=20)
        assert parked.wait(5)
        for seed in range(60, 70):
            client.submit("alice", spec_for(seed=seed).to_dict())
        with open(queue.events_path, "a") as handle:
            handle.write("not json\n")
        time.sleep(0.2)
        for seed in range(70, 80):
            client.submit("alice", spec_for(seed=seed).to_dict())
        time.sleep(0.2)
        client.submit("alice", target.to_dict())
        thread.join(timeout=10)
        assert not thread.is_alive()
        doc = box["doc"]
        assert [(e["kind"], e["job_key"]) for e in doc["events"]] \
            == [("queued", target.job_key())]
        assert doc["offset"] == os.path.getsize(queue.events_path)
        assert doc["skipped"] == 1
        # Each wake resumed where the last scan stopped.
        assert scans[0] == start
        assert scans == sorted(scans) and scans[-1] > start
        # Same answer as one unparked read over the whole range.
        assert client.request(
            "GET", f"/v1/events?offset={start}&job={target.job_key()}") \
            == doc

    def test_concurrent_appends_wake_every_reader(self, tmp_path):
        queue = make_queue(tmp_path)
        writers, per_writer, readers = 4, 50, 4
        start = queue.event_appends
        total = start + writers * per_writer
        woke = []

        def read():
            seen = queue.event_appends
            while seen < total:
                now = queue.wait_for_append(seen, 5.0)
                if now == seen:
                    break                # timed out: a lost wakeup
                seen = now
            woke.append(seen)

        def write():
            for _ in range(per_writer):
                queue.drain(True)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=read, daemon=True)
                       for _ in range(readers)]
            threads += [threading.Thread(target=write, daemon=True)
                        for _ in range(writers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(old)
            queue.close()
        assert queue.event_appends == total
        assert woke == [total] * readers
        drains = [e for e in read_events(queue.events_path)
                  if e["kind"] == "drain"]
        assert len(drains) == writers * per_writer

    @pytest.mark.parametrize("query", ["wait_s=nan", "wait_s=inf",
                                       "offset=-5"])
    def test_bad_tail_query_is_400(self, service, query):
        _, client = service
        with pytest.raises(ServeHTTPError) as err:
            client.request("GET", f"/v1/events?{query}", timeout=5)
        assert err.value.status == 400


def http_counts(client):
    """(connections accepted, requests dispatched) from ``/metrics``;
    the scrape itself is one of the requests."""
    families = parse_prometheus(client.metrics())
    return tuple(sum(families[name]["samples"].values())
                 for name in ("repro_serve_http_connections_total",
                              "repro_serve_http_requests_total"))


def pooled_sockets(client):
    """The sockets of the client's open pooled connections."""
    return [conn.sock for _, conn in client.transport._open
            if conn.sock is not None]


def conn_threads(svc):
    """The service's live handler threads (one per open connection)."""
    name = f"serve-conn:{svc.address[1]}"
    return [t for t in threading.enumerate()
            if t.name == name and t.is_alive()]


class _HangUpServer:
    """A raw listener that answers the first request it reads with
    ``answer`` and, on every later one, records it and hangs up without
    a response."""

    OK = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
          b"Content-Length: 12\r\n\r\n{\"ok\": true}")

    def __init__(self, answer=OK):
        self.answer = answer
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.1)
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        self.request_lines = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            with conn, conn.makefile("rb") as rfile:
                while True:
                    line = rfile.readline()
                    if not line:
                        break
                    self.request_lines.append(line.split()[0].decode())
                    length = 0
                    for header in iter(rfile.readline, b"\r\n"):
                        name, _, value = header.partition(b":")
                        if name.lower() == b"content-length":
                            length = int(value)
                    rfile.read(length)
                    if len(self.request_lines) > 1:
                        break               # hang up, nothing answered
                    conn.sendall(self.answer)

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5)
        self.listener.close()


class TestKeepAlive:
    """One persistent connection per client per thread, TCP_NODELAY on
    both ends, reconnect-before-send, and no resend of a written POST."""

    def test_sequential_requests_share_one_connection(self, service):
        _, client = service
        for _ in range(5):
            assert client.health()["ok"]
        client.submit("alice", spec_for(seed=61).to_dict())
        assert client.lease("w1") is not None
        assert http_counts(client) == (1, 8)

    def test_both_ends_disable_nagle(self, service):
        svc, client = service
        client.health()
        [sock] = pooled_sockets(client)
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        [server_sock] = list(svc.httpd._live)
        assert server_sock.getsockopt(socket.IPPROTO_TCP,
                                      socket.TCP_NODELAY)

    def test_threads_sharing_a_client_get_their_own_sockets(self, service):
        _, client = service
        _, offset = client.events()
        box = {}

        def park():
            box["events"], _ = client.events(offset=offset, wait_s=5.0)

        thread = threading.Thread(target=park, daemon=True)
        thread.start()
        time.sleep(0.2)                  # let the long-poll park
        client.submit("alice", spec_for(seed=62).to_dict())
        thread.join(timeout=10)
        assert [e["kind"] for e in box["events"]] == ["queued"]
        sockets = pooled_sockets(client)
        assert len(sockets) == 2 and sockets[0] is not sockets[1]
        assert http_counts(client)[0] == 2

    def test_many_threads_share_one_client(self, service):
        """Stress: more threads than cores on one client, with a short
        switch interval. Each thread keeps its own connection and the
        server's request counter loses no update."""
        _, client = service
        threads, per_thread = 8, 25
        errors = []

        def hammer():
            try:
                for _ in range(per_thread):
                    assert client.health()["ok"]
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=hammer, daemon=True)
                    for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in pool)
        finally:
            sys.setswitchinterval(old)
        assert errors == []
        assert http_counts(client) == (threads + 1,
                                       threads * per_thread + 1)

    def test_bad_content_length_is_400_and_hangs_up(self, service):
        svc, _ = service
        with socket.create_connection(svc.address, timeout=5) as sock:
            sock.sendall(b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: -1\r\n\r\n{}")
            reply = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break                  # the server hung up
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"bad Content-Length" in reply

    def test_restart_on_same_port_reconnects_before_sending(self,
                                                            tmp_path):
        root = str(tmp_path / "serve")
        svc = ServeService(JobQueue(root, checkpoint_every=0)).start()
        port = svc.address[1]
        # retries=0: a request sent on the dead socket would fail.
        with ServeClient(svc.url) as client:
            try:
                client.health()
                for call in (client.health, lambda: client.lease("w1")):
                    svc.stop()
                    svc = ServeService(JobQueue(root, checkpoint_every=0),
                                       port=port).start()
                    call()
                    assert http_counts(client)[0] == 1
            finally:
                svc.stop()

    def test_idle_timeout_closes_and_client_reconnects(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr(api._Handler, "timeout", 0.2)
        svc = ServeService(make_queue(tmp_path)).start()
        try:
            with ServeClient(svc.url) as client:
                client.health()
                deadline = time.monotonic() + 5.0
                while conn_threads(svc) and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert not conn_threads(svc)    # the server hung up
                assert client.health()["ok"]
                assert http_counts(client)[0] == 2
        finally:
            svc.stop()

    def test_written_post_whose_response_is_lost_is_not_resent(self):
        server = _HangUpServer()
        try:
            with ServeClient(server.url, retries=3,
                             backoff_s=0.01) as client:
                assert client.health() == {"ok": True}
                with pytest.raises(OSError):
                    client.lease("w1")
            assert server.request_lines == ["GET", "POST"]
        finally:
            server.close()

    def test_garbled_response_surfaces_as_oserror(self):
        server = _HangUpServer(answer=b"NOT-HTTP\r\n\r\n")
        try:
            with ServeClient(server.url) as client:
                with pytest.raises(OSError, match="BadStatusLine"):
                    client.health()
        finally:
            server.close()

    def test_stop_ends_handlers_while_a_client_holds_connections(
            self, tmp_path):
        svc = ServeService(make_queue(tmp_path)).start()
        with ServeClient(svc.url) as client:
            client.health()

            def park():
                try:
                    client.events(wait_s=20.0)
                except OSError:
                    pass

            thread = threading.Thread(target=park, daemon=True)
            thread.start()
            deadline = time.monotonic() + 5.0
            while len(conn_threads(svc)) < 2 \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            assert len(conn_threads(svc)) == 2
            t0 = time.monotonic()
            svc.stop()
            assert time.monotonic() - t0 < api._STOP_JOIN_S
            assert conn_threads(svc) == []
            thread.join(timeout=5)
            assert not thread.is_alive()
