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

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.orchestrate.events import read_events
from repro.orchestrate.jobspec import JobSpec
from repro.orchestrate.status import job_status_entry
from repro.serve import (JobQueue, Journal, QuotaExceededError,
                         ServeClient, ServeHTTPError, ServeService,
                         StaleLeaseError, execute_serve_job, spawn_worker)
from repro.serve.journal import journal_path
from repro.serve.model import (RUN_DONE, RUN_FAILED, RUN_LEASED,
                               RUN_QUEUED, SUB_DONE, UnknownJobError)


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
        entries = Journal.replay(path)
        assert [e["op"] for e in entries] == ["submit", "lease"]

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path)
        journal.append("submit", sub="t-1", job_key="k1")
        journal.close()
        with open(path, "a") as handle:   # crash mid-append
            handle.write('{"op": "commit", "job_')
        entries = Journal.replay(path)
        assert [e["op"] for e in entries] == ["submit"]

    def test_batch_append_is_one_write(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path)
        journal.append_many([{"op": "submit", "sub": f"t-{i}"}
                             for i in range(50)])
        journal.close()
        assert len(Journal.replay(path)) == 50


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
        yield svc, ServeClient(svc.url)
    finally:
        svc.stop()


class TestServeHTTP:
    def _work_one(self, client, worker="w1"):
        """Act as the worker for exactly one job, over HTTP."""
        lease = client.lease(worker)
        assert lease is not None
        record = execute_serve_job(lease["payload"])
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
            client = ServeClient(svc.url)
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
            client = ServeClient(svc.url)
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
        entries = Journal.replay(path)
        assert [e["op"] for e in entries] == ["submit", "lease"], \
            f"cut at byte {cut} corrupted the complete prefix"

    def test_untorn_final_record_replays(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as handle:
            for entry in self._COMPLETE:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.write(_TORN_FINAL)
        assert [e["op"] for e in Journal.replay(path)] \
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
            execute_serve_job(payload)

    def test_cycle_budget_cuts_the_simulation_off(self):
        from repro.sim.engine import SimulationTimeout
        payload = spec_for(seed=39).to_dict()
        payload["_deadline"] = {"expires": time.time() + 600.0,
                                "max_cycles": 1}
        with pytest.raises(SimulationTimeout):
            execute_serve_job(payload)

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
