"""The service's load-and-crash harness (the tentpole's acceptance
test): ~1000 submissions across three tenants, worker processes
SIGKILLed mid-simulation, and afterwards the books must balance —

* **zero lost**: every acknowledged submission reaches ``done``;
* **zero duplicated**: every executed run commits exactly once (one
  ``finished`` event per job key, ``Run.commits == 1``);
* **dedup**: identical submissions from different tenants collapse onto
  one simulation — ~3x fewer runs than submissions;
* **resume**: the runs whose workers were SIGKILLed are finished by a
  later worker *from the dead worker's newest checkpoint*
  (``resumed_from`` set), not from scratch.

The kill is deterministic, not a sleep race: "kamikaze" workers are
spawned with ``--kill-after-boundaries 3``, which SIGKILLs the worker
process at the third checkpoint boundary of its first leased run —
strictly between two durable checkpoints, exactly the
``boundary_hook`` crash point ``test_ckpt_crash.py`` proves bit-exact
resume for. The phases:

1. submit two long "victim" runs; let two kamikazes lease them and die;
2. flood the queue (1000+ submissions over three tenants, batched
   through ``/v1/sweeps``) and attach three healthy workers;
3. drain, join every worker, audit the journal, the event log, and
   every submission's terminal state.
"""

import signal
import time
from collections import Counter

import pytest

from repro.ioutil import read_events
from repro.orchestrate.jobspec import JobSpec
from repro.serve import JobQueue, ServeClient, ServeService, spawn_worker

TENANTS = ("alice", "bob", "carol")
UNIQUE_FLOOD_SPECS = 334          # x3 tenants = 1002 flood submissions


def flood_spec(seed):
    """~3ms of simulation: the flood is about queue throughput."""
    return JobSpec(config_label="CB-All", workload="lock",
                   workload_params={"lock_name": "ttas", "iterations": 2},
                   config_overrides={"num_cores": 4}, seed=seed).to_dict()


def victim_spec(seed):
    """~0.1s / ~23k cycles: crosses 10+ checkpoint boundaries at
    every=2000, so a kamikaze killed at boundary 3 leaves durable
    checkpoints (cycles 2000 and 4000) behind for the resumer."""
    return JobSpec(config_label="CB-All", workload="lock",
                   workload_params={"lock_name": "ttas", "iterations": 80},
                   config_overrides={"num_cores": 4}, seed=seed).to_dict()


@pytest.mark.slow
class TestServeUnderLoadAndCrashes:
    def test_thousand_jobs_with_sigkilled_workers(self, tmp_path):
        queue = JobQueue(str(tmp_path / "serve"), lease_s=1.0,
                         max_attempts=5, checkpoint_every=2000)
        service = ServeService(queue, housekeeping_s=0.1).start()
        client = ServeClient(service.url)
        workers = []
        try:
            # -- Phase 1: victims + kamikazes ---------------------------
            victims = [client.submit("alice", victim_spec(101),
                                     priority=10),
                       client.submit("bob", victim_spec(102),
                                     priority=10)]
            victim_keys = {v["job_key"] for v in victims}
            assert len(victim_keys) == 2

            kamikazes = [spawn_worker(service.url, index=i,
                                      kill_after_boundaries=3,
                                      exit_on_drain=False)
                         for i in (90, 91)]
            for proc in kamikazes:
                assert proc.wait(timeout=60) == -signal.SIGKILL, \
                    "kamikaze worker should die by its own SIGKILL"

            # Both victims were leased when their workers died; the
            # housekeeping sweep must requeue them (exactly once).
            deadline = time.time() + 10
            while time.time() < deadline:
                views = [client.run(k) for k in victim_keys]
                if all(v["state"] == "queued" for v in views):
                    break
                time.sleep(0.1)
            for view in views:
                assert view["state"] == "queued", view
                assert view["requeues"] == 1
                assert view["attempts"] == 1

            # -- Phase 2: the flood + healthy workers -------------------
            specs = [flood_spec(seed)
                     for seed in range(1, UNIQUE_FLOOD_SPECS + 1)]
            for tenant in TENANTS:
                views = client.submit_many(tenant, specs)
                assert len(views) == UNIQUE_FLOOD_SPECS
            # Carol also wants the victims: dedup onto in-flight runs.
            for victim in (victim_spec(101), victim_spec(102)):
                view = client.submit("carol", victim)
                assert view["job_key"] in victim_keys

            workers = [spawn_worker(service.url, index=i,
                                    exit_on_drain=True)
                       for i in range(3)]
            client.wait_idle(timeout_s=240.0, poll_s=0.5)

            # -- Phase 3: audit -----------------------------------------
            client.drain()
            for proc in workers:
                assert proc.wait(timeout=30) == 0
            workers = []
            status = client.status()

            # Zero lost: every acknowledged submission reached done.
            total_subs = 2 + len(TENANTS) * UNIQUE_FLOOD_SPECS + 2
            assert status["submissions"]["total"] == total_subs
            assert total_subs >= 1000
            with queue._lock:
                not_done = [s.sub_id for s in queue.subs.values()
                            if s.state != "done"]
            assert not_done == [], f"lost submissions: {not_done[:5]}"

            # Dedup: 1006 submissions, 336 simulations.
            unique_runs = UNIQUE_FLOOD_SPECS + 2
            assert status["runs"]["total"] == unique_runs
            assert status["runs"]["done"] == unique_runs

            # Zero duplicated: each run committed exactly once, and the
            # event log agrees — one finished line per job key.
            with queue._lock:
                commit_counts = {key: run.commits
                                 for key, run in queue.runs.items()}
            assert set(commit_counts.values()) == {1}
            finished = Counter(e["job_key"]
                               for e in read_events(queue.events_path)
                               if e["kind"] == "finished")
            assert len(finished) == unique_runs
            assert set(finished.values()) == {1}, \
                "some run finished more than once"

            # The journal's durable commits agree too.
            from repro.serve.journal import journal_path
            commits = Counter(
                e["job_key"] for e in
                read_events(journal_path(queue.root))
                if e.get("op") == "commit")
            assert len(commits) == unique_runs
            assert set(commits.values()) == {1}

            # Resume: the SIGKILLed victims were finished from the dead
            # workers' checkpoints, not from scratch.
            for key in victim_keys:
                view = client.run(key)
                assert view["state"] == "done"
                assert view["attempts"] == 2, view
                assert view.get("resumed_from") is not None, \
                    f"victim {key[:12]} re-ran from scratch"
                assert view["resumed_from"] > 0
                record = client.result(key)
                assert record["meta"]["resumed_from"] \
                    == view["resumed_from"]

            # Every tenant can fetch every result it asked for.
            for seed in (1, UNIQUE_FLOOD_SPECS):
                spec = JobSpec.from_dict(flood_spec(seed))
                record = client.result(spec.job_key())
                assert record["spec"] == spec.to_dict()
                assert record["result"]["cycles"] > 0
        finally:
            for proc in workers:
                proc.terminate()
            client.close()
            service.stop()

    def test_restart_mid_flood_loses_nothing(self, tmp_path):
        """Kill the *service* (close without drain) mid-queue and
        restart: the journal replays every acknowledged submission and
        the backlog finishes."""
        root = str(tmp_path / "serve")
        queue = JobQueue(root, lease_s=1.0, checkpoint_every=0)
        service = ServeService(queue, housekeeping_s=0.1).start()
        specs = [flood_spec(seed) for seed in range(1, 41)]
        with ServeClient(service.url) as client:
            for tenant in TENANTS:
                client.submit_many(tenant, specs)
            # A couple of leases are open when the service "crashes".
            assert client.lease("doomed-1") is not None
            assert client.lease("doomed-2") is not None
        service.stop()

        revived = JobQueue(root, lease_s=1.0, checkpoint_every=0)
        service = ServeService(revived, housekeeping_s=0.1).start()
        client = ServeClient(service.url)
        workers = [spawn_worker(service.url, index=i, exit_on_drain=True)
                   for i in range(2)]
        try:
            client.wait_idle(timeout_s=120.0, poll_s=0.5)
            client.drain()
            for proc in workers:
                assert proc.wait(timeout=30) == 0
            workers = []
            with revived._lock:
                assert len(revived.subs) == len(TENANTS) * len(specs)
                assert all(s.state == "done"
                           for s in revived.subs.values())
                assert all(run.commits <= 1
                           for run in revived.runs.values())
        finally:
            for proc in workers:
                proc.terminate()
            client.close()
            service.stop()
