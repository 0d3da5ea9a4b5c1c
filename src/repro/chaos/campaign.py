"""Chaos campaigns: the whole service under a fault plan, end to end.

:func:`run_campaign` stands up a real :class:`~repro.serve.api.ServeService`
(HTTP and all) with a :class:`~repro.chaos.fio.FaultyIO` shim under its
file IO and a :class:`~repro.chaos.httpshim.ChaosTransport` under its
client, submits a batch of deterministic jobs, and drives them to
completion while the plan tears writes, fills the disk, drops
connections, and loses responses. The verdict is the crash-point
sweep's audit (:func:`~repro.chaos.lifecycle.audit_queue`) on a cold
reopen — **zero lost acknowledged submissions, zero duplicated
commits**, everything eventually finished — and the manifest records
every fault actually injected so a failure is a replayable artifact,
not an anecdote.

:func:`run_drill` is the scripted disk-full → degrade → heal → recover
round-trip the degraded-mode runbook (docs/serving.md) documents, and
what CI's ``chaos-smoke`` job replays.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from repro.chaos.fio import FaultyIO
from repro.chaos.httpshim import ChaosTransport
from repro.chaos.lifecycle import (TENANT, audit_queue, fabricated_record,
                                   lifecycle_specs, spec_of_payload)
from repro.chaos.plan import ChaosPlan
from repro.orchestrate.jobspec import JobSpec
from repro.serve.api import ServeService
from repro.serve.client import ServeClient, ServeHTTPError
from repro.serve.model import StaleLeaseError
from repro.serve.queue import JobQueue

__all__ = ["run_campaign", "run_drill"]


def run_campaign(root: str, plan: ChaosPlan, jobs: int = 8,
                 deadline_s: float = 60.0, lease_s: float = 3.0,
                 echo: bool = False) -> Dict[str, Any]:
    """One full campaign under ``plan``; returns the manifest."""
    specs = lifecycle_specs(jobs)
    acked: Dict[str, str] = {}      # sub_id -> job_key
    committed: List[str] = []       # job keys whose commit returned
    health_timeline: List[Dict[str, Any]] = []
    problems: List[str] = []

    queue = JobQueue(root, lease_s=lease_s, max_attempts=8,
                     probe_interval_s=0.2,
                     max_queued_runs=max(jobs * 2, 16),
                     checkpoint_every=0)
    service = ServeService(queue, housekeeping_s=0.1).start()
    shim = ChaosTransport(plan)
    client = ServeClient(service.url, retries=8, backoff_s=0.02,
                         backoff_max_s=0.5, retry_seed=plan.seed,
                         transport=shim)
    deadline = time.monotonic() + deadline_s
    try:
        with FaultyIO(plan) as fio:
            # Submit: a failed submit (503 past the budget, dropped
            # connection) is retried by re-submitting — duplicates are
            # the *point*; dedup must absorb them.
            pending = list(specs)
            while pending and time.monotonic() < deadline:
                spec = pending.pop(0)
                try:
                    view = client.submit(TENANT, spec.to_dict())
                    acked[view["submission_id"]] = view["job_key"]
                except (ServeHTTPError, OSError):
                    pending.append(spec)
                    time.sleep(0.02)
            if pending:
                problems.append(
                    f"{len(pending)} submissions never acknowledged "
                    f"within the deadline")

            # Drive: lease/execute/commit through the same faulty wire.
            idle_streak = 0
            while time.monotonic() < deadline:
                try:
                    doc = client.healthz()
                    if (not health_timeline or
                            health_timeline[-1]["state"] != doc["state"]):
                        health_timeline.append(
                            {"state": doc["state"],
                             "reasons": doc.get("reasons", [])})
                except (ServeHTTPError, OSError, ValueError):
                    pass
                try:
                    lease = client.lease("campaign-worker")
                except (StaleLeaseError, ServeHTTPError, OSError):
                    time.sleep(0.02)
                    continue
                if lease is None:
                    if all_settled(client, acked):
                        break
                    idle_streak += 1
                    time.sleep(0.05 if idle_streak < 20 else 0.2)
                    continue
                idle_streak = 0
                spec = spec_of_payload(lease["payload"])
                try:
                    client.commit(lease["job_key"], lease["token"],
                                  fabricated_record(spec))
                    committed.append(lease["job_key"])
                except StaleLeaseError:
                    pass    # fenced duplicate/late commit — by design
                except (ServeHTTPError, OSError):
                    pass    # lease will expire and requeue
    finally:
        client.close()
        service.stop()

    # Verdict — against a *clean* reopen of the journal.
    verdict = _verify(root, acked, specs, committed)
    problems.extend(verdict["problems"])
    manifest = {
        "schema": "chaos-campaign-v1",
        "plan_key": plan.plan_key(),
        "plan": plan.to_dict(),
        "jobs": jobs,
        "acked": len(acked),
        "io_injected": fio.injected,
        "http_injected": shim.injected,
        "http_requests": shim.requests,
        "client_retries": dict(client.retry_counts),
        "health_timeline": health_timeline,
        "checks": verdict["checks"],
        "problems": problems,
        "ok": not problems,
    }
    if echo:
        for line in plan.describe().splitlines():
            print(line, flush=True)
        print(f"acked={len(acked)} io_faults={len(fio.injected)} "
              f"http_faults={len(shim.injected)} "
              f"retries={dict(client.retry_counts)} "
              f"-> {'ok' if manifest['ok'] else 'FAIL'}", flush=True)
    return manifest


def all_settled(client: ServeClient, acked: Dict[str, str]) -> bool:
    try:
        status = client.status()
    except (ServeHTTPError, OSError):
        return False
    runs = status["runs"]
    return not runs.get("queued", 0) and not runs.get("leased", 0) \
        and bool(acked)


def _verify(root: str, acked: Dict[str, str], specs: List[JobSpec],
            committed: List[str]) -> Dict[str, Any]:
    """Reopen the journal cold and audit it."""
    queue = JobQueue(root, lease_s=30.0, checkpoint_every=0)
    try:
        audit = audit_queue(queue, acked, committed, specs)
    finally:
        queue.close()
    return {"problems": audit["problems"], "checks": {
        "acked_settled": len(acked) - audit["lost"],
        "runs": audit["runs"],
        "commit_journal_lines": audit["commit_journal_lines"],
        "none_lost": not audit["lost"],
        "none_duplicated": not (audit["over_committed"]
                                or audit["duplicate_commits"]),
        "all_records_present": not audit["missing_records"],
    }}


# ---------------------------------------------------------------- drill

def run_drill(root: str, probe_interval_s: float = 0.2,
              deadline_s: float = 30.0,
              echo: bool = False) -> Dict[str, Any]:
    """The disk-full → degrade → heal → recover round-trip.

    Steps (each asserted, all recorded in the returned manifest):

    1. baseline: submit + commit succeed, ``/healthz`` says ``ok``;
    2. the disk "fills" (FaultyIO's manual toggle): a submit gets
       ``503`` with ``Retry-After``, ``/healthz`` reports
       ``read_only`` (HTTP 503), yet status/results/metrics — the
       read surface — keep answering ``200``;
    3. the disk heals: the housekeeping probe flips the queue back to
       ``ok`` with no operator action, and a fresh submit is accepted
       and driven to completion.
    """
    steps: List[Dict[str, Any]] = []

    def step(name: str, ok: bool, **detail: Any) -> bool:
        steps.append({"step": name, "ok": bool(ok), **detail})
        if echo:
            print(f"  [{'ok' if ok else 'FAIL'}] {name} "
                  f"{detail if detail else ''}", flush=True)
        return bool(ok)

    queue = JobQueue(root, lease_s=30.0, checkpoint_every=0,
                     probe_interval_s=probe_interval_s)
    service = ServeService(queue, housekeeping_s=0.05).start()
    client = ServeClient(service.url)
    specs = lifecycle_specs(3)
    deadline = time.monotonic() + deadline_s
    try:
        with FaultyIO() as fio:
            # 1 — baseline.
            view = client.submit(TENANT, specs[0].to_dict())
            lease = client.lease("drill-worker")
            ok = lease is not None and \
                lease["job_key"] == view["job_key"]
            if ok:
                client.commit(lease["job_key"], lease["token"],
                              fabricated_record(specs[0]))
            doc = client.healthz()
            step("baseline submit+commit, healthz ok",
                 ok and doc["state"] == "ok",
                 healthz=doc["state"])

            # 2 — the disk fills.
            fio.disk_full = True
            retry_after = None
            got_503 = False
            try:
                client.submit(TENANT, specs[1].to_dict())
            except ServeHTTPError as exc:
                got_503 = exc.status == 503
                retry_after = exc.doc.get("retry_after")
            step("submit refused 503 + Retry-After while disk full",
                 got_503 and retry_after is not None,
                 retry_after=retry_after)

            doc = client.healthz()
            step("healthz reports read_only over HTTP 503",
                 doc["state"] == "read_only"
                 and doc["http_status"] == 503,
                 reasons=doc.get("reasons", []))

            status_ok = results_ok = metrics_ok = False
            try:
                status_ok = client.run(view["job_key"])["state"] == "done"
                results_ok = "result" in client.result(view["job_key"])
                metrics_ok = ('repro_health_state{state="read_only"} 1'
                              in client.metrics())
            except (ServeHTTPError, OSError):
                pass
            step("read surface still served while read_only",
                 status_ok and results_ok and metrics_ok,
                 status=status_ok, results=results_ok,
                 metrics=metrics_ok)

            # 3 — the disk heals; the probe recovers automatically.
            fio.disk_full = False
            state = "read_only"
            while time.monotonic() < deadline:
                state = client.healthz()["state"]
                if state == "ok":
                    break
                time.sleep(probe_interval_s / 2)
            step("automatic recovery to ok after heal", state == "ok",
                 state=state)

            view2 = client.submit(TENANT, specs[2].to_dict())
            lease = client.lease("drill-worker")
            committed = False
            if lease is not None:
                client.commit(lease["job_key"], lease["token"],
                              fabricated_record(specs[2]))
                committed = client.run(
                    view2["job_key"])["state"] == "done"
            step("post-recovery submit accepted and completed",
                 committed)
    finally:
        client.close()
        service.stop()
    return {
        "schema": "chaos-drill-v1",
        "probe_interval_s": probe_interval_s,
        "steps": steps,
        "ok": all(s["ok"] for s in steps) and bool(steps),
    }
