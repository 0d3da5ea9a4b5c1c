"""The crash-point workload: one deterministic submit→lease→commit
lifecycle, runnable as a subprocess that can be SIGKILLed at any named
IO site — plus the recovery verifier that replays the survivor.

``python -m repro.chaos.lifecycle --root DIR --jobs N --kill SITE:NTH``
drives a :class:`~repro.serve.queue.JobQueue` (no HTTP — the queue *is*
the system of record; crash-point exploration targets its durability
protocol, not the wire) through N fabricated runs, echoing a line per
externally-visible promise as it is made:

* ``ACK <sub_id> <job_key>`` — the submit call returned: the service
  acknowledged the submission, which by contract is now durable;
* ``COMMIT <job_key>`` — the commit call returned: the result is
  published.

The parent (:mod:`repro.chaos.crashpoints`) collects those promises
from the pipe, lets the child die, then calls
:func:`recover_and_verify`: reopen the queue (journal replay), drive
whatever survived to completion, and check the two invariants the
whole service plane rests on — **no acknowledged submission is lost**
and **no run commits twice**. The check is :func:`audit_queue`, the
one audit that chaos campaigns and the fleet partition drill run too.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.chaos.fio import KillAtSite
from repro.orchestrate.jobspec import JobSpec
from repro.serve.journal import replay_entries
from repro.serve.model import (RUN_DONE, RUN_LEASED, RUN_QUEUED,
                               TERMINAL_SUB_STATES)
from repro.serve.queue import JobQueue

__all__ = ["lifecycle_spec", "lifecycle_specs", "fabricated_record",
           "spec_of_payload", "run_lifecycle", "audit_queue",
           "recover_and_verify", "main"]

TENANT = "alice"


def lifecycle_spec(i: int) -> JobSpec:
    """The i-th deterministic spec (distinct content addresses)."""
    return JobSpec(config_label="CB-All", workload="lock",
                   workload_params={"lock_name": "ttas", "iterations": 2},
                   config_overrides={"num_cores": 4}, seed=1000 + i)


def lifecycle_specs(n: int) -> List[JobSpec]:
    return [lifecycle_spec(i) for i in range(n)]


def fabricated_record(spec: JobSpec) -> Dict[str, Any]:
    """A well-formed record without running a simulation — the
    crash-points under test are all in the queue's IO protocol, and a
    deterministic payload keeps every subprocess fast and identical."""
    return {"spec": spec.to_dict(),
            "result": {"cycles": 100 + spec.seed, "traffic": 7,
                       "llc_sync": 3},
            "meta": {"wall_s": 0.01}}


def spec_of_payload(payload: Dict[str, Any]) -> JobSpec:
    """The spec a lease hands out, minus the queue's out-of-band
    ``_``-prefixed keys (checkpoint, telemetry, trace, deadline)."""
    return JobSpec.from_dict({k: v for k, v in payload.items()
                              if not k.startswith("_")})


def _drain(queue: JobQueue, worker: str, echo: bool = False) -> None:
    """Lease and commit a fabricated record until nothing is leasable."""
    while True:
        lease = queue.lease(worker)
        if lease is None:
            return
        queue.commit(lease["job_key"], lease["token"],
                     fabricated_record(spec_of_payload(lease["payload"])))
        if echo:
            print(f"COMMIT {lease['job_key']}", flush=True)


def run_lifecycle(root: str, jobs: int = 2) -> None:
    """Drive the full lifecycle, echoing promises as they are made.
    When a KillAtSite handler is installed this function never
    returns — the process dies at the scheduled site."""
    queue = JobQueue(root, lease_s=30.0, checkpoint_every=0)
    for spec in lifecycle_specs(jobs):
        view = queue.submit(TENANT, spec.to_dict())
        print(f"ACK {view['submission_id']} {view['job_key']}",
              flush=True)
    _drain(queue, "lifecycle-worker", echo=True)
    queue.close()
    print("DONE", flush=True)


def audit_queue(queue: JobQueue, acked: Mapping[str, str],
                committed: Iterable[str] = (),
                specs: Iterable[JobSpec] = ()) -> Dict[str, Any]:
    """The zero-lost / zero-duplicate audit of an open queue.

    ``acked`` maps each acknowledged sub_id to its job key;
    ``committed`` holds job keys whose commit call returned; ``specs``
    must all have a cache record. Checks, in order: every acked
    submission exists, is terminal, and its run is done; every
    committed run is still done; no run has ``commits > 1``; no job key
    has more than one ``commit`` journal line; every spec's record is
    in the cache; no run is left queued or leased.

    A cold reopen replays a second ``commit`` line as a no-op
    (``run.commits`` stays 1), so on a reopened queue the journal count
    is the only evidence of a double commit. A live caller holds
    ``queue._lock`` around the call.
    """
    lost: List[str] = []
    for sub_id, job_key in acked.items():
        sub_state = getattr(queue.subs.get(sub_id), "state", "missing")
        run_state = getattr(queue.runs.get(job_key), "state", "missing")
        if sub_state not in TERMINAL_SUB_STATES or run_state != RUN_DONE:
            lost.append(f"submission {sub_id} {sub_state}, "
                        f"run {job_key[:12]} {run_state}")
    for job_key in committed:
        run_state = getattr(queue.runs.get(job_key), "state", "missing")
        if run_state != RUN_DONE:
            lost.append(f"committed run {job_key[:12]} {run_state}")
    over = {r.job_key[:12]: r.commits for r in queue.runs.values()
            if r.commits > 1}
    lines = Counter(entry.get("job_key", "")
                    for entry in replay_entries(queue.root)
                    if entry.get("op") == "commit")
    dups = {key[:12]: n for key, n in lines.items() if n > 1}
    missing = [spec.seed for spec in specs
               if queue.cache.get(spec) is None]
    unfinished = [r.job_key[:12] for r in queue.runs.values()
                  if r.state in (RUN_QUEUED, RUN_LEASED)]
    problems = [f"{what}: {found}" for what, found in (
        ("acknowledged promises broken", lost),
        ("runs committed more than once in memory", over),
        ("duplicate commit journal lines", dups),
        ("records missing from cache for seeds", missing),
        ("unfinished runs", unfinished)) if found]
    return {"problems": problems, "lost": len(lost),
            "over_committed": len(over), "duplicate_commits": len(dups),
            "commit_journal_lines": sum(lines.values()),
            "missing_records": len(missing), "runs": len(queue.runs)}


def recover_and_verify(root: str, acked: Mapping[str, str],
                       committed: List[str], jobs: int) -> Dict[str, Any]:
    """Reopen the crashed queue, finish what survived, and audit it.
    ``acked`` maps the sub_ids the dead process acknowledged to their
    job keys; ``committed`` holds the job keys it reported committed."""
    queue = JobQueue(root, lease_s=30.0, checkpoint_every=0)
    try:
        # A real client whose submit never came back retries it; the
        # content-address dedup makes that free (and a duplicate on an
        # *acked* one collapses onto the same run — which is exactly
        # the duplicated-op robustness the sweep also wants covered).
        specs = lifecycle_specs(jobs)
        for spec in specs:
            queue.submit(TENANT, spec.to_dict())
        _drain(queue, "recovery-worker")
        audit = audit_queue(queue, acked, committed, specs)
    finally:
        queue.close()
    return {"ok": not audit["problems"], "problems": audit["problems"],
            "acked": len(acked), "committed": len(committed),
            "journal_commit_lines": audit["commit_journal_lines"]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-chaos-lifecycle",
        description="Crash-point lifecycle subprocess (SIGKILLs itself "
                    "at --kill SITE:NTH).")
    parser.add_argument("--root", required=True)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--kill", default=None, metavar="SITE:NTH")
    args = parser.parse_args(argv)
    if args.kill:
        with KillAtSite.parse(args.kill):
            run_lifecycle(args.root, jobs=args.jobs)
    else:
        run_lifecycle(args.root, jobs=args.jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
