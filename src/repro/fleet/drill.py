"""The fleet partition drill: kill workers, kill the supervisor,
sever the wire — and prove the books still balance.

``python -m repro.fleet.drill --root DIR`` stands up a real service
(in-process :class:`~repro.serve.api.ServeService` over a journaled
:class:`~repro.serve.queue.JobQueue`), puts a supervisor **subprocess**
in charge of the worker pool, floods the queue across three tenants,
and injects three kinds of chaos at once:

* **flapping workers** — the supervisor's ``--flap`` hook makes the
  chosen slots' first ``flap_count`` spawns kamikazes
  (``--kill-after-boundaries 1``: SIGKILL between two durable
  checkpoints of their first leased run). With ``flap_count ==
  flap_threshold`` the restart budget must quarantine **exactly**
  those slots — no more, no fewer — which is what makes the
  quarantine assertion exact rather than statistical;
* **a severed wire** — every worker's transport runs behind a
  content-addressed :class:`~repro.chaos.plan.ChaosPlan` that drops a
  window of its ``POST /v1/worker/*`` calls (``http_drop`` raises
  before the request is sent, so a dropped commit is *lost*, never
  duplicated). Leases expire, runs requeue, stale tokens fence, and
  the worker-side circuit breaker turns the hammering into probes;
* **a dead supervisor** — mid-flood the supervisor is SIGKILLed (no
  cleanup of any kind) and relaunched. The successor must replay
  ``fleet.jsonl``, adopt the orphaned live workers by pidfile, reap
  the corpses, and keep the restart/quarantine math exactly where the
  dead supervisor left it.

After the storm the drill waits for the queue to drain and audits the
service-plane invariants end to end with the chaos package's
:func:`~repro.chaos.lifecycle.audit_queue` — **every acknowledged
submission is terminal and done**, **no job key has more than one
commit journal line**, every flood spec's record landed — and checks
that **the quarantine set equals the flap plan** and **the pool is
back at its desired size** within a bounded wait. The manifest —
plan key, counts, problems — is written to ``drill_manifest.json`` in
the drill root (CI uploads it together with ``fleet.jsonl``).

Parity mode (``--parity``) is the control experiment: the same flood
run twice, once under a supervisor with an **empty** chaos plan and
once under plain hand-spawned workers, must produce bit-identical
simulation records (``spec`` + ``result``, compared as canonical
JSON) — the supervisor is pure machinery, invisible in the results.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.lifecycle import audit_queue, lifecycle_spec
from repro.chaos.plan import ChaosPlan, HostFault
from repro.fleet.paths import (control_path, fleet_dir,
                               supervisor_state_path)
from repro.ioutil import atomic_write_json, canonical_json, read_checked_json
from repro.orchestrate.jobspec import JobSpec
from repro.serve.client import ServeClient
from repro.serve.worker import child_env

__all__ = ["run_drill", "run_parity", "drill_specs", "partition_plan",
           "main"]

TENANTS = ("alice", "bob", "carol")


def drill_specs(unique: int) -> List[Dict[str, Any]]:
    """Seeds 7000+i of the chaos lifecycle spec: a few thousand cycles,
    enough to cross checkpoint boundaries at ``checkpoint_every=300``
    (so kamikazes die mid-run, between durable checkpoints), small
    enough that a 300-submission flood drains in well under a minute."""
    return [lifecycle_spec(6000 + i).to_dict() for i in range(unique)]


def partition_plan(seed: int, nth: int = 40, count: int = 10) -> ChaosPlan:
    """Sever each worker's entire worker-plane API (lease, heartbeat,
    commit) for hits ``nth..nth+count-1``. Hit windows are per worker
    process, so a freshly respawned worker starts with a healed wire —
    and ``count`` is sized below the worker breaker's patience so the
    window is consumed by probes in seconds, not minutes."""
    return ChaosPlan(label="fleet-partition", seed=seed, faults=[
        HostFault(kind="http_drop", site="POST /v1/worker/*",
                  nth=nth, count=count)])


def _spawn_supervisor(server_url: str, root: str, plan_path: str,
                      *, min_workers: int, max_workers: int,
                      initial: int, seed: int,
                      flap_slots: Tuple[str, ...], flap_count: int,
                      verbose: bool) -> subprocess.Popen:
    argv = [sys.executable, "-m", "repro.fleet.supervisor",
            "--server", server_url, "--root", root,
            "--min", str(min_workers), "--max", str(max_workers),
            "--initial", str(initial), "--tick-s", "0.1",
            "--seed", str(seed), "--poll-s", "0.1",
            "--chaos-plan", plan_path,
            "--backoff-base-s", "0.1", "--backoff-max-s", "2.0",
            "--flap-threshold", str(max(flap_count, 1)),
            "--flap-window-s", "300", "--fleet-rate", "20",
            "--kamikaze-boundaries", "1",
            # Scale-up stays fast, but scale-down is effectively off
            # during the drill window (the flood has lulls while every
            # healthy worker is partitioned, and shrinking the pool
            # then would drain a mid-plan kamikaze and make the
            # quarantine count timing-dependent). The teardown drain
            # still exercises the graceful scale-down path.
            "--up-ticks", "2", "--down-ticks", "10000"]
    for slot in flap_slots:
        argv += ["--flap", f"{slot}={flap_count}"]
    if verbose:
        argv.append("--verbose")
    return subprocess.Popen(argv, env=child_env())


def _read_snapshot(serve_root: str) -> Optional[Dict[str, Any]]:
    try:
        doc = read_checked_json(
            supervisor_state_path(fleet_dir(serve_root)))
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


def _await_converged(serve_root: str, deadline_s: float,
                     problems: List[str],
                     want_quarantined: Optional[set] = None) -> \
        Optional[Dict[str, Any]]:
    """Poll the published snapshot until the pool matches its desired
    size (and, when asked, the quarantine set matches) — the drill's
    "recovery within bounded supervisor ticks" clock."""
    deadline = time.time() + deadline_s
    snap = None
    while time.time() < deadline:
        snap = _read_snapshot(serve_root)
        if snap is not None:
            running = snap.get("states", {}).get("running", 0)
            quarantined = set(snap.get("quarantined", {}))
            if running == snap.get("desired") and (
                    want_quarantined is None
                    or quarantined == want_quarantined):
                return snap
        time.sleep(0.1)
    last = None if snap is None else {
        k: snap.get(k) for k in ("desired", "states", "quarantined")}
    problems.append(
        f"fleet did not converge within {deadline_s:.0f}s "
        f"(last snapshot: {last})")
    return snap


def run_drill(root: str, unique_specs: int = 100,
              flap_slots: Tuple[str, ...] = ("w0", "w1"),
              flap_count: int = 3, seed: int = 7,
              initial_workers: int = 4, min_workers: int = 2,
              max_workers: int = 6,
              partition_nth: int = 40, partition_count: int = 10,
              idle_timeout_s: float = 240.0,
              converge_timeout_s: float = 45.0,
              verbose: bool = False) -> Dict[str, Any]:
    """Run the full partition drill; returns (and writes) the manifest.

    Deterministic where it counts: the flood specs, the kamikaze
    schedule (journaled restart ordinals), the partition plan (content
    addressed), and the backoff math (seeded) are all fixed by
    ``seed`` — the assertions hold on every run, not most runs.
    """
    from repro.serve.api import ServeService
    from repro.serve.queue import JobQueue

    os.makedirs(root, exist_ok=True)
    serve_root = os.path.join(root, "serve")
    t0 = time.time()
    problems: List[str] = []

    plan = partition_plan(seed, nth=partition_nth, count=partition_count)
    plan_path = os.path.join(root, "partition.plan.json")
    plan.save(plan_path)

    queue = JobQueue(serve_root, lease_s=2.0, max_attempts=8,
                     checkpoint_every=300)
    service = ServeService(queue, housekeeping_s=0.1).start()
    client = ServeClient(service.url)
    supervisor: Optional[subprocess.Popen] = None
    supervisor_kills = 0
    acked: List[Tuple[str, str]] = []   # (submission_id, job_key)

    def spawn_sup() -> subprocess.Popen:
        return _spawn_supervisor(
            service.url, serve_root, plan_path,
            min_workers=min_workers, max_workers=max_workers,
            initial=initial_workers, seed=seed,
            flap_slots=flap_slots, flap_count=flap_count,
            verbose=verbose)

    try:
        # Seed the queue before the fleet comes up, so the first
        # kamikaze spawns find a run to die on.
        specs = drill_specs(unique_specs)
        half = len(specs) // 2
        for tenant in TENANTS:
            for view in client.submit_many(tenant, specs[:half]):
                acked.append((view["submission_id"], view["job_key"]))

        supervisor = spawn_sup()

        # Let the fleet take the first wave (and the flap slots start
        # dying), then kill the supervisor mid-flood — SIGKILL, no
        # goodbye — and finish the flood while it is dead.
        time.sleep(2.0)
        supervisor.kill()
        supervisor.wait(timeout=30)
        supervisor_kills += 1
        for tenant in TENANTS:
            for view in client.submit_many(tenant, specs[half:]):
                acked.append((view["submission_id"], view["job_key"]))

        # The successor: replay + adopt + keep going.
        supervisor = spawn_sup()

        client.wait_idle(timeout_s=idle_timeout_s, poll_s=0.25)
        snap = _await_converged(serve_root, converge_timeout_s, problems,
                                want_quarantined=set(flap_slots))

        # ---- audit -------------------------------------------------
        with queue._lock:
            audit = audit_queue(
                queue, dict(acked),
                specs=[JobSpec.from_dict(doc) for doc in specs])
        problems.extend(audit["problems"])

        quarantined = set((snap or {}).get("quarantined", {}))
        if quarantined != set(flap_slots):
            problems.append(
                f"quarantine set {sorted(quarantined)} != flap plan "
                f"{sorted(flap_slots)}")
        adoptions = int(((snap or {}).get("counters") or {})
                        .get("adoptions", 0))
        if supervisor_kills and adoptions < 1:
            problems.append("successor supervisor adopted no workers "
                            "after the SIGKILL")

        manifest = {
            "ok": not problems,
            "problems": problems,
            "plan_key": plan.plan_key(),
            "seed": seed,
            "acked": len(acked),
            "unique_runs": len({key for _sid, key in acked}),
            "commit_journal_lines": audit["commit_journal_lines"],
            "duplicate_commits": audit["duplicate_commits"],
            "quarantined": sorted(quarantined),
            "expected_quarantined": sorted(flap_slots),
            "supervisor_kills": supervisor_kills,
            "adoptions": adoptions,
            "final_snapshot": {k: (snap or {}).get(k)
                               for k in ("desired", "states",
                                         "counters", "ticks")},
            "elapsed_s": round(time.time() - t0, 3),
        }
        atomic_write_json(os.path.join(root, "drill_manifest.json"),
                          manifest, indent=2)
        return manifest
    finally:
        if supervisor is not None and supervisor.poll() is None:
            supervisor.terminate()
            try:
                supervisor.wait(timeout=30)
            except subprocess.TimeoutExpired:
                supervisor.kill()
                supervisor.wait(timeout=10)
        client.close()
        service.stop()


# --------------------------------------------------------------- parity


def _records_of(queue: "Any", specs: List[Dict[str, Any]]) -> str:
    """Canonical JSON of every spec's (spec, result) record pair —
    ``meta`` carries wall-clock timings and is deliberately excluded
    from the bit-identity comparison."""
    docs = []
    for spec_doc in specs:
        spec = JobSpec.from_dict(spec_doc)
        record = queue.cache.get(spec)
        docs.append({"job_key": spec.job_key(),
                     "spec": None if record is None else record["spec"],
                     "result": None if record is None
                     else record["result"]})
    return canonical_json(sorted(docs, key=lambda d: d["job_key"]))


def _drain_fleet(serve_root: str, supervisor: subprocess.Popen) -> None:
    atomic_write_json(control_path(fleet_dir(serve_root)),
                      {"drain": True})
    deadline = time.time() + 30
    while time.time() < deadline:
        snap = _read_snapshot(serve_root)
        if snap and not snap.get("slots"):
            break
        time.sleep(0.1)
    supervisor.terminate()
    supervisor.wait(timeout=30)


def run_parity(root: str, unique_specs: int = 30, seed: int = 7,
               workers: int = 2, idle_timeout_s: float = 120.0,
               verbose: bool = False) -> Dict[str, Any]:
    """The control experiment: supervised fleet with an empty chaos
    plan vs. plain ``spawn_worker`` pool, same flood — simulation
    records must be bit-identical."""
    from repro.serve.api import ServeService
    from repro.serve.queue import JobQueue
    from repro.serve.worker import spawn_worker

    os.makedirs(root, exist_ok=True)
    specs = drill_specs(unique_specs)

    # Arm A: supervised, empty plan, fixed-size pool (min == max, so
    # the autoscaler is a spectator).
    root_a = os.path.join(root, "supervised")
    plan_path = os.path.join(root, "empty.plan.json")
    ChaosPlan(label="empty-control", seed=seed).save(plan_path)
    queue_a = JobQueue(root_a, lease_s=5.0, checkpoint_every=300)
    service_a = ServeService(queue_a, housekeeping_s=0.1).start()
    client_a = ServeClient(service_a.url)
    supervisor = _spawn_supervisor(
        service_a.url, root_a, plan_path,
        min_workers=workers, max_workers=workers, initial=workers,
        seed=seed, flap_slots=(), flap_count=0, verbose=verbose)
    try:
        for tenant in TENANTS:
            client_a.submit_many(tenant, specs)
        client_a.wait_idle(timeout_s=idle_timeout_s, poll_s=0.25)
        _drain_fleet(root_a, supervisor)
        records_a = _records_of(queue_a, specs)
    finally:
        if supervisor.poll() is None:
            supervisor.kill()
            supervisor.wait(timeout=10)
        client_a.close()
        service_a.stop()

    # Arm B: the same flood with hand-spawned workers, no supervisor.
    root_b = os.path.join(root, "plain")
    queue_b = JobQueue(root_b, lease_s=5.0, checkpoint_every=300)
    service_b = ServeService(queue_b, housekeeping_s=0.1).start()
    client_b = ServeClient(service_b.url)
    procs = [spawn_worker(service_b.url, index=i, exit_on_drain=True)
             for i in range(workers)]
    try:
        for tenant in TENANTS:
            client_b.submit_many(tenant, specs)
        client_b.wait_idle(timeout_s=idle_timeout_s, poll_s=0.25)
        client_b.drain()
        for proc in procs:
            proc.wait(timeout=30)
        procs = []
        records_b = _records_of(queue_b, specs)
    finally:
        for proc in procs:
            proc.terminate()
        client_b.close()
        service_b.stop()

    identical = records_a == records_b
    manifest = {"ok": identical, "bit_identical": identical,
                "unique_specs": unique_specs, "workers": workers,
                "bytes": len(records_a)}
    if not identical:
        manifest["problems"] = ["supervised and plain records differ"]
    atomic_write_json(os.path.join(root, "parity_manifest.json"),
                      manifest, indent=2)
    return manifest


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-fleet-drill",
        description="Partition drill: flood + flapping workers + "
                    "severed wire + SIGKILLed supervisor; audits the "
                    "zero-lost / zero-duplicate invariants.")
    parser.add_argument("--root", required=True)
    parser.add_argument("--jobs", type=int, default=100,
                        help="unique specs (x3 tenants = submissions)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--parity", action="store_true",
                        help="run the empty-plan control experiment "
                             "instead of the chaos drill")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    if args.parity:
        manifest = run_parity(args.root, seed=args.seed,
                              verbose=args.verbose)
    else:
        manifest = run_drill(args.root, unique_specs=args.jobs,
                             seed=args.seed, verbose=args.verbose)
    print(canonical_json(manifest))
    return 0 if manifest["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
