"""``repro-serve`` — run and talk to the simulation service.

Subcommands::

    repro-serve serve   --root DIR [--port P] [--workers N] ...
    repro-serve worker  --server URL [...]
    repro-serve submit  --server URL --tenant T --spec FILE [--wait]
    repro-serve status  --server URL [REF] [--json]
    repro-serve results --server URL REF [--out FILE]
    repro-serve events  --server URL [--job KEY] [--follow]
    repro-serve metrics --server URL
    repro-serve trace   --server URL JOB_KEY [--out FILE]
    repro-serve drain   --server URL [--wait] [--off]

``serve`` hosts the queue (optionally spawning a local worker fleet);
everything else is a thin HTTP client, so submit/status/results work
against a service on another machine exactly as against localhost.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from repro.orchestrate.status import gauge_lines

from repro.serve.api import ServeService
from repro.serve.client import ServeClient, ServeHTTPError
from repro.serve.model import TERMINAL_SUB_STATES
from repro.serve.queue import JobQueue
from repro.serve.worker import Worker, spawn_worker

__all__ = ["main"]


def _parse_quotas(pairs: List[str]) -> Dict[str, int]:
    quotas: Dict[str, int] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--quota wants TENANT=N, got {pair!r}")
        tenant, _, count = pair.partition("=")
        quotas[tenant] = int(count)
    return quotas


def cmd_serve(args: argparse.Namespace) -> int:
    queue = JobQueue(args.root, lease_s=args.lease_s,
                     max_attempts=args.max_attempts,
                     default_quota=args.default_quota,
                     quotas=_parse_quotas(args.quota),
                     max_queued_runs=args.max_queued_runs,
                     probe_interval_s=args.probe_interval_s,
                     read_only_after=args.read_only_after,
                     checkpoint_every=args.checkpoint_every,
                     deadline_cycles_per_s=args.deadline_cycles_per_s,
                     verbose=args.verbose)
    service = ServeService(queue, host=args.host, port=args.port,
                           verbose=args.verbose).start()
    print(f"repro-serve listening on {service.url} (root {args.root})",
          flush=True)
    # Local workers register in the fleet directory so repro-fleet
    # status sees them (and a later supervisor can adopt them).
    from repro.fleet.paths import fleet_dir
    fleet = [spawn_worker(service.url, index=i,
                          fleet_dir=fleet_dir(args.root),
                          verbose=args.verbose)
             for i in range(args.workers)]
    if fleet:
        print(f"spawned {len(fleet)} local workers", flush=True)
    try:
        service.serve_forever()
    finally:
        for proc in fleet:
            proc.terminate()
        for proc in fleet:
            try:
                proc.wait(timeout=5)
            except Exception:  # pragma: no cover - best effort
                proc.kill()
        service.stop()
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    worker = Worker(args.server, worker_id=args.id, poll_s=args.poll_s,
                    max_jobs=args.max_jobs,
                    exit_on_drain=args.exit_on_drain,
                    kill_after_boundaries=args.kill_after_boundaries,
                    fleet_dir=args.fleet_dir,
                    verbose=args.verbose)
    return worker.run()


def _load_specs(path: str) -> List[Dict[str, Any]]:
    if path == "-":
        doc = json.load(sys.stdin)
    else:
        with open(path) as handle:
            doc = json.load(handle)
    if isinstance(doc, dict):
        return [doc]
    if isinstance(doc, list) and all(isinstance(s, dict) for s in doc):
        return doc
    raise SystemExit("--spec wants a JobSpec object or a list of them")


def _with_client(fn: Callable[[argparse.Namespace, ServeClient], int]
                 ) -> Callable[[argparse.Namespace], int]:
    """Run a client subcommand with one ``ServeClient`` on
    ``--server``, closed when the command returns."""
    @functools.wraps(fn)
    def run(args: argparse.Namespace) -> int:
        with ServeClient(args.server) as client:
            return fn(args, client)
    return run


@_with_client
def cmd_submit(args: argparse.Namespace, client: ServeClient) -> int:
    specs = _load_specs(args.spec)
    views = client.submit_many(args.tenant, specs, priority=args.priority,
                               telemetry=args.telemetry,
                               deadline_s=args.deadline_s)
    for view in views:
        hit = " (cache hit)" if view.get("cache_hit") else ""
        print(f"{view['submission_id']}  {view['state']}"
              f"  run={view['job_key'][:12]}{hit}")
    if not args.wait:
        return 0
    pending = {v["submission_id"] for v in views
               if v["state"] not in TERMINAL_SUB_STATES}
    failed = 0
    while pending:
        time.sleep(args.poll_s)
        for sub_id in sorted(pending):
            view = client.submission(sub_id)
            if view["state"] in TERMINAL_SUB_STATES:
                pending.discard(sub_id)
                line = f"{sub_id}  {view['state']}"
                if view.get("error"):
                    failed += 1
                    line += f"  [{view.get('failure_kind')}]" \
                            f" {view['error']}"
                elif view.get("resumed_from") is not None:
                    line += f"  (resumed from {view['resumed_from']})"
                print(line, flush=True)
    return 1 if failed else 0


@_with_client
def cmd_status(args: argparse.Namespace, client: ServeClient) -> int:
    if args.ref:
        doc = (client.submission(args.ref) if "-" in args.ref
               else client.run(args.ref))
    else:
        doc = client.status()
    if args.json or args.ref:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    runs = doc["runs"]
    subs = doc["submissions"]
    health = doc.get("health", "ok")
    print(f"service up {doc.get('uptime_s', 0):.0f}s"
          + ("  [draining]" if doc.get("draining") else "")
          + (f"  [health: {health}]" if health != "ok" else ""))
    for reason in doc.get("health_reasons", []):
        print(f"  ! {reason}")
    print(f"runs: {runs.get('queued', 0)} queued,"
          f" {runs.get('leased', 0)} leased, {runs.get('done', 0)} done,"
          f" {runs.get('failed', 0)} failed")
    print(f"submissions: {subs.get('total', 0)} total across"
          f" {len(doc.get('tenants', {}))} tenants"
          f" ({subs.get('cache_hits', 0)} cache hits)")
    # Gauges, through the formatter the orchestrator CLI shares.
    for line in gauge_lines(doc):
        print(line)
    return 0


@_with_client
def cmd_results(args: argparse.Namespace, client: ServeClient) -> int:
    try:
        record = client.result(args.ref)
    except ServeHTTPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    else:
        json.dump(record, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


@_with_client
def cmd_events(args: argparse.Namespace, client: ServeClient) -> int:
    try:
        if args.follow:
            for event in client.follow(job=args.job):
                print(json.dumps(event, sort_keys=True), flush=True)
        else:
            events, _ = client.events(job=args.job)
            for event in events:
                print(json.dumps(event, sort_keys=True))
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    except BrokenPipeError:    # piped into head/grep that exited
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


@_with_client
def cmd_metrics(args: argparse.Namespace, client: ServeClient) -> int:
    print(client.metrics(), end="")
    return 0


@_with_client
def cmd_trace(args: argparse.Namespace, client: ServeClient) -> int:
    try:
        doc = client.trace(args.job_key)
    except ServeHTTPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "w") as handle:
        json.dump(doc, handle, sort_keys=True)
    other = doc.get("otherData", {})
    print(f"{len(doc.get('traceEvents', []))} events"
          f" (trace {other.get('trace_id')}) -> {args.out}"
          f" (load at https://ui.perfetto.dev)")
    return 0


@_with_client
def cmd_drain(args: argparse.Namespace, client: ServeClient) -> int:
    doc = client.drain(on=not args.off)
    print(f"draining={doc['draining']} idle={doc['idle']}")
    if args.wait and not args.off:
        status = client.wait_idle(timeout_s=args.timeout_s)
        runs = status["runs"]
        print(f"drained: {runs.get('done', 0)} done,"
              f" {runs.get('failed', 0)} failed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Multi-tenant simulation service: persistent job "
                    "queue, leased worker fleet, streaming telemetry.")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="host the service")
    serve.add_argument("--root", required=True,
                       help="service state directory (journal, cache, "
                            "checkpoints, artifacts)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument("--workers", type=int, default=0,
                       help="spawn this many local worker processes")
    serve.add_argument("--lease-s", type=float, default=30.0,
                       help="lease duration before a silent worker's "
                            "job is requeued")
    serve.add_argument("--max-attempts", type=int, default=5)
    serve.add_argument("--default-quota", type=int, default=0,
                       help="max concurrent leases per tenant "
                            "(0 = unlimited)")
    serve.add_argument("--quota", action="append", default=[],
                       metavar="TENANT=N", help="per-tenant override")
    serve.add_argument("--max-queued-runs", type=int, default=0,
                       help="global backlog watermark: submits get 429 "
                            "above this many queued runs (0 = off)")
    serve.add_argument("--probe-interval-s", type=float, default=1.0,
                       help="read-only auto-recovery probe period")
    serve.add_argument("--read-only-after", type=int, default=3,
                       help="consecutive journal write failures before "
                            "the queue degrades to read-only (ENOSPC "
                            "trips it immediately)")
    serve.add_argument("--checkpoint-every", type=int, default=2000,
                       help="checkpoint boundary period in cycles")
    serve.add_argument("--deadline-cycles-per-s", type=float, default=0.0,
                       help="wall-to-simulated-cycles rate used to "
                            "derive an engine cycle budget from a "
                            "submission deadline (0 = wall-clock "
                            "deadline only)")
    serve.add_argument("--verbose", action="store_true")
    serve.set_defaults(fn=cmd_serve)

    worker = sub.add_parser("worker", help="attach one worker process")
    worker.add_argument("--server", required=True)
    worker.add_argument("--id", default=None)
    worker.add_argument("--poll-s", type=float, default=0.2)
    worker.add_argument("--max-jobs", type=int, default=0)
    worker.add_argument("--exit-on-drain", action="store_true")
    worker.add_argument("--kill-after-boundaries", type=int, default=0,
                        help=argparse.SUPPRESS)  # crash-testing hook
    worker.add_argument("--fleet-dir", default=None,
                        help="fleet registry directory (<root>/fleet): "
                             "register a pidfile there so repro-fleet "
                             "status and supervisor adoption see this "
                             "worker")
    worker.add_argument("--verbose", action="store_true")
    worker.set_defaults(fn=cmd_worker)

    submit = sub.add_parser("submit", help="submit JobSpecs")
    submit.add_argument("--server", required=True)
    submit.add_argument("--tenant", required=True)
    submit.add_argument("--spec", required=True,
                        help="JSON file with one JobSpec dict or a "
                             "list of them ('-' for stdin)")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--telemetry", action="store_true",
                        help="export Perfetto/CSV artifacts for these "
                             "runs")
    submit.add_argument("--deadline-s", type=float, default=None,
                        help="seconds from now after which these "
                             "submissions are worthless: the deadline "
                             "caps lease TTLs and the engine cycle "
                             "budget, and an expired run fails "
                             "terminally as kind 'timeout'")
    submit.add_argument("--wait", action="store_true",
                        help="block until every submission is terminal")
    submit.add_argument("--poll-s", type=float, default=0.5)
    submit.set_defaults(fn=cmd_submit)

    status = sub.add_parser("status", help="service or job status")
    status.add_argument("--server", required=True)
    status.add_argument("ref", nargs="?", default=None,
                        help="submission id or run job-key (omit for "
                             "whole-service status)")
    status.add_argument("--json", action="store_true")
    status.set_defaults(fn=cmd_status)

    results = sub.add_parser("results", help="fetch a finished record")
    results.add_argument("--server", required=True)
    results.add_argument("ref", help="submission id or run job-key")
    results.add_argument("--out", default=None,
                         help="write the record here instead of stdout")
    results.set_defaults(fn=cmd_results)

    events = sub.add_parser("events", help="tail the event log")
    events.add_argument("--server", required=True)
    events.add_argument("--job", default=None,
                        help="only this run's events")
    events.add_argument("--follow", action="store_true",
                        help="stream live (long-poll)")
    events.set_defaults(fn=cmd_events)

    metrics = sub.add_parser(
        "metrics", help="scrape the /metrics Prometheus text")
    metrics.add_argument("--server", required=True)
    metrics.set_defaults(fn=cmd_metrics)

    trace = sub.add_parser(
        "trace", help="fetch a run's stitched host+cycle Perfetto trace")
    trace.add_argument("--server", required=True)
    trace.add_argument("job_key", help="run job-key")
    trace.add_argument("--out", default="trace.json",
                       help="output trace JSON path")
    trace.set_defaults(fn=cmd_trace)

    drain = sub.add_parser("drain", help="stop leasing new work")
    drain.add_argument("--server", required=True)
    drain.add_argument("--off", action="store_true",
                       help="resume leasing instead")
    drain.add_argument("--wait", action="store_true",
                       help="block until in-flight work settles")
    drain.add_argument("--timeout-s", type=float, default=300.0)
    drain.set_defaults(fn=cmd_drain)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
