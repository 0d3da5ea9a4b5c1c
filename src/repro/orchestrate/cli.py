"""``repro-orchestrate``: run, resume, and inspect experiment batches.

Usage::

    # Run a sweep batch: 2 configs x 2 back-off-entry settings x 2 seeds,
    # four simulations in flight at a time, results cached on disk.
    repro-orchestrate run --workload lock:ttas --configs CB-One,Invalidation \\
        --override cb_entries_per_bank=1,4 --seeds 1,2 --cores 16 \\
        --jobs 4 --cache-dir results/cache --batch-out batch.json

    # Resume an interrupted/extended batch: cache hits are free, only
    # misses simulate.
    repro-orchestrate resume batch.json --jobs 4 --cache-dir results/cache

    # What is done, what is missing, what did the batch measure?
    repro-orchestrate inspect batch.json --cache-dir results/cache

Workload specs are ``name[:detail]`` where ``name`` is a registry entry
(``app``, ``lock``, ``barrier``, ``signal_wait``, ``pipeline``,
``task_queue``) and the optional detail names the app / lock / barrier
(e.g. ``app:barnes``, ``lock:clh``). ``--param`` adds workload params;
``--override`` adds config overrides, parsed as in every other CLI by
:func:`repro.orchestrate.registry.parse_run_spec`. On top of that,
comma-separated override values are swept as a cartesian product.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.config import PAPER_CONFIGS
from repro.ioutil import read_events

from repro.orchestrate.cache import ResultCache
from repro.orchestrate.jobspec import JobSpec
from repro.orchestrate.scheduler import BatchResult, Orchestrator
from repro.orchestrate.registry import (parse_run_spec, parse_value,
                                        workload_spec_names)
from repro.orchestrate.status import (batch_status, cache_status,
                                      failure_histogram, gauge_lines)


def build_specs(args: argparse.Namespace) -> List[JobSpec]:
    """The batch implied by the ``run`` subcommand's arguments."""
    name, params, overrides = parse_run_spec(
        args.workload, args.param, args.override, args.cores,
        value=lambda text: [parse_value(v) for v in text.split(",")])
    configs = [c.strip() for c in args.configs.split(",") if c.strip()]
    seeds = [int(s) for s in args.seeds.split(",")]
    keys = list(overrides)
    specs = []
    for combo in itertools.product(*(overrides[k] for k in keys)):
        point = dict(zip(keys, combo))
        for label in configs:
            for seed in seeds:
                specs.append(JobSpec(config_label=label, workload=name,
                                     workload_params=params,
                                     config_overrides=point, seed=seed))
    return specs


def load_batch(path: str) -> List[JobSpec]:
    with open(path) as handle:
        manifest = json.load(handle)
    return [JobSpec.from_dict(item) for item in manifest["specs"]]


def save_batch(path: str, specs: Sequence[JobSpec]) -> None:
    with open(path, "w") as handle:
        json.dump({"specs": [spec.to_dict() for spec in specs]},
                  handle, indent=2, sort_keys=True)


def _execute(specs: List[JobSpec], args: argparse.Namespace) -> int:
    orchestrator = Orchestrator(jobs=args.jobs, cache=args.cache_dir,
                                timeout=args.timeout, retries=args.retries,
                                quarantine_after=args.quarantine_after,
                                checkpoint_dir=args.checkpoint_dir,
                                checkpoint_every=args.checkpoint_every,
                                verbose=args.verbose)
    batch = orchestrator.run(specs)
    _print_batch(batch, quiet=args.quiet)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(batch.records(), handle, indent=2, sort_keys=True)
        if not args.quiet:
            print(f"records written to {args.json}")
    if args.failures_out:
        with open(args.failures_out, "w") as handle:
            json.dump(batch.failure_manifest(), handle, indent=2,
                      sort_keys=True)
        if not args.quiet:
            print(f"failure manifest written to {args.failures_out}")
    return batch.exit_code()


def _print_batch(batch: BatchResult, quiet: bool = False) -> None:
    if not quiet:
        for result in batch.results:
            line = f"  {result.status:<11} {result.spec.describe()}"
            if result.record is not None:
                res = result.record["result"]
                line += (f"  cycles={res['cycles']} "
                         f"traffic={res['traffic']}")
            elif result.error:
                line += f"  [{result.kind}] ({result.error})"
            print(line)
    print(batch.summary())


def cmd_run(args: argparse.Namespace) -> int:
    specs = build_specs(args)
    if args.batch_out:
        save_batch(args.batch_out, specs)
        if not args.quiet:
            print(f"batch manifest ({len(specs)} jobs) written to "
                  f"{args.batch_out}")
    return _execute(specs, args)


def cmd_resume(args: argparse.Namespace) -> int:
    return _execute(load_batch(args.batch), args)


def _summarize_failures(cache_dir: str) -> None:
    """Failure-class histogram from the cache dir's events.jsonl
    (torn-tail tolerant: the log may still be mid-append)."""
    path = os.path.join(cache_dir, "events.jsonl")
    if not os.path.exists(path):
        return
    counts = failure_histogram(read_events(path))
    if counts:
        what = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        print(f"failure classes (events.jsonl): {what}")


def _counters_line(cache: ResultCache) -> str:
    # Same renderer the service's status command uses (gauge_lines).
    (line,) = gauge_lines({"cache": dict(cache.counters)})
    return line


def cmd_inspect(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    events_path = os.path.join(args.cache_dir, "events.jsonl")
    events_arg = events_path if os.path.exists(events_path) else None
    if args.json is not None:
        # Machine-readable: the same formatter the repro-serve status
        # endpoint renders jobs with, so CLI and HTTP views can't drift.
        if args.batch:
            doc = batch_status(load_batch(args.batch), cache,
                               events_path=events_arg)
        else:
            doc = cache_status(cache, events_path=events_arg)
        text = json.dumps(doc, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as handle:
                handle.write(text + "\n")
            print(f"status written to {args.json}")
        return 0
    if args.batch:
        specs = load_batch(args.batch)
        done = 0
        for spec in specs:
            record = cache.get(spec)
            status = "cached " if record else "missing"
            done += record is not None
            line = f"  {status} {spec.describe()}"
            if record:
                line += f"  cycles={record['result']['cycles']}"
            print(line)
        print(f"{done}/{len(specs)} jobs cached; "
              f"resume with: repro-orchestrate resume {args.batch} "
              f"--cache-dir {args.cache_dir}")
        print(_counters_line(cache))
        _summarize_failures(args.cache_dir)
        return 0
    keys = cache.keys()
    for record in cache.records():
        spec = JobSpec.from_dict(record["spec"])
        print(f"  {record['job_key'][:12]} {spec.describe()} "
              f"cycles={record['result']['cycles']}")
    print(f"{len(keys)} records in {args.cache_dir}")
    _summarize_failures(args.cache_dir)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel worker processes (1 = serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="content-addressed result cache directory")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-job wall-clock budget in seconds")
    parser.add_argument("--retries", type=int, default=2,
                        help="re-tries per job after a failure")
    parser.add_argument("--quarantine-after", type=int, default=3,
                        help="deterministic failures per workload+config "
                             "family before its jobs are refused (0 = off)")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="checkpoint store root; jobs checkpoint as "
                             "they run and retries resume (repro-ckpt "
                             "reads the same store)")
    parser.add_argument("--checkpoint-every", type=int, default=2000,
                        help="checkpoint period in cycles (needs "
                             "--checkpoint-dir)")
    parser.add_argument("--json", default=None,
                        help="write the batch's records to this file")
    parser.add_argument("--failures-out", default=None,
                        help="write the batch's failure manifest (specs, "
                             "failure classes, errors) to this file")
    parser.add_argument("--quiet", action="store_true",
                        help="only print the batch summary")
    parser.add_argument("--verbose", action="store_true",
                        help="stream per-event progress lines")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-orchestrate",
        description="Parallel, cached, fault-tolerant experiment batches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="build and execute a sweep batch")
    run.add_argument("--workload", required=True,
                     help="registry spec, e.g. app:barnes or lock:ttas "
                          f"(specs: {', '.join(workload_spec_names())})")
    run.add_argument("--configs", default="CB-One",
                     help=f"comma-separated labels from {PAPER_CONFIGS}")
    run.add_argument("--seeds", default="1",
                     help="comma-separated seeds, one job per seed")
    run.add_argument("--cores", type=int, default=16,
                     help="num_cores override (0 = config default)")
    run.add_argument("--param", action="append", default=[],
                     metavar="KEY=VALUE", help="workload param")
    run.add_argument("--override", action="append", default=[],
                     metavar="KEY=V1[,V2...]",
                     help="config override; comma values are swept")
    run.add_argument("--batch-out", default=None,
                     help="also write the batch manifest to this file")
    _add_common(run)
    run.set_defaults(fn=cmd_run)

    resume = sub.add_parser(
        "resume", help="re-execute a saved batch (cache makes it resume)")
    resume.add_argument("batch", help="batch manifest from --batch-out")
    _add_common(resume)
    resume.set_defaults(fn=cmd_resume)

    inspect = sub.add_parser(
        "inspect", help="show cache status for a batch or cache dir")
    inspect.add_argument("batch", nargs="?", default=None,
                         help="optional batch manifest to check")
    inspect.add_argument("--cache-dir", required=True)
    inspect.add_argument("--json", nargs="?", const="-", default=None,
                         metavar="PATH",
                         help="machine-readable status (the repro-serve "
                              "status formatter) to PATH, or stdout")
    inspect.set_defaults(fn=cmd_inspect)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
