"""``repro-obs``: run a workload with telemetry and export what it saw.

Usage::

    # Sample counters + gauges every 200 cycles into CSV.
    repro-obs sample --workload lock:ttas --config CB-One --every 200 \\
        --out series.csv

    # Record sync-episode / callback-lifetime spans; keep the raw JSONL.
    repro-obs spans --workload barrier:sr --config Invalidation \\
        --jsonl spans.jsonl

    # One Perfetto-loadable trace of a whole run (spans + counter tracks);
    # open the output at https://ui.perfetto.dev.
    repro-obs export --workload signal_wait --config CB-One \\
        --out trace.json

    # Convert previously recorded JSONL (a repro-trace memory-op trace or
    # a spans file from this tool) without re-simulating.
    repro-obs export --from-trace ops.jsonl --out trace.json
    repro-obs export --from-spans spans.jsonl --out trace.json

    # Where does the host's wall-clock go? Attribute it to engine
    # callbacks by component.
    repro-obs profile --workload app:barnes --config CB-One --top 15

Workload specs are ``name[:detail]`` against the orchestrator's registry
(``app``, ``lock``, ``barrier``, ``signal_wait``, ``pipeline``,
``task_queue``), exactly as in ``repro-orchestrate``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from repro.config import PAPER_CONFIGS
from repro.harness.runner import RunResult, run_spec
from repro.obs.export import (chrome_trace, trace_events_to_spans,
                              validate_chrome_trace, write_chrome_trace)
from repro.obs.spans import load_spans
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.orchestrate.registry import spec_from_flags, workload_spec_names


def _simulate(args: argparse.Namespace,
              tconfig: TelemetryConfig) -> Tuple[RunResult, Telemetry]:
    """One telemetered run described by the common CLI options."""
    telemetry = Telemetry(tconfig)
    return run_spec(spec_from_flags(args), telemetry=telemetry), telemetry


def _counters_arg(text: Optional[str]):
    if text is None or text == "":
        return None
    if text == "all":
        return "all"
    return [c.strip() for c in text.split(",") if c.strip()]


def _open_out(path: Optional[str]):
    return open(path, "w") if path and path != "-" else sys.stdout


# ------------------------------------------------------------- subcommands

def cmd_sample(args: argparse.Namespace) -> int:
    tconfig = TelemetryConfig(sample_every=args.every,
                              counters=_counters_arg(args.counters))
    result, telemetry = _simulate(args, tconfig)
    sampler = telemetry.sampler
    stream = _open_out(args.out)
    try:
        if args.format == "json":
            sampler.to_json(stream)
            stream.write("\n")
        else:
            sampler.to_csv(stream)
    finally:
        if stream is not sys.stdout:
            stream.close()
    print(f"{sampler.rows} samples x {len(sampler.columns)} columns, "
          f"every {sampler.every} cycles over {result.cycles} cycles"
          + (f" -> {args.out}" if args.out and args.out != "-" else ""),
          file=sys.stderr)
    return 0


def cmd_spans(args: argparse.Namespace) -> int:
    result, telemetry = _simulate(args, TelemetryConfig(spans=True))
    recorder = telemetry.spans
    if args.jsonl:
        with open(args.jsonl, "w") as handle:
            recorder.to_jsonl(handle)
    print(f"{result.config_label} / {result.workload}: "
          f"{result.cycles} cycles")
    for cat, count in sorted(recorder.by_category().items()):
        print(f"  {cat:<10} {count} record(s)")
    if args.jsonl:
        print(f"spans written to {args.jsonl}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    if args.from_trace or args.from_spans:
        if args.workload:
            raise SystemExit("--from-trace/--from-spans replace the "
                             "simulation; drop --workload")
        spans, instants = [], []
        if args.from_trace:
            from repro.trace.recorder import load_trace
            with open(args.from_trace) as handle:
                instants = trace_events_to_spans(load_trace(handle))
        if args.from_spans:
            with open(args.from_spans) as handle:
                recorder = load_spans(handle)
            spans = recorder.spans
            instants = instants + recorder.instants
        doc = write_chrome_trace(args.out, spans=spans, instants=instants,
                                 label=args.label)
    else:
        if not args.workload:
            raise SystemExit("export needs --workload (or --from-trace/"
                             "--from-spans)")
        tconfig = TelemetryConfig(sample_every=args.every, spans=True)
        result, telemetry = _simulate(args, tconfig)
        doc = telemetry.write_perfetto(args.out, label=args.label,
                                       validate=False)
        print(f"{result.config_label} / {result.workload}: "
              f"{result.cycles} cycles", file=sys.stderr)
    problems = validate_chrome_trace(doc)
    if problems:
        print(f"trace INVALID ({len(problems)} problem(s)):",
              file=sys.stderr)
        for problem in problems[:10]:
            print(f"  {problem}", file=sys.stderr)
        return 1
    events = len(doc["traceEvents"])
    print(f"{events} trace events -> {args.out} "
          f"(load at https://ui.perfetto.dev)")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    result, telemetry = _simulate(args, TelemetryConfig(profile=True))
    profiler = telemetry.profiler
    print(f"{result.config_label} / {result.workload}: "
          f"{result.cycles} cycles, {profiler.events} engine events")
    print(profiler.report(top=args.top))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(profiler.as_dict(), handle, indent=2, sort_keys=True)
        print(f"profile written to {args.json}")
    if args.collapsed:
        count = profiler.write_collapsed(args.collapsed)
        print(f"{count} collapsed-stack lines -> {args.collapsed} "
              f"(feed to flamegraph.pl or https://speedscope.app)")
    return 0


# ------------------------------------------------------------------ parser

def _add_run_options(parser: argparse.ArgumentParser,
                     required: bool = True) -> None:
    parser.add_argument("--workload", required=required, default=None,
                        help="registry spec, e.g. lock:ttas or app:barnes "
                             f"(specs: {', '.join(workload_spec_names())})")
    parser.add_argument("--config", default="CB-One",
                        help=f"configuration label from {PAPER_CONFIGS}")
    parser.add_argument("--cores", type=int, default=16,
                        help="num_cores override (0 = config default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE", help="workload param")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE", help="config override")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Cycle-domain telemetry: sampling, spans, Perfetto "
                    "export, and host profiling for simulator runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sample = sub.add_parser(
        "sample", help="sample counters/gauges every N cycles")
    _add_run_options(sample)
    sample.add_argument("--every", type=int, default=200,
                        help="sampling cadence in cycles")
    sample.add_argument("--counters", default=None,
                        help="comma list of Stats counters, or 'all' "
                             "(default: the curated set)")
    sample.add_argument("--out", default="-",
                        help="output file ('-' = stdout)")
    sample.add_argument("--format", choices=("csv", "json"), default="csv")
    sample.set_defaults(fn=cmd_sample)

    spans = sub.add_parser(
        "spans", help="record sync/callback span timelines")
    _add_run_options(spans)
    spans.add_argument("--jsonl", default=None,
                       help="also write the raw span records here")
    spans.set_defaults(fn=cmd_spans)

    export = sub.add_parser(
        "export", help="emit a Perfetto-loadable Chrome trace JSON")
    _add_run_options(export, required=False)
    export.add_argument("--out", required=True,
                        help="trace JSON output path")
    export.add_argument("--every", type=int, default=200,
                        help="counter-track sampling cadence (0 = none)")
    export.add_argument("--label", default="repro")
    export.add_argument("--from-trace", default=None,
                        help="convert a repro-trace JSONL instead of "
                             "simulating")
    export.add_argument("--from-spans", default=None,
                        help="convert a spans JSONL (repro-obs spans "
                             "--jsonl) instead of simulating")
    export.set_defaults(fn=cmd_export)

    profile = sub.add_parser(
        "profile", help="attribute host wall-clock to engine callbacks")
    _add_run_options(profile)
    profile.add_argument("--top", type=int, default=20,
                         help="components to show")
    profile.add_argument("--json", default=None,
                         help="write the full profile as JSON")
    profile.add_argument("--collapsed", default=None, metavar="FILE",
                         help="write flamegraph-compatible collapsed "
                              "stacks (component;method microseconds)")
    profile.set_defaults(fn=cmd_profile)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
