"""``repro-analyze``: the encoding linter and race sanitizer.

Usage::

    # Statically lint every registered encoding under all four styles
    # (plus the default workload bodies and the AST never-yielded pass).
    repro-analyze lint

    # Just two primitives under the callback styles, as JSON findings.
    repro-analyze lint --primitive tas --primitive ttas \\
        --style cb_all --style cb_one --json --out findings.json

    # Prove the linter catches the seeded-bad fixtures.
    repro-analyze lint --fixtures

    # Dynamic happens-before race check of one simulated run.
    repro-analyze race --workload lock:ttas --config CB-One

    # The same, post-hoc over a recorded memory-op trace.
    repro-analyze race --trace ops.jsonl --style cb_one

    # Model-check every protocol's transition tables at 2 and 3 cores.
    repro-analyze mc

    # Prove the checker flags the seeded-bad mutant tables, replaying
    # each counterexample through the real protocol structures.
    repro-analyze mc --mutants --verify-replay

    # Re-execute an archived counterexample trace (bit-parity asserted).
    repro-analyze mc --replay cex/callback-mutex2-cb_st1_wake_dropped.json

    # Merge archived findings files and summarize (exit 1 on errors).
    repro-analyze report lint.json race.json

Workload specs are ``name[:detail]`` against the orchestrator registry,
exactly as in ``repro-obs``/``repro-orchestrate``. Exit status is 1
whenever error-severity findings exist, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, List, Optional

from repro.config import PAPER_CONFIGS
from repro.sync.base import SyncStyle

from repro.analyze.findings import Report


def _parse_styles(names: List[str]) -> List[SyncStyle]:
    if not names:
        return list(SyncStyle)
    out = []
    for name in names:
        key = name.lower().replace("-", "_")
        try:
            out.append(SyncStyle(key))
        except ValueError:
            choices = ", ".join(s.value for s in SyncStyle)
            raise SystemExit(f"unknown style {name!r} (choose from "
                             f"{choices})")
    return out


def _emit(report: Report, args: argparse.Namespace) -> None:
    """Print or write ``report`` per the common --json/--out options."""
    if args.out:
        with open(args.out, "w") as handle:
            report.dump(handle)
    if args.json and not args.out:
        print(report.to_json())
    elif not args.json:
        for finding in report:
            print(finding.brief())
        print(report.summary())


# ------------------------------------------------------------- subcommands


def cmd_lint(args: argparse.Namespace) -> int:
    if args.fixtures:
        from repro.analyze.fixtures import check_fixtures
        problems = check_fixtures()
        for problem in problems:
            print(f"FIXTURE MISMATCH: {problem}")
        print("fixture check:",
              "PASS" if not problems else f"FAIL ({len(problems)})")
        return 1 if problems else 0

    from repro.analyze import astlint, linter

    styles = _parse_styles(args.style)
    unknown = [p for p in (args.primitive or ())
               if p not in linter.PRIMITIVE_SPECS]
    if unknown:
        raise SystemExit(f"unknown primitive(s) {unknown}; registered: "
                         f"{sorted(linter.PRIMITIVE_SPECS)}")
    report = linter.lint_all(
        primitives=args.primitive or None, styles=styles,
        workloads=None if args.no_workloads else linter.DEFAULT_WORKLOADS)
    if not args.no_ast:
        report.merge(astlint.lint_default())
    _emit(report, args)
    return 0 if report.ok else 1


def cmd_race(args: argparse.Namespace) -> int:
    if args.trace:
        if not args.style:
            raise SystemExit("--trace needs --style (the encoding the "
                             "trace was recorded under)")
        from repro.trace.recorder import load_trace
        from repro.analyze.hb import analyze_trace
        with open(args.trace) as handle:
            events = load_trace(handle)
        style = _parse_styles([args.style])[0]
        report = analyze_trace(events, style=style)
    else:
        if not args.workload:
            raise SystemExit("race needs --workload (or --trace FILE)")
        from repro.orchestrate.jobspec import build_machine
        from repro.orchestrate.registry import spec_from_flags
        from repro.analyze.hb import RaceMonitor

        telemetry = None
        if args.obs:
            from repro.obs.telemetry import Telemetry, TelemetryConfig
            telemetry = Telemetry(TelemetryConfig())
        monitors: List[RaceMonitor] = []
        machine = build_machine(
            spec_from_flags(args), telemetry=telemetry,
            prepare=lambda m: monitors.append(RaceMonitor(m)))
        machine.run()
        report = monitors[0].finish()
    _emit(report, args)
    return 0 if report.ok else 1


def cmd_mc(args: argparse.Namespace) -> int:
    import json as json_mod
    import os

    from repro.analyze.findings import Finding, Severity
    from repro.analyze.mc import (CheckConfig, ReplayError, check,
                                  check_mutants, replay_counterexample,
                                  scenario_catalog)

    report = Report()
    cfg = CheckConfig(max_states=args.max_states)
    chatty = not args.json

    def _dump_cex(cex: Any) -> Optional[str]:
        if not args.cex_dir:
            return None
        os.makedirs(args.cex_dir, exist_ok=True)
        tag = f"-{cex.mutant}" if cex.mutant else ""
        path = os.path.join(
            args.cex_dir, f"{cex.protocol}-{cex.scenario}{tag}.json")
        with open(path, "w") as handle:
            handle.write(cex.dumps() + "\n")
        return path

    if args.replay:
        with open(args.replay) as handle:
            payload = json_mod.load(handle)
        try:
            replayed = replay_counterexample(payload)
            if chatty:
                print(replayed.summary())
        except ReplayError as exc:
            report.add(Finding(
                rule="MC-E403", severity=Severity.ERROR,
                message=str(exc), file=args.replay))
        _emit(report, args)
        return 0 if report.ok else 1

    if args.mutants:
        for outcome in check_mutants(config=cfg):
            mutant = outcome.mutant
            cex = outcome.result.counterexample
            if chatty:
                verdict = "ok" if outcome.ok else "MISSED"
                steps = len(cex.steps) if cex else 0
                print(f"mutant {mutant.name}: {verdict} — "
                      f"{mutant.protocol}/{mutant.scenario}, "
                      f"flagged={outcome.invariant or '-'} "
                      f"expected={outcome.expected} ({steps} steps)")
            if not outcome.ok:
                report.add(Finding(
                    rule="MC-E402", severity=Severity.ERROR,
                    message=(f"mutant {mutant.name} "
                             f"({mutant.protocol}/{mutant.scenario}): "
                             f"caught={outcome.caught} "
                             f"invariant={outcome.invariant!r} "
                             f"expected={outcome.expected!r} "
                             f"clean_ok={outcome.clean_ok}"),
                    primitive=mutant.scenario, style=mutant.protocol))
                continue
            path = _dump_cex(cex)
            if args.verify_replay:
                try:
                    replayed = replay_counterexample(cex)
                    if chatty:
                        print("  " + replayed.summary())
                except ReplayError as exc:
                    report.add(Finding(
                        rule="MC-E403", severity=Severity.ERROR,
                        message=f"mutant {mutant.name}: {exc}",
                        primitive=mutant.scenario, style=mutant.protocol,
                        file=path))
        _emit(report, args)
        return 0 if report.ok else 1

    cores = tuple(args.cores) if args.cores else (2, 3)
    for scenario in scenario_catalog(cores):
        if args.protocol and scenario.protocol not in args.protocol:
            continue
        if args.scenario and scenario.name != args.scenario:
            continue
        result = check(scenario, config=cfg)
        if chatty:
            print(result.summary())
        if result.truncated:
            report.add(Finding(
                rule="MC-W401", severity=Severity.WARNING,
                message=(f"{scenario.protocol}/{scenario.name}: "
                         f"exploration truncated at {result.states} "
                         f"states (--max-states {cfg.max_states})"),
                primitive=scenario.name, style=scenario.protocol))
        if not result.ok:
            cex = result.counterexample
            path = _dump_cex(cex) if cex else None
            report.add(Finding(
                rule="MC-E401", severity=Severity.ERROR,
                message=(f"{scenario.protocol}/{scenario.name}: "
                         f"{cex.invariant if cex else 'violation'} — "
                         f"{cex.message if cex else 'stuck state'}"),
                primitive=scenario.name, style=scenario.protocol,
                file=path))
    _emit(report, args)
    return 0 if report.ok else 1


def cmd_report(args: argparse.Namespace) -> int:
    merged = Report()
    for path in args.files:
        with open(path) as handle:
            merged.merge(Report.load(handle))
    _emit(merged, args)
    return 0 if merged.ok else 1


# ------------------------------------------------------------------ parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Static Table-1 encoding linter and dynamic "
                    "happens-before race sanitizer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser(
        "lint", help="statically lint sync encodings and workload bodies")
    lint.add_argument("--primitive", action="append", default=[],
                      help="encoding to lint (repeatable; default all)")
    lint.add_argument("--style", action="append", default=[],
                      help="sync style (mesi/vips/cb_all/cb_one; "
                           "repeatable; default all)")
    lint.add_argument("--no-workloads", action="store_true",
                      help="skip linting the default workload bodies")
    lint.add_argument("--no-ast", action="store_true",
                      help="skip the never-yielded-op AST pass")
    lint.add_argument("--fixtures", action="store_true",
                      help="verify the linter against the seeded-bad "
                           "fixture encodings instead")
    lint.add_argument("--json", action="store_true",
                      help="print findings as JSON")
    lint.add_argument("--out", default=None,
                      help="write findings JSON to this file")
    lint.set_defaults(fn=cmd_lint)

    race = sub.add_parser(
        "race", help="happens-before race check (simulate or post-hoc)")
    race.add_argument("--workload", default=None,
                      help="registry spec to simulate, e.g. lock:ttas")
    race.add_argument("--config", default="CB-One",
                      help=f"configuration label from {PAPER_CONFIGS}")
    race.add_argument("--cores", type=int, default=4,
                      help="num_cores override (0 = config default)")
    race.add_argument("--seed", type=int, default=1)
    race.add_argument("--param", action="append", default=[],
                      metavar="KEY=VALUE", help="workload param")
    race.add_argument("--override", action="append", default=[],
                      metavar="KEY=VALUE", help="config override")
    race.add_argument("--obs", action="store_true",
                      help="attach the obs probe bus for precise "
                           "callback wake-up edges")
    race.add_argument("--trace", default=None,
                      help="analyze a recorded JSONL trace instead of "
                           "simulating")
    race.add_argument("--style", default=None,
                      help="encoding of the recorded trace (with --trace)")
    race.add_argument("--json", action="store_true")
    race.add_argument("--out", default=None)
    race.set_defaults(fn=cmd_race)

    mc = sub.add_parser(
        "mc", help="model-check protocol FSMs from their transition "
                   "tables")
    mc.add_argument("--protocol", action="append", default=[],
                    help="protocol family to sweep (mesi/vips/callback; "
                         "repeatable; default all)")
    mc.add_argument("--scenario", default=None,
                    help="single scenario name, e.g. mutex2")
    mc.add_argument("--cores", action="append", type=int, default=[],
                    help="core counts to sweep (repeatable; default 2 3)")
    mc.add_argument("--max-states", type=int, default=250_000,
                    help="exploration budget per scenario")
    mc.add_argument("--mutants", action="store_true",
                    help="run the seeded-bad mutant gate instead of the "
                         "clean sweep")
    mc.add_argument("--verify-replay", action="store_true",
                    help="with --mutants: replay every counterexample "
                         "through the real protocol structures")
    mc.add_argument("--replay", default=None, metavar="FILE",
                    help="re-execute a counterexample JSON through the "
                         "real simulator structures")
    mc.add_argument("--cex-dir", default=None,
                    help="write counterexample JSON files here")
    mc.add_argument("--json", action="store_true")
    mc.add_argument("--out", default=None,
                    help="write findings JSON to this file")
    mc.set_defaults(fn=cmd_mc)

    report = sub.add_parser(
        "report", help="merge and summarize archived findings files")
    report.add_argument("files", nargs="+",
                        help="findings JSON files (from --out)")
    report.add_argument("--json", action="store_true")
    report.add_argument("--out", default=None,
                        help="write the merged findings here")
    report.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
