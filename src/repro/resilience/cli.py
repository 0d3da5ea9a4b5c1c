"""``repro-resilience``: fault campaigns, replay-by-hash, minimization.

Usage::

    # Campaign: forced evictions + delayed wakeups on both callback
    # systems, 3 seeds each; failing plans + diagnoses land in out/.
    repro-resilience campaign --configs CB-One,CB-All --workload lock:ttas \\
        --kinds cb_evict,wakeup_delay --seeds 1,2,3 --out results/faults

    # Replay one failing schedule, bit-for-bit, from its content hash.
    repro-resilience replay 3fa9c1 --plans results/faults/plans

    # Shrink it to a locally minimal failing subset (ddmin).
    repro-resilience minimize 3fa9c1 --plans results/faults/plans

Exit codes follow the shared failure taxonomy
(:data:`repro.resilience.classify.FAILURE_EXIT_CODES`): 0 ok, 2
invariant, 3 liveness, 4 timeout, 7 functional mismatch, 1 other —
so CI can branch on the *class* of failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.config import PAPER_CONFIGS

from repro.resilience.campaign import (DEFAULT_WATCHDOG_STALL, execute_plan,
                                       minimize_plan, run_campaign)
from repro.resilience.classify import FAILURE_EXIT_CODES, exit_code_for
from repro.resilience.faults import FaultKind, load_plan_by_key


def _parse_kinds(text: str) -> List[FaultKind]:
    kinds = []
    for name in text.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            kinds.append(FaultKind(name))
        except ValueError:
            valid = ", ".join(k.value for k in FaultKind)
            raise SystemExit(f"unknown fault kind {name!r}; one of: {valid}")
    if not kinds:
        raise SystemExit("no fault kinds given")
    return kinds


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.orchestrate.registry import parse_run_spec
    name, params, overrides = parse_run_spec(
        args.workload, args.param, args.override, args.cores)
    result = run_campaign(
        config_labels=[c.strip() for c in args.configs.split(",")
                       if c.strip()],
        workload=name, workload_params=params, config_overrides=overrides,
        seeds=[int(s) for s in args.seeds.split(",")],
        kinds=_parse_kinds(args.kinds),
        fault_seeds=[int(s) for s in args.fault_seeds.split(",")],
        count=args.count, horizon=args.horizon,
        watchdog_stall=args.watchdog_stall, audit_every=args.audit_every,
        out_dir=args.out,
    )
    for outcome in result.outcomes:
        line = f"  {outcome.status:<9} {outcome.describe}"
        if outcome.ok:
            line += (f"  cycles={outcome.cycles} "
                     f"faults={outcome.faults_applied}")
        else:
            line += f"  key={outcome.plan_key[:12]} ({outcome.error})"
        print(line)
    print(result.summary())
    if args.out and not result.ok:
        print(f"failing plans saved under {result.plans_dir}; replay with: "
              f"repro-resilience replay <key> --plans {result.plans_dir}")
    return exit_code_for(outcome.status for outcome in result.outcomes)


def cmd_replay(args: argparse.Namespace) -> int:
    plan = load_plan_by_key(args.plans, args.key)
    print(f"replaying {plan.plan_key()[:16]}: {plan.describe()}")
    outcome = execute_plan(plan, watchdog_stall=args.watchdog_stall,
                           audit_every=args.audit_every)
    print(f"  status={outcome.status} cycles={outcome.cycles} "
          f"faults={outcome.faults_applied}")
    if outcome.error:
        print(f"  {outcome.error}")
    if outcome.diagnosis is not None and args.trace_out:
        outcome.diagnosis.write_trace(args.trace_out)
        print(f"  diagnosis trace written to {args.trace_out} "
              f"(load in Perfetto / chrome://tracing)")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(outcome.as_dict(), handle, indent=2, sort_keys=True)
    return FAILURE_EXIT_CODES.get(outcome.status, 1)


def cmd_minimize(args: argparse.Namespace) -> int:
    plan = load_plan_by_key(args.plans, args.key)
    print(f"minimizing {plan.plan_key()[:16]}: {len(plan)} fault(s)")
    minimal = minimize_plan(plan, watchdog_stall=args.watchdog_stall,
                            audit_every=args.audit_every)
    if len(minimal) == len(plan):
        print("plan is already minimal (or does not fail)")
        return 0
    path = minimal.save_in(args.plans)
    print(f"reduced to {len(minimal)} fault(s): {minimal.describe()}")
    print(f"minimal plan saved to {path}")
    for fault in minimal.faults:
        print(f"  cycle {fault.cycle:>8} {fault.kind.value} "
              f"duration={fault.duration} magnitude={fault.magnitude}")
    return 0


def _add_run_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--watchdog-stall", type=int,
                        default=DEFAULT_WATCHDOG_STALL,
                        help="abort after this many cycles without useful "
                             "progress")
    parser.add_argument("--audit-every", type=int, default=0,
                        help="run invariant auditors every N cycles "
                             "(0 = off)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-resilience",
        description="Deterministic fault injection: campaigns, replay, "
                    "minimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    campaign = sub.add_parser(
        "campaign", help="run a fault-injection grid and validate "
                         "functional identity")
    campaign.add_argument("--workload", default="lock:ttas",
                          help="registry spec, e.g. lock:ttas or app:barnes")
    campaign.add_argument("--configs", default="CB-One,CB-All",
                          help=f"comma-separated labels from {PAPER_CONFIGS}")
    campaign.add_argument("--kinds", default="cb_evict",
                          help="comma-separated fault kinds: "
                               + ", ".join(k.value for k in FaultKind))
    campaign.add_argument("--seeds", default="1",
                          help="comma-separated simulation seeds")
    campaign.add_argument("--fault-seeds", default="0",
                          help="comma-separated schedule seeds (one faulted "
                               "run per seed per grid point)")
    campaign.add_argument("--count", type=int, default=8,
                          help="faults per plan")
    campaign.add_argument("--horizon", type=int, default=20_000,
                          help="faults are drawn in cycles [1, horizon]")
    campaign.add_argument("--cores", type=int, default=16,
                          help="num_cores override (0 = config default)")
    campaign.add_argument("--param", action="append", default=[],
                          metavar="KEY=VALUE", help="workload param")
    campaign.add_argument("--override", action="append", default=[],
                          metavar="KEY=VALUE", help="config override")
    campaign.add_argument("--out", default=None,
                          help="directory for failing plans, diagnoses, "
                               "and the manifest")
    _add_run_opts(campaign)
    campaign.set_defaults(fn=cmd_campaign)

    replay = sub.add_parser(
        "replay", help="re-run a saved fault plan by (prefix of) its hash")
    replay.add_argument("key", help="plan key prefix")
    replay.add_argument("--plans", required=True,
                        help="directory of saved <plan_key>.json files")
    replay.add_argument("--trace-out", default=None,
                        help="write the failure diagnosis as a Perfetto "
                             "trace to this file")
    replay.add_argument("--json", default=None,
                        help="write the outcome record to this file")
    _add_run_opts(replay)
    replay.set_defaults(fn=cmd_replay)

    minimize = sub.add_parser(
        "minimize", help="ddmin a failing plan to a minimal fault subset")
    minimize.add_argument("key", help="plan key prefix")
    minimize.add_argument("--plans", required=True,
                          help="directory of saved <plan_key>.json files")
    _add_run_opts(minimize)
    minimize.set_defaults(fn=cmd_minimize)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
