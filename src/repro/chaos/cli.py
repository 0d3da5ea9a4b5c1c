"""``repro-chaos`` — drive the host-level chaos harness.

Subcommands::

    repro-chaos campaign    --root DIR [--seed N] [--io-faults N]
                            [--http-faults N] [--jobs N] [--out FILE]
    repro-chaos replay      --plan FILE --root DIR [--jobs N] [--out FILE]
    repro-chaos crashpoints [--jobs N] [--sites GLOB]
                            [--max-per-site N] [--out FILE]
    repro-chaos drill       --root DIR [--out FILE]
    repro-chaos parity      --root DIR [--out FILE]

``campaign`` draws a fresh content-addressed plan from ``--seed`` and
runs the full service under it; ``replay`` re-runs a saved plan (the
reproduction path for a failed campaign — same plan key, same faults);
``crashpoints`` is the systematic SIGKILL sweep; ``drill`` is the
disk-full → degrade → heal → recover round-trip; ``parity`` asserts
the empty plan changes nothing. Every subcommand writes a JSON
manifest (``--out``) and exits non-zero when its checks fail — CI
uploads the manifests as artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Any, Dict, List, Optional

from repro.chaos.campaign import run_campaign, run_drill
from repro.chaos.crashpoints import sweep
from repro.chaos.parity import empty_plan_parity
from repro.chaos.plan import ChaosPlan, make_chaos_plan
from repro.ioutil import atomic_write_json

__all__ = ["main"]


def _emit(manifest: Dict[str, Any], out: Optional[str]) -> int:
    if out:
        atomic_write_json(out, manifest, indent=2)
        print(f"manifest -> {out}", flush=True)
    else:
        json.dump(manifest, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0 if manifest.get("ok") else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    plan = make_chaos_plan(seed=args.seed, io_faults=args.io_faults,
                           http_faults=args.http_faults,
                           label=f"campaign-seed-{args.seed}")
    print(plan.describe(), flush=True)
    manifest = run_campaign(args.root, plan, jobs=args.jobs,
                            deadline_s=args.deadline_s, echo=True)
    return _emit(manifest, args.out)


def cmd_replay(args: argparse.Namespace) -> int:
    plan, doc = ChaosPlan.load_doc(args.plan)
    jobs = args.jobs
    if jobs is None:
        # A campaign manifest records how many jobs the original run
        # submitted; replaying a different count is a different run.
        jobs = doc.get("jobs", 8)
    print(f"replaying {plan.plan_key()[:12]} "
          f"({len(plan.faults)} fault(s), jobs={jobs})", flush=True)
    manifest = run_campaign(args.root, plan, jobs=jobs,
                            deadline_s=args.deadline_s, echo=True)
    return _emit(manifest, args.out)


def cmd_crashpoints(args: argparse.Namespace) -> int:
    print(f"crash-point sweep: jobs={args.jobs} "
          f"sites={args.sites or '*'} "
          f"max-per-site={args.max_per_site or 'all'}", flush=True)
    manifest = sweep(jobs=args.jobs, sites_glob=args.sites,
                     max_per_site=args.max_per_site, echo=True)
    print(f"{manifest['explored_points']}/{manifest['enumerated_points']}"
          f" points explored -> "
          f"{'ok' if manifest['ok'] else 'FAIL'}", flush=True)
    return _emit(manifest, args.out)


def cmd_drill(args: argparse.Namespace) -> int:
    print("disk-full drill: fill -> degrade -> heal -> recover",
          flush=True)
    manifest = run_drill(args.root, echo=True)
    return _emit(manifest, args.out)


def cmd_parity(args: argparse.Namespace) -> int:
    root = args.root or tempfile.mkdtemp(prefix="chaos-parity-")
    report = empty_plan_parity(root)
    manifest = {"schema": "chaos-parity-v1", "root": root,
                "ok": report["identical"], **report}
    print(f"empty-plan parity: "
          f"{'identical' if report['identical'] else 'DIVERGED'}",
          flush=True)
    return _emit(manifest, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description="Deterministic host-level fault injection for the "
                    "service plane: seeded campaigns, systematic "
                    "crash-point sweeps, degradation drills.")
    sub = parser.add_subparsers(dest="command", required=True)

    campaign = sub.add_parser(
        "campaign", help="run the service under a drawn fault plan")
    campaign.add_argument("--root", required=True,
                          help="service state directory for the run")
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--io-faults", type=int, default=4)
    campaign.add_argument("--http-faults", type=int, default=4)
    campaign.add_argument("--jobs", type=int, default=8)
    campaign.add_argument("--deadline-s", type=float, default=60.0)
    campaign.add_argument("--out", default=None,
                          help="write the campaign manifest here")
    campaign.set_defaults(fn=cmd_campaign)

    replay = sub.add_parser(
        "replay", help="re-run a saved plan (reproduce a failure)")
    replay.add_argument("--plan", required=True,
                        help="plan JSON (a manifest's 'plan' works too)")
    replay.add_argument("--root", required=True)
    replay.add_argument("--jobs", type=int, default=None,
                        help="override the job count (defaults to the "
                             "count recorded in the campaign manifest)")
    replay.add_argument("--deadline-s", type=float, default=60.0)
    replay.add_argument("--out", default=None)
    replay.set_defaults(fn=cmd_replay)

    crash = sub.add_parser(
        "crashpoints", help="systematic SIGKILL-at-every-IO-site sweep")
    crash.add_argument("--jobs", type=int, default=1)
    crash.add_argument("--sites", default=None, metavar="GLOB",
                       help="restrict to matching sites "
                            "(e.g. 'journal.*')")
    crash.add_argument("--max-per-site", type=int, default=0,
                       help="bound subprocesses per site (0 = every "
                            "hit; first and last always kept)")
    crash.add_argument("--out", default=None)
    crash.set_defaults(fn=cmd_crashpoints)

    drill = sub.add_parser(
        "drill", help="disk-full -> degrade -> heal -> recover")
    drill.add_argument("--root", required=True)
    drill.add_argument("--out", default=None)
    drill.set_defaults(fn=cmd_drill)

    parity = sub.add_parser(
        "parity", help="assert the empty plan is bit-identical to "
                       "no shim")
    parity.add_argument("--root", default=None)
    parity.add_argument("--out", default=None)
    parity.set_defaults(fn=cmd_parity)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "out", None):
        os.makedirs(os.path.dirname(os.path.abspath(args.out)),
                    exist_ok=True)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
