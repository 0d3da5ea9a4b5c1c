"""Single-run inspector CLI.

Runs one (workload, configuration) simulation and prints everything the
simulator knows about it: cycle count, cache/LLC/network counters,
message mix, synchronization episode statistics, energy breakdown, and
the power-saving report.

Usage::

    python -m repro.tools.report --app barnes --config CB-One --cores 16
    python -m repro.tools.report --ubench lock:clh --config BackOff-10
    repro-report --app streamcluster --config Invalidation --scale 0.5
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.config import PAPER_CONFIGS
from repro.energy.power import core_power_report
from repro.harness.runner import RunResult
from repro.orchestrate.jobspec import JobSpec, build_machine
from repro.workloads.suite import APP_NAMES

#: ``--ubench`` kind -> (registry spec, param the ``:NAME`` detail
#: fills, param ``--iterations`` fills).
UBENCH_SPECS = {"lock": ("lock", "lock_name", "iterations"),
                "barrier": ("barrier", "barrier_name", "episodes"),
                "signal-wait": ("signal_wait", None, "rounds")}


def _spec_of(args: argparse.Namespace) -> JobSpec:
    overrides = {"num_cores": args.cores}
    if args.app:
        return JobSpec(args.config, "app",
                       {"name": args.app, "lock_name": args.lock,
                        "barrier_name": args.barrier, "scale": args.scale},
                       overrides)
    kind, _, detail = args.ubench.partition(":")
    if kind not in UBENCH_SPECS:
        raise SystemExit(f"unknown microbenchmark {args.ubench!r} "
                         "(lock:NAME | barrier:NAME | signal-wait)")
    name, detail_param, iterations_param = UBENCH_SPECS[kind]
    params = {iterations_param: args.iterations}
    if detail_param and detail:
        params[detail_param] = detail
    return JobSpec(args.config, name, params, overrides)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Run one simulation and print a full report.",
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--app", choices=APP_NAMES,
                        help="application stand-in to run")
    target.add_argument("--ubench",
                        help="microbenchmark: lock:NAME, barrier:NAME, "
                             "or signal-wait")
    parser.add_argument("--config", default="CB-One",
                        help=f"one of {PAPER_CONFIGS}")
    parser.add_argument("--cores", type=int, default=16)
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--lock", default="clh")
    parser.add_argument("--barrier", default="treesr")
    parser.add_argument("--iterations", type=int, default=6)
    args = parser.parse_args(argv)

    machine = build_machine(_spec_of(args))
    result = RunResult.of(machine, machine.run())
    stats = result.stats

    print(f"=== {result.workload} under {args.config} "
          f"({args.cores} cores) ===")
    print(f"cycles:               {stats.cycles}")
    print(f"L1 accesses:          {stats.l1_accesses} "
          f"(hits {stats.l1_hits}, misses {stats.l1_misses})")
    print(f"LLC accesses:         {stats.llc_accesses} "
          f"(sync {stats.llc_sync_accesses}, misses {stats.llc_misses})")
    print(f"memory accesses:      {stats.mem_accesses}")
    print(f"messages:             {stats.messages} "
          f"({stats.flit_hops} flit-hops, {stats.byte_hops} byte-hops)")
    if stats.msg_kinds:
        mix = ", ".join(f"{k}:{v}" for k, v in
                        sorted(stats.msg_kinds.items()))
        print(f"message mix:          {mix}")
    print(f"invalidations:        {stats.invalidations_sent} "
          f"(acks {stats.invalidation_acks}, fwds {stats.forwards})")
    print(f"self-invalidations:   {stats.self_invalidations} "
          f"({stats.lines_self_invalidated} lines); write-throughs: "
          f"{stats.words_written_through} words")
    print(f"spin iterations:      {stats.spin_iterations}; "
          f"back-off cycles: {stats.backoff_cycles}")
    print(f"callback directory:   installs {stats.cb_installs}, "
          f"blocked {stats.cb_blocked_reads}, "
          f"immediate {stats.cb_immediate_reads}, "
          f"wakeups {stats.cb_wakeups}, evictions {stats.cb_evictions}, "
          f"peak active/bank {stats.cb_max_active_entries}")
    for category, samples in sorted(stats.episode_latencies.items()):
        if samples:
            print(f"episode '{category}':   n={len(samples)} "
                  f"mean={sum(samples) / len(samples):.1f} "
                  f"max={max(samples)}")
    energy = result.energy
    print("energy (nJ):          "
          + ", ".join(f"{k}={v / 1000:.1f}"
                      for k, v in energy.as_dict().items()))
    power = core_power_report(stats, machine.config)
    print(f"power extension:      sleepable "
          f"{100 * power.sleepable_fraction:.1f}% of core-cycles, "
          f"core-energy saving {100 * power.saving_fraction:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
