"""``repro-ckpt``: save, verify, restore, replay, and GC checkpoints.

Usage::

    # Run a job with checkpoints every 2000 cycles (resumes from the
    # newest valid checkpoint if the store already has one).
    repro-ckpt save --dir ckpts --workload lock:ttas --config CB-One \\
        --cores 8 --every 2000

    # Audit blob checksums; quarantine nothing, just report.
    repro-ckpt verify --dir ckpts

    # Rebuild + fast-forward a checkpoint in a fresh process and prove
    # bit-parity; --finish then runs it to completion.
    repro-ckpt restore --dir ckpts 3f2a --at 4000 --finish

    # A run died of a deadlock/livelock/timeout: re-execute the
    # approach to the hang with telemetry + the race monitor attached.
    repro-ckpt replay --dir ckpts 3f2a

    # Keep only each job's two newest checkpoints.
    repro-ckpt gc --dir ckpts --keep 2

Job flags mirror ``repro-orchestrate run`` (``--workload name[:detail]``,
``--param``, ``--override``) so a checkpointed job and an orchestrated
job with the same flags share a content address — and therefore a
checkpoint store.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Any, List, Optional

from repro.ckpt.checkpoint import (Checkpoint, CheckpointMismatchError,
                                   Checkpointer, restore_checkpoint)
from repro.ckpt.state import capture_state, state_fingerprint
from repro.ckpt.store import CheckpointStore
from repro.orchestrate.registry import spec_from_flags
from repro.sim.engine import (DeadlockError, LivenessError, SimulationError,
                              SimulationTimeout)


def cmd_save(args: argparse.Namespace) -> int:
    spec = spec_from_flags(args)
    store = CheckpointStore(args.dir)

    hook = None
    if args.sigkill_at is not None:
        def hook(boundary: int) -> None:
            # Crash-test instrumentation: die unclean at the first
            # boundary past the threshold, strictly *between* durable
            # checkpoints (this boundary's blob is never written).
            if boundary >= args.sigkill_at:
                os.kill(os.getpid(), signal.SIGKILL)

    checkpointer = Checkpointer(spec, store, every=args.every,
                                boundary_hook=hook)
    try:
        stats = checkpointer.run(resume=not args.no_resume)
    except (DeadlockError, LivenessError, SimulationTimeout) as exc:
        print(f"run failed ({type(exc).__name__}): {exc}", file=sys.stderr)
        print(f"black box persisted for job {checkpointer.job_key[:12]}; "
              f"replay with: repro-ckpt replay --dir {args.dir} "
              f"{checkpointer.job_key[:12]}", file=sys.stderr)
        return 1
    resumed = (f"resumed from cycle {checkpointer.resumed_from}"
               if checkpointer.resumed_from is not None else "fresh run")
    print(f"job {checkpointer.job_key[:12]} ({spec.describe()})")
    print(f"{resumed}; saved {len(checkpointer.saved)} checkpoint(s) "
          f"at {checkpointer.saved}")
    final = store.latest(checkpointer.job_key)
    print(f"final: cycles={stats.cycles} "
          f"fingerprint={final.fingerprint[:16]} "
          f"functional={final.functional[:16]}")
    return 0


def _load_at(store: CheckpointStore, key: str,
             at: Optional[int]) -> Checkpoint:
    if at is not None:
        return store.load(key, at)
    ckpt = store.latest(key)
    if ckpt is None:
        raise SystemExit(f"no valid checkpoints for job {key[:12]}")
    return ckpt


def cmd_restore(args: argparse.Namespace) -> int:
    store = CheckpointStore(args.dir)
    key = store.resolve(args.key)
    ckpt = _load_at(store, key, args.at)
    print(f"restoring {ckpt.describe()}")
    try:
        machine = restore_checkpoint(ckpt, verify=args.verify)
    except CheckpointMismatchError as exc:
        print(f"MISMATCH: {exc}", file=sys.stderr)
        return 3
    print(f"verified ({args.verify}) at boundary {ckpt.boundary}; "
          f"clock={machine.engine.now} "
          f"events={machine.events_executed}")
    if args.finish:
        stats = machine.run()
        final = capture_state(machine)
        print(f"finished: cycles={stats.cycles} "
              f"fingerprint={state_fingerprint(final)[:16]}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    store = CheckpointStore(args.dir)
    key = store.resolve(args.key) if args.key else None
    report = store.verify(key)
    for job_key, entry in sorted(report["jobs"].items()):
        line = (f"  {job_key[:12]} ok={entry['ok']}")
        if entry["corrupt"]:
            line += f" CORRUPT={entry['corrupt']}"
        if entry["blackbox"]:
            line += " [blackbox]"
        print(line)
    print(f"{report['checked']} blob(s) checked, "
          f"{report['corrupt']} corrupt")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    return 2 if report["corrupt"] else 0


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.obs.telemetry import Telemetry, TelemetryConfig
    store = CheckpointStore(args.dir)
    key = store.resolve(args.key)
    blackbox = store.load_blackbox(key)
    if blackbox is None:
        raise SystemExit(f"job {key[:12]} has no black-box payload "
                         f"(the run did not fail, or it was quarantined)")
    error = blackbox.get("error", {})
    ring = blackbox.get("ring", [])
    print(f"job {key[:12]} failed: [{error.get('kind')}] "
          f"{error.get('type')}: {error.get('message')}")
    boundaries = [entry["boundary"] for entry in ring]
    start = args.start if args.start is not None else (
        boundaries[0] if boundaries else None)
    snapshot = Checkpoint.from_dict(blackbox["checkpoint"])
    if start is not None and start < snapshot.boundary:
        base = dict(blackbox["checkpoint"])
        ours = next((e for e in ring if e["boundary"] == start), None)
        if ours is None:
            raise SystemExit(f"cycle {start} is not a recorded boundary; "
                             f"ring has {boundaries}")
        # Ring entries are light (digests only): re-point the terminal
        # snapshot's recipe at the chosen boundary and let re-execution
        # verify against the ring's functional digest.
        base.update(boundary=ours["boundary"], clock=ours["clock"],
                    events_executed=ours["events_executed"],
                    fingerprint=ours["fingerprint"],
                    functional=ours["functional"], state={}, final=False)
        snapshot = Checkpoint.from_dict(base)
    print(f"re-executing from boundary {snapshot.boundary} with "
          f"telemetry + race monitor attached")

    monitors: List[Any] = []
    telemetry = Telemetry(TelemetryConfig(sample_every=args.sample_every,
                                          spans=True))

    def attach_monitor(machine: Any) -> None:
        from repro.analyze.hb import RaceMonitor
        monitors.append(RaceMonitor(machine))

    machine = restore_checkpoint(snapshot, telemetry=telemetry,
                                 prepare=attach_monitor,
                                 verify="functional")
    try:
        machine.run()
        print("replay completed without failing — the failure depended "
              "on an attachment or budget not present here")
    except SimulationError as exc:
        print(f"reproduced: {type(exc).__name__}: {exc}")
        diagnosis = getattr(exc, "diagnosis", None)
        if diagnosis is not None and args.trace_out:
            diagnosis.write_trace(args.trace_out)
            print(f"diagnosis trace written to {args.trace_out}")
    for monitor in monitors:
        report = monitor.finish()
        print(report.summary())
    recorded = blackbox.get("diagnosis")
    if recorded and not args.quiet:
        print("recorded diagnosis:")
        print(json.dumps(recorded, indent=2, sort_keys=True)[:2000])
    return 0


def cmd_gc(args: argparse.Namespace) -> int:
    store = CheckpointStore(args.dir)
    removed = store.gc(keep_last=args.keep)
    print(f"removed {removed} checkpoint blob(s); "
          f"kept <= {args.keep} per job")
    return 0


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", required=True,
                        help="registry spec, e.g. lock:ttas or app:barnes")
    parser.add_argument("--config", default="CB-One",
                        help="paper configuration label")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cores", type=int, default=0,
                        help="num_cores override (0 = config default)")
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE", help="workload param")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE", help="config override")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-ckpt",
        description="Deterministic checkpoint/restore with crash-safe "
                    "storage.")
    sub = parser.add_subparsers(dest="command", required=True)

    save = sub.add_parser("save", help="run a job with checkpoints")
    save.add_argument("--dir", required=True, help="checkpoint store root")
    save.add_argument("--every", type=int, default=2000,
                      help="checkpoint period in cycles")
    save.add_argument("--no-resume", action="store_true",
                      help="ignore existing checkpoints; start fresh")
    save.add_argument("--sigkill-at", type=int, default=None,
                      help=argparse.SUPPRESS)  # crash-test instrumentation
    _add_spec_flags(save)
    save.set_defaults(fn=cmd_save)

    restore = sub.add_parser(
        "restore", help="rebuild + fast-forward a checkpoint, verified")
    restore.add_argument("key", help="job key (unique prefix ok)")
    restore.add_argument("--dir", required=True)
    restore.add_argument("--at", type=int, default=None,
                         help="boundary cycle (default: newest valid)")
    restore.add_argument("--verify", default="full",
                         choices=["auto", "full", "functional", "none"])
    restore.add_argument("--finish", action="store_true",
                         help="after verifying, run to completion")
    restore.set_defaults(fn=cmd_restore)

    verify = sub.add_parser("verify", help="checksum-audit the store")
    verify.add_argument("key", nargs="?", default=None)
    verify.add_argument("--dir", required=True)
    verify.add_argument("--json", default=None,
                        help="write the audit report to this file")
    verify.set_defaults(fn=cmd_verify)

    replay = sub.add_parser(
        "replay", help="re-execute a failed run's approach to the hang")
    replay.add_argument("key", help="job key (unique prefix ok)")
    replay.add_argument("--dir", required=True)
    replay.add_argument("--start", type=int, default=None,
                        help="ring boundary to replay from "
                             "(default: earliest recorded)")
    replay.add_argument("--sample-every", type=int, default=200,
                        help="telemetry sampling cadence during replay")
    replay.add_argument("--trace-out", default=None,
                        help="write the reproduced diagnosis trace here")
    replay.add_argument("--quiet", action="store_true",
                        help="skip dumping the recorded diagnosis")
    replay.set_defaults(fn=cmd_replay)

    gc = sub.add_parser("gc", help="drop all but the newest checkpoints")
    gc.add_argument("--dir", required=True)
    gc.add_argument("--keep", type=int, default=2,
                    help="checkpoints to keep per job")
    gc.set_defaults(fn=cmd_gc)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
