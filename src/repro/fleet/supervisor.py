"""The fleet supervisor: spawn, monitor, restart, adopt, autoscale.

One supervisor process owns a pool of :mod:`repro.serve.worker`
subprocesses attached to one service. Per tick it:

1. applies operator commands from ``fleet/control.json`` (scale,
   drain, clear-quarantine) — the CLI→supervisor mailbox;
2. reaps dead workers: a clean exit vacates the slot quietly, a crash
   is charged to the slot's :class:`~repro.fleet.budget.RestartBudget`
   (which may quarantine a flapping slot, permanently, with a
   taxonomy-aware reason);
3. autoscales: scrapes ``GET /metrics``, reduces it to a
   :class:`~repro.fleet.autoscale.FleetSample`, and lets the
   :class:`~repro.fleet.autoscale.Autoscaler` move the desired size
   within ``[min, max]`` under hysteresis;
4. converges the live pool onto the desired size — spawning into
   vacant slots the budget allows now, SIGTERMing surplus workers
   (graceful drain: they finish their current job and deregister);
5. publishes ``fleet/supervisor.json`` — the snapshot ``repro-fleet
   status`` prints and the service's ``/metrics`` renders as
   ``repro_fleet_*`` gauges.

Surviving its own death
-----------------------

Every state the restart math depends on is journaled to
``fleet/fleet.jsonl`` through the same tiered-durability
:class:`~repro.serve.journal.Journal` (and therefore the same
``repro.iohooks`` fault sites) the queue uses: ``scale`` /
``quarantine`` / ``clear`` are fsynced, spawn/crash chatter is
flushed. A SIGKILLed supervisor's successor replays the journal —
rebuilding desired size, per-slot restart ordinals (and with them the
byte-identical seeded backoff schedule), and the quarantine set — then
**adopts** the previous life's still-running workers by pidfile:
each registry entry whose pid passes the liveness check and matches
this fleet's naming is re-attached (no double-spawn), and each corpse
is reaped and charged as a crash (no orphaned slot). A second live
supervisor over the same root is refused at startup.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.fleet.autoscale import (AutoscaleConfig, Autoscaler,
                                   sample_of_metrics)
from repro.fleet.budget import RestartBudget, kind_of_exit
from repro.fleet.paths import (control_path, fleet_dir,
                               fleet_journal_path, pid_alive,
                               read_worker_metas, remove_worker_meta,
                               supervisor_state_path, worker_meta_path)
from repro.ioutil import atomic_write_json, read_checked_json
from repro.serve.breaker import CircuitBreaker
from repro.serve.client import ServeClient, ServeHTTPError
from repro.serve.journal import Journal

__all__ = ["Supervisor", "SupervisorConfig", "SLOT_RUNNING",
           "SLOT_DRAINING", "FLEET_DURABLE_OPS"]

#: Fleet-journal ops that fsync before returning: operator intent and
#: quarantine verdicts are the system of record; spawn/crash chatter is
#: reconstructed from pidfiles + liveness anyway.
FLEET_DURABLE_OPS = frozenset({"scale", "quarantine", "clear"})

SLOT_RUNNING = "running"
SLOT_DRAINING = "draining"


@dataclass
class SupervisorConfig:
    server_url: str
    root: str                      # the service root (fleet dir below it)
    min_workers: int = 1
    max_workers: int = 4
    initial_workers: Optional[int] = None  # default: min_workers
    tick_s: float = 0.5
    seed: int = 0
    worker_prefix: str = "fleet"
    poll_s: float = 0.2
    #: Supervised workers SIGKILL themselves on a fenced heartbeat —
    #: the supervisor restarts them into a clean slot.
    fence_kill: bool = True
    #: ChaosPlan JSON file handed to every spawned worker (drills).
    chaos_plan: Optional[str] = None
    #: Crash-drill hook: slot -> how many of its first spawns run with
    #: ``--kill-after-boundaries kamikaze_boundaries`` (they die
    #: mid-job, deterministically). The ordinal is the slot's journaled
    #: restart count, so the plan survives supervisor SIGKILLs.
    flap_plan: Dict[str, int] = field(default_factory=dict)
    kamikaze_boundaries: int = 1
    # Restart-budget knobs (see repro.fleet.budget).
    backoff_base_s: float = 0.25
    backoff_max_s: float = 30.0
    flap_threshold: int = 5
    flap_window_s: float = 60.0
    fleet_rate: int = 10
    fleet_window_s: float = 10.0
    # Autoscaler knobs (see repro.fleet.autoscale).
    backlog_per_worker: int = 2
    up_ticks: int = 2
    down_ticks: int = 6
    #: Seconds a SIGTERMed worker gets to finish its job before the
    #: supervisor escalates to SIGKILL.
    drain_grace_s: float = 60.0
    scrape_timeout_s: float = 2.0
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.min_workers < 0 or self.max_workers < 1 \
                or self.max_workers < self.min_workers:
            raise ValueError("need 0 <= min_workers <= max_workers, "
                             "max_workers >= 1")
        if self.initial_workers is None:
            self.initial_workers = max(self.min_workers, 1)


@dataclass
class _Slot:
    """One live (or draining) pool member."""

    slot: str
    worker_id: str
    pid: int
    proc: Optional[subprocess.Popen] = None   # None = adopted
    state: str = SLOT_RUNNING
    t_started: float = 0.0
    t_drain: float = 0.0
    kamikaze: bool = False

    def alive(self) -> bool:
        if self.proc is not None:
            return self.proc.poll() is None
        return pid_alive(self.pid)

    def returncode(self) -> Optional[int]:
        if self.proc is not None:
            return self.proc.returncode
        return None  # adopted: the exact code died with the old parent


class Supervisor:
    """See the module docstring."""

    def __init__(self, config: SupervisorConfig) -> None:
        self.config = config
        self.fleet_root = fleet_dir(config.root)
        os.makedirs(self.fleet_root, exist_ok=True)
        self._assert_sole_supervisor()
        self.budget = RestartBudget(
            seed=config.seed,
            backoff_base_s=config.backoff_base_s,
            backoff_max_s=config.backoff_max_s,
            flap_threshold=config.flap_threshold,
            flap_window_s=config.flap_window_s,
            fleet_rate=config.fleet_rate,
            fleet_window_s=config.fleet_window_s)
        self.autoscaler = Autoscaler(AutoscaleConfig(
            min_workers=config.min_workers,
            max_workers=config.max_workers,
            backlog_per_worker=config.backlog_per_worker,
            up_ticks=config.up_ticks,
            down_ticks=config.down_ticks))
        self.client = ServeClient(
            config.server_url, timeout=config.scrape_timeout_s,
            breaker=CircuitBreaker(threshold=3, cooldown_s=1.0,
                                   cooldown_max_s=15.0))
        self.desired = int(config.initial_workers or 1)
        self.slots: Dict[str, _Slot] = {}
        self.ticks = 0
        self.spawns = 0
        self.adoptions = 0
        self.crashes = 0
        self.clean_exits = 0
        self._stopping = False
        # Replay BEFORE opening the journal for append, mirroring the
        # queue's discipline.
        self._replay()
        self._journal = Journal(fleet_journal_path(self.fleet_root),
                                durable_ops=FLEET_DURABLE_OPS)
        self._adopt()

    # ----------------------------------------------------------- plumbing

    def _log(self, message: str) -> None:
        if self.config.verbose:
            print(f"[supervisor] {message}", flush=True)

    def _journal_op(self, op: str, **fields: Any) -> None:
        try:
            self._journal.append(op, t=time.time(), **fields)
        except OSError:
            pass  # fleet journal trouble must never kill the fleet

    def _worker_id(self, slot: str) -> str:
        return f"{self.config.worker_prefix}-{slot}"

    def _slot_of_worker_id(self, worker_id: str) -> Optional[str]:
        prefix = f"{self.config.worker_prefix}-"
        if not worker_id.startswith(prefix):
            return None
        return worker_id[len(prefix):]

    # ------------------------------------------------- startup: replay

    def _assert_sole_supervisor(self) -> None:
        """Two supervisors over one fleet double-spawn everything; the
        snapshot's pid is the lock. A dead pid (the SIGKILL case) is
        stale state, not a lock."""
        try:
            doc = read_checked_json(supervisor_state_path(self.fleet_root))
        except (OSError, ValueError):
            return
        pid = int(doc.get("pid", 0)) if isinstance(doc, dict) else 0
        if pid and pid != os.getpid() and pid_alive(pid):
            raise RuntimeError(
                f"another supervisor (pid {pid}) already owns "
                f"{self.fleet_root}")

    def _replay(self) -> None:
        """Rebuild desired size, restart ordinals, and the quarantine
        set from ``fleet.jsonl``. Replaying crashes through the budget
        regenerates the *same* backoff schedule a continuous supervisor
        would be on (the schedule is a pure function of slot, seed, and
        ordinal), so a resumed backoff wait is honored, not restarted."""
        entries = Journal.replay(fleet_journal_path(self.fleet_root))
        for entry in entries:
            op = entry.get("op")
            if op == "scale":
                self.desired = int(entry.get("desired", self.desired))
            elif op == "crash":
                self.budget.note_crash(
                    str(entry.get("slot", "")),
                    float(entry.get("t", 0.0)),
                    kind=str(entry.get("kind", "crash")))
            elif op == "clear":
                self.budget.clear_quarantine(str(entry.get("slot", "")))
        if entries:
            self._log(f"journal replayed: desired={self.desired}, "
                      f"quarantined={self.budget.quarantined}")

    def _adopt(self) -> None:
        """Attach the previous supervisor's surviving workers (by
        pidfile + liveness + name match) and reap its corpses. Runs
        once, before the first tick, so the first converge pass sees
        the true pool and cannot double-spawn an adopted slot."""
        for meta in read_worker_metas(self.fleet_root):
            worker_id = str(meta.get("worker_id", ""))
            slot = self._slot_of_worker_id(worker_id)
            if slot is None:
                continue  # hand-spawned worker outside this fleet
            pid = int(meta.get("pid", 0))
            if meta.get("alive") and slot not in self.slots:
                self.slots[slot] = _Slot(
                    slot=slot, worker_id=worker_id, pid=pid, proc=None,
                    state=SLOT_RUNNING,
                    t_started=float(meta.get("t_started")
                                    or meta.get("t_spawned") or 0.0))
                self.adoptions += 1
                self._journal_op("adopt", slot=slot, worker=worker_id,
                                 pid=pid)
                self._log(f"adopted {worker_id} (pid {pid})")
            elif not meta.get("alive"):
                # Died while no supervisor was watching: charge the
                # crash now so the budget math doesn't lose it.
                remove_worker_meta(self.fleet_root, worker_id)
                self.crashes += 1
                self.budget.note_crash(slot, time.time(), kind="crash")
                self._maybe_journal_quarantine(slot)
                self._journal_op("crash", slot=slot, rc=None,
                                 kind="crash", orphaned=True)
                self._log(f"reaped orphan corpse {worker_id} (pid {pid})")

    # ------------------------------------------------------------ control

    def _apply_control(self) -> None:
        path = control_path(self.fleet_root)
        try:
            doc = read_checked_json(path)
        except (OSError, ValueError):
            return
        if not isinstance(doc, dict):
            return
        try:
            os.unlink(path)
        except OSError:
            pass
        if "desired" in doc:
            desired = self.autoscaler.clamp(int(doc["desired"]))
            if desired != self.desired:
                self.desired = desired
                self._journal_op("scale", desired=desired,
                                 reason="operator")
                self._log(f"operator scale -> {desired}")
        if doc.get("drain"):
            self.desired = 0
            self._journal_op("scale", desired=0, reason="drain")
            self._log("operator drain: scaling to 0")
        for slot in doc.get("clear_quarantine", []) or []:
            self.budget.clear_quarantine(str(slot))
            self._journal_op("clear", slot=str(slot))
            self._log(f"quarantine cleared for {slot}")

    # --------------------------------------------------------------- reap

    def _maybe_journal_quarantine(self, slot: str) -> None:
        budget = self.budget.slot_budget(slot)
        if budget.quarantined and budget.quarantine_reason:
            self._journal_op("quarantine", slot=slot,
                             reason=budget.quarantine_reason)

    def _reap(self) -> None:
        now = time.time()
        for slot_name in list(self.slots):
            slot = self.slots[slot_name]
            if slot.alive():
                if slot.state == SLOT_DRAINING and slot.t_drain and \
                        now - slot.t_drain > self.config.drain_grace_s:
                    # The graceful path stalled (wedged job); escalate.
                    try:
                        os.kill(slot.pid, signal.SIGKILL)
                    except OSError:
                        pass
                    slot.t_drain = now  # one escalation per grace
                continue
            del self.slots[slot_name]
            remove_worker_meta(self.fleet_root, slot.worker_id)
            rc = slot.returncode()
            kind = kind_of_exit(rc) if slot.proc is not None else "crash"
            if slot.state == SLOT_DRAINING or kind == "ok":
                self.clean_exits += 1
                self._journal_op("exit", slot=slot_name, rc=rc)
                self._log(f"{slot.worker_id} exited cleanly")
                continue
            self.crashes += 1
            self.budget.note_crash(slot_name, now, returncode=rc,
                                   kind=None if slot.proc is not None
                                   else "crash")
            self._maybe_journal_quarantine(slot_name)
            self._journal_op("crash", slot=slot_name, rc=rc, kind=kind)
            self._log(f"{slot.worker_id} died (rc={rc}, kind={kind})")

    # ----------------------------------------------------------- autoscale

    def _autoscale(self) -> None:
        if self.config.min_workers == self.config.max_workers:
            return
        if self._stopping or self.desired == 0:
            return  # draining: operator intent outranks the scaler
        try:
            sample = sample_of_metrics(self.client.metrics())
        except (ServeHTTPError, OSError, ValueError):
            sample = None
        desired = self.autoscaler.desired(self.desired, sample)
        if desired != self.desired:
            self.desired = desired
            self._journal_op("scale", desired=desired, reason="autoscale")
            self._log(f"autoscale -> {desired} "
                      f"(sample={sample})")

    # ------------------------------------------------------------ converge

    def _pick_vacant_slot(self) -> Optional[str]:
        """Lowest-index slot name that is neither live nor quarantined.
        Quarantined slots keep their names forever (their history is
        the evidence); replacements get fresh indices above them."""
        index = 0
        while index < self.config.max_workers + len(self.budget.quarantined):
            name = f"w{index}"
            if name not in self.slots and \
                    not self.budget.slot_budget(name).quarantined:
                return name
            index += 1
        return None

    def _spawn(self, slot_name: str, now: float) -> None:
        from repro.serve.worker import spawn_worker
        ordinal = self.budget.slot_budget(slot_name).restarts
        kamikaze = ordinal < self.config.flap_plan.get(slot_name, 0)
        worker_id = self._worker_id(slot_name)
        proc = spawn_worker(
            self.config.server_url,
            worker_id=worker_id,
            fleet_dir=self.fleet_root,
            poll_s=self.config.poll_s,
            exit_on_drain=False,
            fence_kill=self.config.fence_kill,
            chaos_plan=self.config.chaos_plan,
            kill_after_boundaries=(self.config.kamikaze_boundaries
                                   if kamikaze else 0),
            verbose=self.config.verbose)
        self.slots[slot_name] = _Slot(
            slot=slot_name, worker_id=worker_id, pid=proc.pid, proc=proc,
            state=SLOT_RUNNING, t_started=now, kamikaze=kamikaze)
        self.spawns += 1
        self.budget.note_restart(slot_name, now)
        self._journal_op("spawn", slot=slot_name, worker=worker_id,
                         pid=proc.pid, ordinal=ordinal, kamikaze=kamikaze)
        self._log(f"spawned {worker_id} (pid {proc.pid}"
                  + (", kamikaze" if kamikaze else "") + ")")

    def _converge(self) -> None:
        now = time.time()
        active = [s for s in self.slots.values()
                  if s.state == SLOT_RUNNING]
        # Grow: fill vacant slots the budget allows right now.
        guard = 0
        while len(active) < self.desired and \
                guard < 4 * self.config.max_workers:
            guard += 1
            slot_name = self._pick_vacant_slot()
            if slot_name is None:
                break
            decision = self.budget.decide(slot_name, now)
            if decision.action != "restart":
                # Backoff or rate limit: try again next tick — the
                # schedule, not the tick loop, owns the timing.
                break
            self._spawn(slot_name, now)
            active = [s for s in self.slots.values()
                      if s.state == SLOT_RUNNING]
        # Shrink: gracefully drain the youngest surplus workers.
        surplus = len(active) - self.desired
        if surplus > 0:
            for slot in sorted(active, key=lambda s: s.t_started,
                               reverse=True)[:surplus]:
                try:
                    os.kill(slot.pid, signal.SIGTERM)
                except OSError:
                    continue
                slot.state = SLOT_DRAINING
                slot.t_drain = now
                self._journal_op("drain", slot=slot.slot)
                self._log(f"draining {slot.worker_id}")

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> Dict[str, Any]:
        states = {SLOT_RUNNING: 0, SLOT_DRAINING: 0}
        slot_docs = {}
        for name, slot in sorted(self.slots.items()):
            states[slot.state] = states.get(slot.state, 0) + 1
            slot_docs[name] = {"worker_id": slot.worker_id,
                               "pid": slot.pid, "state": slot.state,
                               "adopted": slot.proc is None,
                               "kamikaze": slot.kamikaze,
                               "t_started": slot.t_started}
        return {
            "pid": os.getpid(),
            "t": time.time(),
            "server": self.config.server_url,
            "tick_s": self.config.tick_s,
            "ticks": self.ticks,
            "desired": self.desired,
            "min": self.config.min_workers,
            "max": self.config.max_workers,
            "states": states,
            "slots": slot_docs,
            "quarantined": {
                s: self.budget.slot_budget(s).quarantine_reason
                for s in self.budget.quarantined},
            "counters": {"spawns": self.spawns,
                         "adoptions": self.adoptions,
                         "crashes": self.crashes,
                         "clean_exits": self.clean_exits},
            "autoscaler": self.autoscaler.snapshot(),
            "breaker": self.client.breaker.snapshot()
                       if self.client.breaker else None,
        }

    def _publish(self) -> None:
        try:
            atomic_write_json(supervisor_state_path(self.fleet_root),
                              self.snapshot(), durable=False, indent=2)
        except OSError:
            pass

    # ---------------------------------------------------------------- run

    def tick(self) -> Dict[str, Any]:
        """One supervision cycle; returns the published snapshot."""
        self.ticks += 1
        self._apply_control()
        self._reap()
        self._autoscale()
        self._converge()
        self._publish()
        return self.snapshot()

    def converged(self) -> bool:
        running = sum(1 for s in self.slots.values()
                      if s.state == SLOT_RUNNING and s.alive())
        return running == self.desired

    def run(self, max_ticks: int = 0,
            stop_when_converged: bool = False) -> int:
        """The supervision loop. ``max_ticks`` bounds it for tests;
        ``stop_when_converged`` exits once the pool matches desired
        (used by drills to hand control back)."""
        try:
            while not self._stopping:
                self.tick()
                if max_ticks and self.ticks >= max_ticks:
                    break
                if stop_when_converged and self.converged():
                    break
                time.sleep(self.config.tick_s)
        except KeyboardInterrupt:
            pass
        return 0

    def request_stop(self) -> None:
        self._stopping = True

    def shutdown(self, kill_workers: bool = True,
                 grace_s: float = 5.0) -> None:
        """Graceful teardown (NOT the SIGKILL path drills exercise):
        drain every worker, wait, escalate, publish a final snapshot."""
        self._stopping = True
        if kill_workers:
            for slot in self.slots.values():
                try:
                    os.kill(slot.pid, signal.SIGTERM)
                except OSError:
                    pass
                slot.state = SLOT_DRAINING
                slot.t_drain = time.time()
            deadline = time.time() + grace_s
            while time.time() < deadline and any(
                    s.alive() for s in self.slots.values()):
                time.sleep(0.05)
            for slot in self.slots.values():
                if slot.alive():
                    try:
                        os.kill(slot.pid, signal.SIGKILL)
                    except OSError:
                        pass
            self._reap()
        self._publish()
        self._journal.close()
        self.client.close()


def _parse_flap(pairs: List[str]) -> Dict[str, int]:
    plan: Dict[str, int] = {}
    for pair in pairs or []:
        slot, _, count = pair.partition("=")
        if not slot or not count:
            raise SystemExit(f"--flap wants SLOT=COUNT, got {pair!r}")
        plan[slot] = int(count)
    return plan


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.fleet.supervisor`` — one supervisor process.

    This is the process drills SIGKILL and relaunch; ``repro-fleet up``
    is sugar over it. SIGTERM drains the whole fleet and exits cleanly;
    SIGKILL is survived by the *next* supervisor via journal replay and
    pidfile adoption.
    """
    parser = argparse.ArgumentParser(
        prog="repro-fleet-supervisor",
        description="Self-healing worker-fleet supervisor for a "
                    "repro-serve service.")
    parser.add_argument("--server", required=True,
                        help="service base URL, e.g. http://127.0.0.1:8642")
    parser.add_argument("--root", required=True,
                        help="service root directory (registry lives in "
                             "<root>/fleet)")
    parser.add_argument("--min", type=int, default=1, dest="min_workers")
    parser.add_argument("--max", type=int, default=4, dest="max_workers")
    parser.add_argument("--initial", type=int, default=None)
    parser.add_argument("--tick-s", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--poll-s", type=float, default=0.2)
    parser.add_argument("--worker-prefix", default="fleet")
    parser.add_argument("--no-fence-kill", action="store_true",
                        help="spawned workers survive fenced heartbeats "
                             "instead of SIGKILLing themselves")
    parser.add_argument("--chaos-plan", default=None,
                        help="ChaosPlan JSON file injected into every "
                             "spawned worker's transport (drills)")
    parser.add_argument("--flap", action="append", default=[],
                        metavar="SLOT=COUNT",
                        help="crash-drill hook: SLOT's first COUNT "
                             "spawns run kamikaze (repeatable)")
    parser.add_argument("--kamikaze-boundaries", type=int, default=1)
    parser.add_argument("--backoff-base-s", type=float, default=0.25)
    parser.add_argument("--backoff-max-s", type=float, default=30.0)
    parser.add_argument("--flap-threshold", type=int, default=5)
    parser.add_argument("--flap-window-s", type=float, default=60.0)
    parser.add_argument("--fleet-rate", type=int, default=10)
    parser.add_argument("--fleet-window-s", type=float, default=10.0)
    parser.add_argument("--backlog-per-worker", type=int, default=2)
    parser.add_argument("--up-ticks", type=int, default=2)
    parser.add_argument("--down-ticks", type=int, default=6)
    parser.add_argument("--drain-grace-s", type=float, default=60.0)
    parser.add_argument("--max-ticks", type=int, default=0,
                        help="exit after this many ticks (0 = forever)")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    config = SupervisorConfig(
        server_url=args.server, root=args.root,
        min_workers=args.min_workers, max_workers=args.max_workers,
        initial_workers=args.initial, tick_s=args.tick_s,
        seed=args.seed, worker_prefix=args.worker_prefix,
        poll_s=args.poll_s, fence_kill=not args.no_fence_kill,
        chaos_plan=args.chaos_plan, flap_plan=_parse_flap(args.flap),
        kamikaze_boundaries=args.kamikaze_boundaries,
        backoff_base_s=args.backoff_base_s,
        backoff_max_s=args.backoff_max_s,
        flap_threshold=args.flap_threshold,
        flap_window_s=args.flap_window_s,
        fleet_rate=args.fleet_rate, fleet_window_s=args.fleet_window_s,
        backlog_per_worker=args.backlog_per_worker,
        up_ticks=args.up_ticks, down_ticks=args.down_ticks,
        drain_grace_s=args.drain_grace_s, verbose=args.verbose)
    supervisor = Supervisor(config)

    def _term(_signum: int, _frame: Any) -> None:
        supervisor.request_stop()

    signal.signal(signal.SIGTERM, _term)
    try:
        supervisor.run(max_ticks=args.max_ticks)
    finally:
        supervisor.shutdown(kill_workers=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
