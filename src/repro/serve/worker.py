"""The worker fleet: lease, heartbeat, execute, commit.

A worker is one OS process in a loop: lease a run over HTTP, start a
daemon heartbeat thread, execute the simulation, and commit the record
(or report the failure, classified with the shared taxonomy). Workers
are stateless — every durable fact lives server-side in the journal,
the result cache, and the checkpoint store — so a worker may be
SIGKILLed at any instant:

* its heartbeats stop, the lease expires, and the service requeues the
  run exactly once;
* the next worker to lease the run finds the dead worker's checkpoints
  in the shared store and **resumes** from the newest valid boundary
  instead of re-simulating from scratch (the committed record then
  carries ``meta.resumed_from``);
* if the "dead" worker was merely wedged and finishes late, its commit
  presents a stale lease generation and is refused — it discards the
  result and moves on.

Run one attached worker with ``repro-serve worker --server URL`` (or
``python -m repro.serve.worker``); the ``serve`` command can also spawn
a local fleet itself. ``--kill-after-boundaries N`` is the
crash-testing hook (mirroring ``Checkpointer.boundary_hook``): the
worker SIGKILLs *itself* at the Nth checkpoint boundary of a leased
run, which is how the load test and CI die deterministically strictly
between two durable checkpoints.
"""

from __future__ import annotations

import argparse
import os
import random
import signal
import subprocess
import sys
import threading
import time
import zlib
from typing import Any, Callable, Dict, List, Optional

from repro.orchestrate.scheduler import execute_job, is_retryable
from repro.resilience.classify import classify_failure

from repro.serve.client import ServeClient, ServeHTTPError
from repro.serve.model import StaleLeaseError

__all__ = ["Worker", "child_env", "spawn_worker", "main"]


class Worker:
    """One worker process's lease/execute/commit loop."""

    def __init__(self, server_url: str, worker_id: Optional[str] = None,
                 poll_s: float = 0.2, max_jobs: int = 0,
                 exit_on_drain: bool = False,
                 kill_after_boundaries: int = 0,
                 retries: int = 4,
                 fleet_dir: Optional[str] = None,
                 chaos_plan: Optional[str] = None,
                 fence_kill: bool = False,
                 verbose: bool = False) -> None:
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.server_url = server_url
        # Seed the retry jitter from the worker id so a crashed-and-
        # restarted worker replays the same backoff schedule — chaos
        # campaigns stay reproducible across the whole fleet.
        seed = zlib.crc32(self.worker_id.encode())
        from repro.serve.breaker import CircuitBreaker
        self.client = ServeClient(server_url, retries=retries,
                                  retry_seed=seed,
                                  breaker=CircuitBreaker(
                                      threshold=8, cooldown_s=0.5,
                                      cooldown_max_s=10.0))
        if chaos_plan:
            # Wire faults between this worker and the service, from a
            # content-addressed plan file (lazy import: chaos is an
            # optional layer above serve, not a dependency of it).
            from repro.chaos.httpshim import ChaosTransport
            from repro.chaos.plan import ChaosPlan
            self.client.transport = ChaosTransport(
                ChaosPlan.load(chaos_plan), self.client.transport)
        self._backoff_rng = random.Random(seed ^ 0xB0FF)
        self.poll_s = poll_s
        self.max_jobs = max_jobs
        self.exit_on_drain = exit_on_drain
        self.kill_after_boundaries = kill_after_boundaries
        #: Fleet registry directory (``<root>/fleet``); when set the
        #: worker maintains its own pidfile there.
        self.fleet_dir = fleet_dir
        #: When true (supervised fleets), a fenced lease SIGKILLs the
        #: process: the running simulation cannot be cancelled from a
        #: thread, and dying frees the slot for a fresh worker that can
        #: lease *useful* work — the supervisor restarts us. In-process
        #: embedding (tests, notebooks) leaves this off and relies on
        #: the commit fence alone.
        self.fence_kill = fence_kill
        self.verbose = verbose
        self.jobs_done = 0
        #: Set by SIGTERM: finish the current job, then exit cleanly —
        #: the supervisor's graceful scale-down path.
        self.drain_requested = False
        # Worker-side black box: recent lease/execute/commit events,
        # folded into the checkpoint layer's failure payload.
        from repro.obs.flight import FlightRecorder
        self.flight = FlightRecorder(capacity=128)

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[{self.worker_id}] {message}", flush=True)

    # ----------------------------------------------------- fleet registry

    def _register(self) -> None:
        if not self.fleet_dir:
            return
        try:
            from repro.fleet.paths import write_worker_meta
            write_worker_meta(self.fleet_dir, self.worker_id,
                              os.getpid(), self.server_url,
                              t_started=time.time(),
                              fence_kill=self.fence_kill,
                              kill_after_boundaries=
                              self.kill_after_boundaries)
        except OSError:
            pass  # registry trouble must not keep a worker from working

    def _deregister(self) -> None:
        if not self.fleet_dir:
            return
        from repro.fleet.paths import remove_worker_meta
        remove_worker_meta(self.fleet_dir, self.worker_id)

    def _lease_backoff(self, consecutive_errors: int) -> float:
        """Jittered exponential backoff for lease-loop trouble: a
        flapping or read-only service sees the fleet ease off instead
        of hammering it in lockstep at ``poll_s``."""
        base = min(self.poll_s * (2 ** min(consecutive_errors, 5)), 5.0)
        return base * (0.5 + 0.5 * self._backoff_rng.random())

    def run(self) -> int:
        """Loop until drained (with ``exit_on_drain``), ``max_jobs``,
        or a SIGTERM drain request. Transient server unavailability is
        retried, not fatal."""
        self._register()
        try:
            return self._run_loop()
        finally:
            self._deregister()
            self.client.close()

    def _run_loop(self) -> int:
        errors = 0
        while True:
            if self.drain_requested:
                self._log("drain requested; exiting")
                return 0
            try:
                doc = self.client.request("POST", "/v1/worker/lease",
                                          {"worker": self.worker_id})
            except (ServeHTTPError, OSError):
                errors += 1
                time.sleep(self._lease_backoff(errors))
                continue
            errors = 0
            if doc.get("idle"):
                if doc.get("draining") and self.exit_on_drain:
                    self._log("drained; exiting")
                    return 0
                self._idle_wait(doc)
                continue
            self._execute(doc)
            self.jobs_done += 1
            if self.max_jobs and self.jobs_done >= self.max_jobs:
                return 0

    def _idle_wait(self, doc: Dict[str, Any]) -> None:
        """Park on the event stream instead of busy-polling the lease
        endpoint: the next queue transition (a submission landing, a
        requeue) wakes the long-poll within one round-trip, so an idle
        fleet costs one parked request per worker and scale-up latency
        is bounded by the wire, not by ``poll_s``. The server tells us
        where the log currently ends (``events_offset``); an old server
        without it — or event-endpoint trouble — degrades to the plain
        sleep this replaced."""
        offset = doc.get("events_offset")
        if offset is None:
            time.sleep(self.poll_s)
            return
        try:
            self.client.events(offset=int(offset),
                               wait_s=min(max(self.poll_s, 1.0), 5.0))
        except (ServeHTTPError, OSError, ValueError):
            time.sleep(self.poll_s)

    # ------------------------------------------------------------ one job

    def _execute(self, lease: Dict[str, Any]) -> None:
        job_key = lease["job_key"]
        token = int(lease["token"])
        lease_s = float(lease.get("lease_s", 5.0))
        self._log(f"leased {job_key[:12]} (attempt {lease['attempt']})")
        self.flight.record("lease", job_key=job_key[:12],
                           attempt=int(lease.get("attempt", 0)),
                           trace_id=lease.get("trace_id", ""))

        stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat, args=(job_key, token, lease_s, stop),
            name=f"{self.worker_id}-heartbeat", daemon=True)
        beat.start()
        try:
            record = execute_job(lease["payload"],
                                 boundary_hook=self._kill_hook(),
                                 flight=self.flight)
        except Exception as exc:  # noqa: BLE001 — job isolation
            stop.set()
            beat.join(timeout=1.0)
            kind = classify_failure(exc)
            self._log(f"failed {job_key[:12]}: [{kind}] {exc}")
            self.flight.record("failed", job_key=job_key[:12],
                               failure_kind=kind)
            try:
                self.client.fail(job_key, token, kind, str(exc),
                                 retryable=is_retryable(exc, kind))
            except (StaleLeaseError, ServeHTTPError, OSError):
                pass  # lease already gone; the service requeued it
            return
        stop.set()
        beat.join(timeout=1.0)
        self.flight.record("executed", job_key=job_key[:12])
        try:
            view = self.client.commit(job_key, token, record)
            resumed = view.get("resumed_from")
            self._log(f"committed {job_key[:12]}"
                      + (f" (resumed from {resumed})"
                         if resumed is not None else ""))
        except StaleLeaseError:
            # Zombie path: we lost the lease mid-run (expired and
            # requeued/re-leased). The result is discarded — committing
            # it anyway is exactly the double-commit the fence exists
            # to prevent.
            self._log(f"stale lease for {job_key[:12]}; result discarded")
        except (ServeHTTPError, OSError) as exc:
            self._log(f"commit failed for {job_key[:12]}: {exc}")

    def _heartbeat(self, job_key: str, token: int, lease_s: float,
                   stop: threading.Event) -> None:
        """Keep the lease alive while the main thread simulates.

        Two very different failures look similar from this thread and
        must not be conflated:

        * a **409 fence** (StaleLeaseError) is the server's definitive
          verdict — the lease is gone, the run was requeued or
          finished elsewhere, and everything this worker computes from
          here on is garbage. :meth:`_fenced` reacts (SIGKILL in
          supervised fleets);
        * a **transient transport error** (connection refused, 503, an
          open breaker) proves nothing: the lease may be perfectly
          healthy server-side. Killing a mid-job worker here would turn
          every blip into a lost attempt. Instead keep retrying at the
          beat interval, and only once no beat has landed for well past
          the lease window — when the server has *certainly* expired
          and requeued the lease — treat it as fenced.
        """
        interval = max(lease_s / 3.0, 0.05)
        grace = max(2.0 * lease_s, 1.0)
        last_ok = time.monotonic()
        while not stop.wait(interval):
            try:
                self.client.heartbeat(job_key, token, self.worker_id)
                last_ok = time.monotonic()
            except StaleLeaseError:
                self._fenced(job_key, "lease fenced (409)")
                return
            except (ServeHTTPError, OSError):
                if time.monotonic() - last_ok > grace:
                    self._fenced(
                        job_key,
                        f"no heartbeat landed for {grace:.1f}s "
                        f"(lease window {lease_s:.1f}s)")
                    return
                continue  # transient; keep beating

    def _fenced(self, job_key: str, why: str) -> None:
        """The lease is (certainly or effectively) lost mid-job."""
        self._log(f"abandoning {job_key[:12]}: {why}")
        self.flight.record("fenced", job_key=job_key[:12], label=why)
        if self.fence_kill:
            # The simulation cannot be cancelled from this thread; the
            # supervisor restarts us into a clean slot. Commit fencing
            # makes the death safe, checkpoint resume makes it cheap.
            os.kill(os.getpid(), signal.SIGKILL)

    def _kill_hook(self) -> Optional[Callable[[int], None]]:
        if not self.kill_after_boundaries:
            return None
        crossed = {"n": 0}

        def hook(boundary: int) -> None:
            crossed["n"] += 1
            if crossed["n"] >= self.kill_after_boundaries:
                # Die the hard way, mid-job, strictly between durable
                # checkpoints — no cleanup, no failure report, exactly
                # like a pulled power cord.
                os.kill(os.getpid(), signal.SIGKILL)

        return hook


def child_env() -> Dict[str, str]:
    """This process's environment with this checkout's ``src`` first on
    ``PYTHONPATH``, so a ``python -m repro...`` child imports the same
    code as its parent."""
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_worker(server_url: str, index: int = 0,
                 kill_after_boundaries: int = 0,
                 poll_s: float = 0.2,
                 exit_on_drain: bool = True,
                 worker_id: Optional[str] = None,
                 fleet_dir: Optional[str] = None,
                 chaos_plan: Optional[str] = None,
                 fence_kill: bool = False,
                 verbose: bool = False) -> subprocess.Popen:
    """Start one worker subprocess attached to ``server_url``.

    With ``fleet_dir`` the child's pidfile + start metadata land in the
    fleet registry *before* this returns — written here with the pid
    the moment the child exists, then refreshed by the worker itself on
    startup — so ``repro-fleet status`` and supervisor adoption see
    even hand-spawned workers, including ones that die before their own
    registration write."""
    wid = worker_id or f"worker-{index}-{os.getpid()}"
    argv = [sys.executable, "-m", "repro.serve.worker",
            "--server", server_url, "--id", wid,
            "--poll-s", str(poll_s)]
    if exit_on_drain:
        argv.append("--exit-on-drain")
    if kill_after_boundaries:
        argv += ["--kill-after-boundaries", str(kill_after_boundaries)]
    if fleet_dir:
        argv += ["--fleet-dir", fleet_dir]
    if chaos_plan:
        argv += ["--chaos-plan", chaos_plan]
    if fence_kill:
        argv.append("--fence-kill")
    if verbose:
        argv.append("--verbose")
    proc = subprocess.Popen(argv, env=child_env())
    if fleet_dir:
        try:
            from repro.fleet.paths import write_worker_meta
            write_worker_meta(fleet_dir, wid, proc.pid, server_url,
                              t_spawned=time.time(), spawned_by=os.getpid(),
                              argv=argv[1:],
                              kill_after_boundaries=kill_after_boundaries)
        except OSError:
            pass
    return proc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve-worker",
        description="One simulation worker attached to a repro-serve "
                    "service.")
    parser.add_argument("--server", required=True,
                        help="service base URL, e.g. http://127.0.0.1:8642")
    parser.add_argument("--id", default=None, help="worker id")
    parser.add_argument("--poll-s", type=float, default=0.2,
                        help="idle poll interval")
    parser.add_argument("--max-jobs", type=int, default=0,
                        help="exit after this many jobs (0 = forever)")
    parser.add_argument("--exit-on-drain", action="store_true",
                        help="exit when the service is draining and idle")
    parser.add_argument("--kill-after-boundaries", type=int, default=0,
                        help="crash-testing hook: SIGKILL self at the "
                             "Nth checkpoint boundary of a leased run")
    parser.add_argument("--fleet-dir", default=None,
                        help="fleet registry directory (<root>/fleet): "
                             "maintain a pidfile + metadata there")
    parser.add_argument("--chaos-plan", default=None,
                        help="ChaosPlan JSON file whose HTTP faults are "
                             "injected between this worker and the wire")
    parser.add_argument("--fence-kill", action="store_true",
                        help="SIGKILL self when a heartbeat is fenced "
                             "(supervised fleets: free the slot at once)")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    worker = Worker(args.server, worker_id=args.id, poll_s=args.poll_s,
                    max_jobs=args.max_jobs,
                    exit_on_drain=args.exit_on_drain,
                    kill_after_boundaries=args.kill_after_boundaries,
                    fleet_dir=args.fleet_dir,
                    chaos_plan=args.chaos_plan,
                    fence_kill=args.fence_kill,
                    verbose=args.verbose)

    def _drain(_signum: int, _frame: Any) -> None:
        # Graceful scale-down: finish the current job, then exit 0.
        worker.drain_requested = True

    signal.signal(signal.SIGTERM, _drain)
    return worker.run()


if __name__ == "__main__":
    sys.exit(main())
