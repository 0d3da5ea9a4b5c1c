"""The persistent, multi-tenant job queue.

State lives in memory behind one lock and is rebuilt from the
append-only journal (:mod:`repro.serve.journal`) on startup; results
live in the orchestrator's content-addressed
:class:`~repro.orchestrate.cache.ResultCache`, so the queue's dedup and
the batch scheduler's dedup are literally the same directory. Every
transition also lands on an orchestration
:class:`~repro.orchestrate.events.EventLog` (``<root>/events.jsonl``),
which is what the service's streaming endpoints tail.

Scheduling — :meth:`JobQueue.lease` picks, among runs whose owning
tenant is under its lease quota, the run of the **least-loaded tenant**
(fair share), breaking ties by higher priority then FIFO order. A
tenant hammering the service with thousands of jobs cannot starve a
tenant submitting one: the idle tenant's first job wins the next lease.

Crash recovery invariants:

* an acknowledged submission is journaled durably (fsync) *before* the
  acknowledgment — it can never be lost;
* a worker that stops heartbeating has its run requeued **exactly
  once** per expiry (the expiry transition itself moves the run out of
  the leased state, so a second sweep finds nothing to requeue);
* a committed result is written to the result cache *before* the
  commit is journaled — a crash between the two replays as "queued run
  whose record already exists" and completes as a cache hit;
* a zombie worker finishing after its lease expired is fenced by the
  lease generation token and its commit refused
  (:class:`~repro.serve.model.StaleLeaseError`) — a run commits at
  most once.
"""

from __future__ import annotations

import errno
import json
import os
import threading
import time
from collections import Counter
from typing import Any, Dict, List, Optional

from repro import ioutil
from repro.iohooks import SITE_PROBE_FSYNC, SITE_PROBE_WRITE, io_site
from repro.ioutil import atomic_write_json
from repro.obs.flight import FlightRecorder
from repro.obs.promtext import (Family, histogram_family,
                                render_prometheus)
from repro.obs.tracectx import (HostSpan, HostSpanLog, mint_trace_id,
                                stitch_trace)
from repro.orchestrate.cache import ResultCache
from repro.orchestrate.events import EventLog
from repro.orchestrate.jobspec import JobSpec
from repro.orchestrate.scheduler import DETERMINISTIC_KINDS

from repro.serve.journal import Journal, journal_path
from repro.serve.model import (HEALTH_DEGRADED, HEALTH_OK,
                               HEALTH_READ_ONLY, HEALTH_STATES,
                               RUN_CANCELLED, RUN_DONE, RUN_FAILED,
                               RUN_LEASED, RUN_QUEUED, SUB_CANCELLED,
                               SUB_DONE, SUB_FAILED, SUB_QUEUED,
                               TERMINAL_RUN_STATES, BacklogExceededError,
                               QuotaExceededError, Run,
                               ServiceUnavailableError, StaleLeaseError,
                               Submission, UnknownJobError)

__all__ = ["JobQueue"]


class JobQueue:
    """See the module docstring. All public methods are thread-safe."""

    def __init__(self, root: str, *,
                 lease_s: float = 5.0,
                 max_attempts: int = 5,
                 default_quota: int = 0,
                 quotas: Optional[Dict[str, int]] = None,
                 max_queued_per_tenant: int = 0,
                 max_queued_runs: int = 0,
                 probe_interval_s: float = 1.0,
                 read_only_after: int = 3,
                 checkpoint_every: int = 2000,
                 deadline_cycles_per_s: float = 0.0,
                 verbose: bool = False) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.lease_s = lease_s
        self.max_attempts = max_attempts
        #: Per-tenant max concurrently leased runs (0 = unlimited).
        self.default_quota = default_quota
        self.quotas = dict(quotas or {})
        #: Per-tenant max live (non-terminal) submissions (0 = unlimited).
        self.max_queued_per_tenant = max_queued_per_tenant
        #: Global admission watermark: max queued (leasable) runs across
        #: all tenants (0 = unlimited). Above it submits get 429 +
        #: Retry-After — the backlog drains, retry later.
        self.max_queued_runs = max_queued_runs
        #: How often the read-only auto-recovery probe may touch disk.
        self.probe_interval_s = probe_interval_s
        #: Consecutive journal write failures before the queue stops
        #: accepting writes (ENOSPC short-circuits to read-only at once).
        self.read_only_after = max(1, read_only_after)
        self.checkpoint_every = checkpoint_every
        #: Wall→simulated-clock conversion for deadline propagation:
        #: a leased run with ``deadline_at`` set gets an out-of-band
        #: ``_deadline.max_cycles`` of ``remaining_s * this rate``, so
        #: the engine's own cycle budget cuts a doomed run off even if
        #: the worker never looks at the wall clock again. 0 disables
        #: the cycle cap (the wall-clock expiry still applies).
        self.deadline_cycles_per_s = deadline_cycles_per_s

        self.cache = ResultCache(os.path.join(self.root, "cache"))
        self.checkpoint_dir = os.path.join(self.root, "ckpts")
        self.artifacts_root = os.path.join(self.root, "artifacts")
        self.events_path = os.path.join(self.root, "events.jsonl")
        self.events = EventLog(sink_path=self.events_path, verbose=verbose)
        #: The event log as a callback source: every recorded event
        #: bumps ``event_appends`` and notifies this condition, so a
        #: long-poll on ``/v1/events`` wakes on the write itself
        #: instead of re-reading the file on a timer.
        self._appended = threading.Condition()
        self.event_appends = 0
        #: Bounded ring of recent transitions — the black box attached
        #: to failure dumps (see :meth:`_dump_flight`).
        self.flight = FlightRecorder()
        self.flight_dir = os.path.join(self.root, "flight")
        self.hostspans_path = os.path.join(self.root, "hostspans.jsonl")
        self.hostspans = HostSpanLog(self.hostspans_path)
        self.started_at = time.time()
        #: Terminal failures by failure class (monotonic; /metrics).
        self.failure_kinds: Counter = Counter()

        self._lock = threading.RLock()
        self.runs: Dict[str, Run] = {}
        self.subs: Dict[str, Submission] = {}
        self.workers: Dict[str, Dict[str, Any]] = {}
        self.counters: Counter = Counter()
        self.draining = False
        #: Health state machine (see :func:`healthz`): ok | degraded |
        #: read_only. ``degraded`` is computed, ``read_only`` is sticky
        #: until the recovery probe succeeds.
        self.health = HEALTH_OK
        self.read_only_since = 0.0
        self._read_only_reason = ""
        self._journal_fail_streak = 0
        self._last_probe_t = 0.0
        self._seq = 0          # run FIFO order
        self._sub_seq = 0      # submission id counter
        self._replaying = False

        restored = self._replay()
        self._journal = Journal(journal_path(self.root))
        if restored:
            self._event("restart", "", "journal replayed",
                        runs=len(self.runs), submissions=len(self.subs),
                        requeued=restored.get("requeued", 0))

    # --------------------------------------------------------- internals

    def _event(self, kind: str, job_key: str, label: str = "",
               **detail: Any) -> None:
        """Record an event (the stream endpoints tail this file live);
        suppressed during replay so restarts don't duplicate history.
        The event log is lossy (a full disk drops, never raises), and
        the flight ring (memory-only) always gets the record."""
        if self._replaying:
            return
        self.events.record(kind, job_key, label, **detail)
        with self._appended:
            self.event_appends += 1
            self._appended.notify_all()
        self.flight.record(kind, job_key=job_key, label=label, **detail)

    def _journal_op(self, op: str, **fields: Any) -> None:
        """Journal a non-ack transition (lease / requeue / commit /
        fail / cancel / drain). A write failure here is *noted* for the
        health machinery but never propagated: the in-memory mutation
        already happened, and replay reconstructs every one of these
        conservatively (an unjournaled lease requeues; an unjournaled
        commit replays via the cache-put-before-commit fixup)."""
        if self._replaying:
            return
        try:
            self._journal.append(op, **fields)
            self._note_journal_ok()
        except OSError as exc:
            self._note_io_failure(exc, f"journal[{op}]")

    # ------------------------------------------------------------ health

    def _note_journal_ok(self) -> None:
        self._journal_fail_streak = 0

    def _note_io_failure(self, exc: OSError, where: str) -> None:
        """Account one journal/cache write failure; trip read-only on
        ENOSPC (definitively a full disk) or a persistent streak."""
        self._journal_fail_streak += 1
        self.counters["journal_write_errors"] += 1
        if exc.errno == errno.ENOSPC or \
                self._journal_fail_streak >= self.read_only_after:
            self._enter_read_only(f"{where}: {exc}")

    def _enter_read_only(self, reason: str) -> None:
        if self.health == HEALTH_READ_ONLY:
            return
        self.health = HEALTH_READ_ONLY
        self._read_only_reason = reason
        self.read_only_since = time.time()
        self.counters["health_to_read_only"] += 1
        self._event("health", "", "entering read-only", state=self.health,
                    reason=reason)

    def _probe_disk(self) -> bool:
        """Can we write durably again? One scratch write + fsync under
        the service root, routed through the same fault sites as real
        writes so an injected 'full disk' keeps failing the probe."""
        probe = os.path.join(self.root, ".health-probe")
        try:
            io_site(SITE_PROBE_WRITE, probe, size=8)
            with open(probe, "w") as handle:
                handle.write("healthy\n")
                handle.flush()
                io_site(SITE_PROBE_FSYNC, probe)
                os.fsync(handle.fileno())
            os.unlink(probe)
            return True
        except OSError:
            self.counters["probe_failures"] += 1
            return False

    def health_probe(self, now: Optional[float] = None) -> str:
        """Housekeeping hook: while read-only, periodically test the
        disk and return to ``ok`` once writes succeed again. Returns
        the (possibly updated) health state."""
        now = time.time() if now is None else now
        with self._lock:
            if self.health != HEALTH_READ_ONLY:
                return self.health
            if now - self._last_probe_t < self.probe_interval_s:
                return self.health
            self._last_probe_t = now
            if self._probe_disk():
                self.health = HEALTH_OK
                self._read_only_reason = ""
                self.read_only_since = 0.0
                self._journal_fail_streak = 0
                self.counters["health_recoveries"] += 1
                self._event("health", "", "recovered to ok",
                            state=self.health)
            return self.health

    def _queued_runs(self) -> int:
        return sum(1 for run in self.runs.values()
                   if run.state == RUN_QUEUED)

    def _health_reasons(self) -> List[str]:
        reasons: List[str] = []
        if self.health == HEALTH_READ_ONLY:
            reasons.append(self._read_only_reason or
                           "persistent journal write failure")
            return reasons
        if self._journal_fail_streak > 0:
            reasons.append(
                f"{self._journal_fail_streak} recent journal write "
                f"error(s)")
        if self.max_queued_runs:
            queued = self._queued_runs()
            if queued >= 0.8 * self.max_queued_runs:
                reasons.append(
                    f"backlog {queued}/{self.max_queued_runs} near "
                    f"admission watermark")
        return reasons

    def healthz(self) -> Dict[str, Any]:
        """The ``GET /healthz`` document (see docs/serving.md)."""
        with self._lock:
            reasons = self._health_reasons()
            state = self.health
            if state == HEALTH_OK and reasons:
                state = HEALTH_DEGRADED
            doc: Dict[str, Any] = {
                "state": state,
                "reasons": reasons,
                "draining": self.draining,
                "queued_runs": self._queued_runs(),
                "leased_runs": sum(1 for r in self.runs.values()
                                   if r.state == RUN_LEASED),
                "watermark": {"max_queued_runs": self.max_queued_runs},
                "read_only_since": (self.read_only_since
                                    if self.health == HEALTH_READ_ONLY
                                    else None),
            }
            if state == HEALTH_READ_ONLY:
                doc["retry_after_s"] = self.probe_interval_s
            return doc

    def quota_for(self, tenant: str) -> int:
        return self.quotas.get(tenant, self.default_quota)

    def _active_leases(self, tenant: str) -> int:
        return sum(1 for run in self.runs.values()
                   if run.state == RUN_LEASED and run.tenant == tenant)

    def _live_submissions(self, tenant: str) -> int:
        return sum(1 for sub in self.subs.values()
                   if sub.tenant == tenant
                   and sub.state in (SUB_QUEUED,))

    def artifacts_dir(self, job_key: str) -> str:
        return os.path.join(self.artifacts_root, job_key)

    def events_offset(self) -> int:
        """Current byte size of the orchestration event log — the
        offset an idle worker long-polls ``/v1/events`` from, so it is
        woken by the *next* transition without replaying history."""
        try:
            return os.path.getsize(self.events_path)
        except OSError:
            return 0

    def wait_for_append(self, seen: int, timeout: float) -> int:
        """Block until the event log has had an append past count
        ``seen`` (read from :attr:`event_appends` *before* reading the
        file, so an append in between is never missed) or ``timeout``
        seconds pass; returns the current count."""
        with self._appended:
            self._appended.wait_for(lambda: self.event_appends != seen,
                                    timeout)
            return self.event_appends

    def artifact_names(self, job_key: str) -> List[str]:
        directory = self.artifacts_dir(job_key)
        if not os.path.isdir(directory):
            return []
        return sorted(name for name in os.listdir(directory)
                      if os.path.isfile(os.path.join(directory, name)))

    # ------------------------------------------------------------ submit

    def submit(self, tenant: str, spec_dict: Dict[str, Any],
               priority: int = 0,
               telemetry: bool = False,
               deadline_s: Optional[float] = None) -> Dict[str, Any]:
        """Accept one submission; returns its view (durably journaled
        before return). Identical specs collapse onto one run.

        ``deadline_s`` (seconds from now, optional) bounds the whole
        run: past the deadline the run is terminally failed (kind
        ``timeout``) instead of leased, and a lease granted near it has
        its TTL and engine cycle budget capped to the remaining time.
        """
        (view,) = self.submit_many(tenant, [spec_dict], priority=priority,
                                   telemetry=telemetry,
                                   deadline_s=deadline_s)
        return view

    def submit_many(self, tenant: str, spec_dicts: List[Dict[str, Any]],
                    priority: int = 0,
                    telemetry: bool = False,
                    deadline_s: Optional[float] = None
                    ) -> List[Dict[str, Any]]:
        """Batch submission (a sweep): one journal append, one fsync."""
        if not tenant or "/" in tenant:
            raise ValueError(f"bad tenant name {tenant!r}")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        deadline_at = (time.time() + float(deadline_s)
                       if deadline_s is not None else None)
        specs = [JobSpec.from_dict(d) for d in spec_dicts]
        with self._lock:
            if not self._replaying and self.health == HEALTH_READ_ONLY:
                self.counters["rejected_read_only"] += 1
                raise ServiceUnavailableError(
                    f"queue is read-only "
                    f"({self._read_only_reason or 'durability lost'}); "
                    f"retry after recovery",
                    retry_after=self.probe_interval_s)
            if self.max_queued_per_tenant:
                live = self._live_submissions(tenant)
                if live + len(specs) > self.max_queued_per_tenant:
                    self.counters["rejected_quota"] += 1
                    raise QuotaExceededError(
                        f"tenant {tenant!r} would have {live + len(specs)} "
                        f"live submissions "
                        f"(max {self.max_queued_per_tenant})")
            if self.max_queued_runs and not self._replaying:
                queued = self._queued_runs()
                if queued + len(specs) > self.max_queued_runs:
                    self.counters["rejected_backlog"] += 1
                    raise BacklogExceededError(
                        f"queued-run backlog {queued} + {len(specs)} "
                        f"would exceed watermark {self.max_queued_runs}",
                        retry_after=1.0)
            entries = []
            views = []
            for spec in specs:
                self._sub_seq += 1
                sub_id = f"{tenant}-{self._sub_seq:07d}"
                entry = {"op": "submit", "sub": sub_id, "tenant": tenant,
                         "priority": priority, "job_key": spec.job_key(),
                         "spec": spec.to_dict(), "telemetry": telemetry,
                         "trace": mint_trace_id(), "t": time.time()}
                if deadline_at is not None:
                    # Absolute, so replay after a restart enforces the
                    # same instant instead of restarting the countdown.
                    entry["deadline"] = deadline_at
                entries.append(entry)
            if not self._replaying:
                # The ack contract: a submission is durable before it is
                # acknowledged. If the append fails the caller gets 503
                # and *no* state changed — nothing was applied yet.
                try:
                    self._journal.append_many(entries)
                    self._note_journal_ok()
                except OSError as exc:
                    self._note_io_failure(exc, "journal[submit]")
                    raise ServiceUnavailableError(
                        f"submission not journaled: {exc}",
                        retry_after=self.probe_interval_s) from exc
            for entry in entries:
                views.append(self._apply_submit(entry).view(
                    self.runs.get(entry["job_key"])))
            return views

    def _apply_submit(self, entry: Dict[str, Any]) -> Submission:
        tenant = entry["tenant"]
        job_key = entry["job_key"]
        sub = Submission(sub_id=entry["sub"], tenant=tenant,
                         job_key=job_key,
                         priority=int(entry.get("priority", 0)),
                         t_submit=float(entry.get("t", 0.0)))
        self.subs[sub.sub_id] = sub
        run = self.runs.get(job_key)
        if run is None:
            # Dedup against the content-addressed cache before queueing:
            # an identical job finished by an earlier batch, an earlier
            # service life, or the plain orchestrator costs nothing.
            record = (None if self._replaying
                      else self.cache.get(JobSpec.from_dict(entry["spec"])))
            if record is not None:
                sub.state = SUB_DONE
                sub.cache_hit = True
                run = Run(job_key=job_key, spec=entry["spec"],
                          tenant=tenant, seq=self._next_seq(),
                          priority=sub.priority, state=RUN_DONE,
                          trace_id=entry.get("trace", ""))
                run.submissions.append(sub.sub_id)
                run.tenants.add(tenant)
                run.telemetry = bool(entry.get("telemetry", False))
                self.runs[job_key] = run
                self._event("cache_hit", job_key, sub.sub_id,
                            tenant=tenant,
                            cycles=record.get("result", {}).get("cycles", 0))
                return sub
            # The run's trace id is minted once, here at ingest, and
            # journaled with the submission — a restart replays the
            # same id, so a post-crash resume attempt stays on the
            # trace that queued it.
            run = Run(job_key=job_key, spec=entry["spec"], tenant=tenant,
                      seq=self._next_seq(), priority=sub.priority,
                      trace_id=entry.get("trace", ""),
                      t_queued=float(entry.get("t", 0.0)) or time.time())
            run.telemetry = bool(entry.get("telemetry", False))
            run.deadline_at = entry.get("deadline")
            self.runs[job_key] = run
        elif run.state in (RUN_FAILED, RUN_CANCELLED):
            # Fresh demand revives a terminally-failed/cancelled run.
            run.state = RUN_QUEUED
            run.attempts = 0
            run.error, run.kind = "", "ok"
            run.seq = self._next_seq()
            run.t_queued = float(entry.get("t", 0.0)) or time.time()
            run.deadline_at = entry.get("deadline")
        else:
            # Dedup merge: the loosest deadline wins (None = unlimited),
            # since one result answers every attached submission.
            if run.deadline_at is not None and run.state == RUN_QUEUED:
                merged = entry.get("deadline")
                run.deadline_at = (None if merged is None
                                   else max(run.deadline_at, float(merged)))
        run.submissions.append(sub.sub_id)
        run.tenants.add(tenant)
        run.priority = max(run.priority, sub.priority)
        run.telemetry = run.telemetry or bool(entry.get("telemetry", False))
        if run.state == RUN_DONE:
            sub.state = SUB_DONE
            sub.cache_hit = True
            self._event("cache_hit", job_key, sub.sub_id, tenant=tenant)
        else:
            self._event("queued", job_key, sub.sub_id, tenant=tenant,
                        priority=sub.priority)
        return sub

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # ------------------------------------------------------------- lease

    def lease(self, worker_id: str) -> Optional[Dict[str, Any]]:
        """Hand the best queued run to ``worker_id``, or None (idle /
        draining). The response carries the run payload (spec plus
        out-of-band checkpoint/telemetry routing), the fencing token,
        and the heartbeat deadline."""
        with self._lock:
            self._touch_worker(worker_id)
            if self.draining:
                return None
            if self.health == HEALTH_READ_ONLY:
                # A commit needs cache + journal writes; don't hand out
                # work that can only end in a failed publish.
                return None
            now = time.time()
            self._expire_deadlines(now)
            run = self._pick()
            if run is None:
                return None
            # Layer 1 of deadline propagation: the lease TTL never
            # outlives the run's deadline, so a worker that dies holding
            # a nearly-overdue run cannot park it past its cutoff.
            lease_s = self.lease_s
            if run.deadline_at is not None:
                lease_s = max(0.05, min(lease_s, run.deadline_at - now))
            run.state = RUN_LEASED
            run.attempts += 1
            run.generation += 1
            run.worker = worker_id
            run.lease_expires = now + lease_s
            info = self.workers[worker_id]
            info["job_key"] = run.job_key
            info["leases"] = info.get("leases", 0) + 1
            # Close the host-domain wait interval: queued (or last
            # requeued) -> this lease.
            if run.trace_id and run.t_queued > 0:
                self.hostspans.record(HostSpan(
                    name="queue.wait", trace_id=run.trace_id,
                    start=min(run.t_queued, now), end=now,
                    track="host/queue",
                    args={"job_key": run.job_key[:12],
                          "tenant": run.tenant,
                          "attempt": run.attempts}))
            run.t_leased = now
            self._journal_op("lease", job_key=run.job_key,
                             worker=worker_id, gen=run.generation,
                             attempt=run.attempts,
                             expires=run.lease_expires)
            self._event("started", run.job_key,
                        run.job_spec().describe(), attempt=run.attempts,
                        worker=worker_id, tenant=run.tenant)
            return {
                "job_key": run.job_key,
                "token": run.generation,
                "attempt": run.attempts,
                "lease_s": lease_s,
                "trace_id": run.trace_id,
                "payload": self._payload(run),
            }

    def _pick(self) -> Optional[Run]:
        """Fair-share pick; see the module docstring."""
        eligible: Dict[str, List[Run]] = {}
        for run in self.runs.values():
            if run.state != RUN_QUEUED:
                continue
            quota = self.quota_for(run.tenant)
            if quota and self._active_leases(run.tenant) >= quota:
                continue
            eligible.setdefault(run.tenant, []).append(run)
        if not eligible:
            return None
        tenant = min(eligible,
                     key=lambda t: (self._active_leases(t), t))
        return min(eligible[tenant],
                   key=lambda r: (-r.priority, r.seq))

    def _payload(self, run: Run) -> Dict[str, Any]:
        """What the worker executes: the spec dict plus out-of-band
        (never content-hashed) checkpoint and telemetry routing."""
        payload = dict(run.spec)
        if self.checkpoint_every > 0:
            payload["_checkpoint"] = {
                "dir": self.checkpoint_dir,
                "every": self.checkpoint_every,
                "ring": 4,
                "resume": True,
            }
        if getattr(run, "telemetry", False):
            payload["_telemetry"] = {"dir": self.artifacts_dir(run.job_key)}
        if run.trace_id:
            payload["_trace"] = {"trace_id": run.trace_id,
                                 "attempt": run.attempts}
        if run.deadline_at is not None:
            # Layer 2: the worker gets the wall-clock cutoff, and layer
            # 3 rides along as an engine cycle budget derived from the
            # remaining time — the simulation cuts itself off even when
            # the worker process never checks the clock again.
            deadline: Dict[str, Any] = {"expires": run.deadline_at}
            if self.deadline_cycles_per_s > 0:
                remaining = max(0.0, run.deadline_at - time.time())
                deadline["max_cycles"] = max(
                    1, int(remaining * self.deadline_cycles_per_s))
            payload["_deadline"] = deadline
        return payload

    def _touch_worker(self, worker_id: str) -> None:
        info = self.workers.setdefault(
            worker_id, {"leases": 0, "job_key": None})
        info["last_seen"] = time.time()

    # --------------------------------------------------------- heartbeat

    def heartbeat(self, job_key: str, token: int, worker_id: str = "") -> float:
        """Extend a live lease; returns the new deadline. Raises
        :class:`StaleLeaseError` when the lease is gone — the worker's
        signal to abandon the run (its commit would be refused too)."""
        with self._lock:
            if worker_id:
                self._touch_worker(worker_id)
            run = self._run(job_key)
            if run.state != RUN_LEASED or token != run.generation:
                raise StaleLeaseError(
                    f"lease for {job_key[:12]} is no longer held "
                    f"(state={run.state}, gen={run.generation}, "
                    f"presented={token})")
            now = time.time()
            run.lease_expires = now + self.lease_s
            if run.deadline_at is not None:
                # Heartbeats cannot extend a lease past the deadline:
                # once it passes, the expiry sweep reclaims the run and
                # the requeue path turns it into a terminal timeout.
                run.lease_expires = min(run.lease_expires,
                                        max(now + 0.05, run.deadline_at))
            return run.lease_expires

    def expire_leases(self, now: Optional[float] = None) -> List[str]:
        """Requeue every run whose lease deadline passed (the worker
        stopped heartbeating: SIGKILLed, wedged, or partitioned).
        Exactly once per expiry: the transition out of ``leased`` is
        what a later sweep keys off, so it cannot fire twice."""
        now = time.time() if now is None else now
        requeued = []
        with self._lock:
            self._expire_deadlines(now)
            for run in list(self.runs.values()):
                if run.state != RUN_LEASED or run.lease_expires > now:
                    continue
                self._requeue(run, reason="lease_expired")
                requeued.append(run.job_key)
        return requeued

    def _expire_deadlines(self, now: float) -> None:
        """Terminally fail queued runs whose deadline passed (kind
        ``timeout`` — the same deterministic verdict an engine-level
        SimulationTimeout produces, so it never requeues). Leased runs
        are not touched here: their lease TTL is already capped at the
        deadline, so expiry + :meth:`_requeue` collects them."""
        for run in list(self.runs.values()):
            if run.state != RUN_QUEUED or run.deadline_at is None \
                    or run.deadline_at > now:
                continue
            self.counters["deadline_expirations"] += 1
            self._terminal_failure(
                run, kind="timeout",
                error=f"deadline passed while queued "
                      f"({now - run.deadline_at:.2f}s overdue, "
                      f"{run.attempts} attempt(s))")

    def _close_lease_span(self, run: Run, outcome: str) -> None:
        """Record the ``lease.held`` host span for the lease now ending
        (commit, failure report, or expiry). Idempotent per lease:
        ``t_leased`` is consumed."""
        if self._replaying or not run.trace_id or run.t_leased <= 0:
            return
        self.hostspans.record(HostSpan(
            name="lease.held", trace_id=run.trace_id,
            start=run.t_leased, end=time.time(), track="host/queue",
            args={"job_key": run.job_key[:12],
                  "worker": run.worker or "",
                  "attempt": run.attempts, "outcome": outcome}))
        run.t_leased = 0.0

    def _requeue(self, run: Run, reason: str) -> None:
        worker = run.worker
        self._close_lease_span(run, outcome=reason)
        run.worker = None
        run.t_queued = time.time()
        if run.deadline_at is not None and \
                run.t_queued >= run.deadline_at:
            self.counters["deadline_expirations"] += 1
            self._terminal_failure(
                run, kind="timeout",
                error=f"deadline passed after {run.attempts} attempt(s) "
                      f"({reason})")
            return
        if run.attempts >= self.max_attempts:
            self._terminal_failure(
                run, kind="crash",
                error=f"{reason} after {run.attempts} attempt(s)")
            return
        run.state = RUN_QUEUED
        run.requeues += 1
        self.counters["requeues"] += 1
        self._journal_op("requeue", job_key=run.job_key, reason=reason,
                         attempts=run.attempts)
        self._event("retried", run.job_key, run.job_spec().describe(),
                    attempt=run.attempts, error=reason, worker=worker)

    # ------------------------------------------------------ commit / fail

    def commit(self, job_key: str, token: int,
               record: Dict[str, Any]) -> Dict[str, Any]:
        """Publish a finished run's record. Fenced: only the current
        leaseholder may commit; anyone else gets StaleLeaseError and
        must discard. The record hits the result cache (atomic,
        checksummed) *before* the commit is journaled."""
        with self._lock:
            run = self._run(job_key)
            if run.state != RUN_LEASED or token != run.generation:
                run.stale_commits += 1
                self.counters["stale_commits"] += 1
                self._event("stale_commit", job_key,
                            worker=run.worker or "",
                            presented=token, gen=run.generation,
                            state=run.state)
                raise StaleLeaseError(
                    f"commit for {job_key[:12]} refused: lease not held "
                    f"(state={run.state}, presented gen {token}, "
                    f"current {run.generation})")
            spec = run.job_spec()
            try:
                self.cache.put(spec, record)
            except OSError as exc:
                # Result not durable: leave the lease intact (the
                # worker retries the commit or lets the lease expire —
                # either way the run is not lost) and let health trip.
                self._note_io_failure(exc, "cache[put]")
                raise ServiceUnavailableError(
                    f"result not persisted: {exc}",
                    retry_after=self.probe_interval_s) from exc
            meta = record.get("meta", {})
            resumed = meta.get("resumed_from")
            worker = run.worker or ""
            self._close_lease_span(run, outcome="commit")
            run.state = RUN_DONE
            run.commits += 1
            run.worker = None
            run.resumed_from = resumed
            # The worker's host spans (worker.attempt / ckpt.restore /
            # sim.run) ride back on the record's meta — parity-exempt —
            # and land in the same hostspans log the queue writes, so
            # one trace id stitches both processes.
            worker_spans = meta.get("host_spans") or []
            if worker_spans:
                try:
                    self.hostspans.append_many(
                        HostSpan.from_dict(s) for s in worker_spans)
                except (KeyError, TypeError, ValueError):
                    pass  # malformed spans must never block a commit
            if worker:
                info = self.workers.setdefault(
                    worker, {"leases": 0, "job_key": None})
                info["jobs"] = info.get("jobs", 0) + 1
                info["cycles"] = info.get("cycles", 0) + int(
                    record.get("result", {}).get("cycles", 0) or 0)
                info["events"] = info.get("events", 0) + int(
                    meta.get("events_executed", 0) or 0)
                info["busy_s"] = info.get("busy_s", 0.0) + float(
                    meta.get("wall_s", 0.0) or 0.0)
                info["job_key"] = None
            self._journal_op("commit", job_key=job_key, gen=token,
                             **({"resumed_from": resumed}
                                if resumed is not None else {}))
            self._settle_submissions(run, SUB_DONE)
            self._event(
                "finished", job_key, spec.describe(),
                attempt=run.attempts,
                cycles=record.get("result", {}).get("cycles", 0),
                wall_s=record.get("meta", {}).get("wall_s", 0.0),
                **({"resumed_from": resumed} if resumed is not None else {}))
            return run.view(record)

    def fail(self, job_key: str, token: int, kind: str, error: str,
             retryable: bool = True) -> Dict[str, Any]:
        """A worker reports a failed execution. Deterministic verdicts
        (invariant/liveness/timeout) and failures the worker judged not
        ``retryable`` (:func:`repro.orchestrate.scheduler.is_retryable`)
        are terminal — the run would fail identically again;
        infrastructure failures requeue until ``max_attempts``. Fenced
        like :meth:`commit`."""
        with self._lock:
            run = self._run(job_key)
            if run.state != RUN_LEASED or token != run.generation:
                self.counters["stale_fails"] += 1
                raise StaleLeaseError(
                    f"failure report for {job_key[:12]} refused: lease "
                    f"not held")
            self._close_lease_span(run, outcome=f"fail:{kind}")
            run.worker = None
            if not retryable or kind in DETERMINISTIC_KINDS or \
                    run.attempts >= self.max_attempts:
                self._terminal_failure(run, kind=kind, error=error)
            else:
                self._requeue(run, reason=f"worker_failed: {error}")
            return run.view()

    def _terminal_failure(self, run: Run, kind: str, error: str) -> None:
        run.state = RUN_FAILED
        run.kind = kind
        run.error = error
        self.failure_kinds[kind] += 1
        self._journal_op("fail", job_key=run.job_key, kind=kind,
                         error=error)
        self._settle_submissions(run, SUB_FAILED)
        self._event("failed", run.job_key, run.job_spec().describe(),
                    attempt=run.attempts, failure_kind=kind, error=error)
        if not self._replaying:
            self._dump_flight(run)

    def _dump_flight(self, run: Run) -> None:
        """Dump the flight-recorder ring next to the run that died —
        the service-level analogue of the checkpoint layer's black-box
        snapshot: what the queue saw in the moments before the end."""
        try:
            atomic_write_json(
                os.path.join(self.flight_dir, f"{run.job_key}.json"),
                {"job_key": run.job_key, "trace_id": run.trace_id,
                 "failure_kind": run.kind, "error": run.error,
                 "t_wall": time.time(), "flight": self.flight.payload()},
                durable=False, indent=2)
        except OSError:  # pragma: no cover - disk trouble
            pass

    def _settle_submissions(self, run: Run, state: str) -> None:
        for sub_id in run.submissions:
            sub = self.subs.get(sub_id)
            if sub is not None and sub.state == SUB_QUEUED:
                sub.state = state

    def _run(self, job_key: str) -> Run:
        run = self.runs.get(job_key)
        if run is None:
            raise UnknownJobError(f"unknown job {job_key[:16]!r}")
        return run

    # ------------------------------------------------------------ cancel

    def cancel(self, sub_id: str) -> Dict[str, Any]:
        """Cancel one submission. The shared run is only cancelled when
        *every* submission riding it is cancelled and it is not
        currently executing (a leased run finishes and commits — other
        tenants may re-request the spec for free afterwards)."""
        with self._lock:
            sub = self.subs.get(sub_id)
            if sub is None:
                raise UnknownJobError(f"unknown submission {sub_id!r}")
            if sub.state != SUB_QUEUED:
                return sub.view(self.runs.get(sub.job_key))
            sub.state = SUB_CANCELLED
            self._journal_op("cancel", sub=sub_id)
            run = self.runs.get(sub.job_key)
            self._maybe_cancel_run(run)
            self._event("cancelled", sub.job_key, sub_id)
            return sub.view(run)

    def _maybe_cancel_run(self, run: Optional[Run]) -> None:
        if (run is not None and run.state == RUN_QUEUED
                and all(self.subs[s].state == SUB_CANCELLED
                        for s in run.submissions if s in self.subs)):
            run.state = RUN_CANCELLED
            run.kind = "cancelled"

    # ------------------------------------------------------------- drain

    def drain(self, on: bool = True) -> None:
        with self._lock:
            self.draining = on
            self._journal_op("drain", on=on)
            self._event("drain", "", on=on)

    @property
    def idle(self) -> bool:
        """No queued or leased work anywhere."""
        with self._lock:
            return all(run.state in TERMINAL_RUN_STATES
                       for run in self.runs.values())

    # ------------------------------------------------------------- views

    def submission_view(self, sub_id: str) -> Dict[str, Any]:
        with self._lock:
            sub = self.subs.get(sub_id)
            if sub is None:
                raise UnknownJobError(f"unknown submission {sub_id!r}")
            return sub.view(self.runs.get(sub.job_key))

    def run_view(self, job_key: str) -> Dict[str, Any]:
        with self._lock:
            run = self._run(job_key)
            record = (self.cache.get(run.job_spec())
                      if run.state == RUN_DONE else None)
            return run.view(record, artifacts=self.artifact_names(job_key))

    def result(self, ref: str) -> Dict[str, Any]:
        """The finished record for a submission id or job key."""
        with self._lock:
            sub = self.subs.get(ref)
            job_key = sub.job_key if sub is not None else ref
            run = self._run(job_key)
            if run.state != RUN_DONE:
                raise UnknownJobError(
                    f"job {job_key[:12]} has no result "
                    f"(state={run.state}{': ' + run.error if run.error else ''})")
            record = self.cache.get(run.job_spec())
            if record is None:  # pragma: no cover - cache damage
                raise UnknownJobError(
                    f"record for {job_key[:12]} missing from cache")
            return record

    def status(self) -> Dict[str, Any]:
        with self._lock:
            run_states = Counter(run.state for run in self.runs.values())
            sub_states = Counter(sub.state for sub in self.subs.values())
            cache_hits = sum(1 for s in self.subs.values() if s.cache_hit)
            # Runs are charged to their first submitter, but every
            # submitting tenant gets a row — a tenant whose specs all
            # dedup'd onto others' runs still has submissions to show.
            by_tenant: Dict[str, Dict[str, Any]] = {}
            for sub in self.subs.values():
                by_tenant.setdefault(sub.tenant, Counter())
            for run in self.runs.values():
                info = by_tenant.setdefault(run.tenant, Counter())
                info[run.state] += 1
            tenants = {}
            for tenant, states in by_tenant.items():
                tenants[tenant] = {
                    **{state: states.get(state, 0)
                       for state in (RUN_QUEUED, RUN_LEASED, RUN_DONE,
                                     RUN_FAILED, RUN_CANCELLED)},
                    "active_leases": self._active_leases(tenant),
                    "quota": self.quota_for(tenant),
                    "submissions": sum(1 for s in self.subs.values()
                                       if s.tenant == tenant),
                    "backlog": self._live_submissions(tenant),
                }
            resumed = sum(1 for run in self.runs.values()
                          if run.resumed_from is not None)
            now = time.time()
            lease_ages = [now - run.t_leased
                          for run in self.runs.values()
                          if run.state == RUN_LEASED and run.t_leased > 0]
            return {
                "draining": self.draining,
                "health": self.health,
                "health_reasons": self._health_reasons(),
                "uptime_s": now - self.started_at,
                "runs": {"total": len(self.runs), **dict(run_states)},
                "submissions": {"total": len(self.subs),
                                "cache_hits": cache_hits,
                                **dict(sub_states)},
                "tenants": tenants,
                "workers": {
                    worker: {"last_seen": info.get("last_seen"),
                             "job_key": info.get("job_key"),
                             "leases": info.get("leases", 0),
                             "jobs": info.get("jobs", 0),
                             "cycles": info.get("cycles", 0),
                             "events": info.get("events", 0),
                             "busy_s": info.get("busy_s", 0.0)}
                    for worker, info in self.workers.items()},
                "resumed_runs": resumed,
                "oldest_lease_age_s": max(lease_ages, default=0.0),
                "failure_kinds": dict(self.failure_kinds),
                "counters": dict(self.counters),
                "cache": dict(self.cache.counters),
                "flight": {"recorded": self.flight.payload()["recorded"],
                           "dropped": self.flight.dropped,
                           "capacity": self.flight.capacity},
                "throughput": self.events.throughput(),
            }

    # ----------------------------------------------------- observability

    def prometheus_families(self) -> List[Family]:
        """The live metric catalog ``GET /metrics`` renders. Counters
        here are lifetime-monotonic for this service instance (event
        counts, cache ops, worker totals); gauges are instantaneous
        (depth, backlog, lease ages, heartbeat staleness)."""
        with self._lock:
            now = time.time()
            fams: List[Family] = []

            up = Family("repro_serve_uptime_seconds", "gauge",
                        "Seconds since this queue instance opened.")
            up.add(max(0.0, now - self.started_at))
            fams.append(up)

            tenants = sorted({run.tenant for run in self.runs.values()}
                             | {sub.tenant for sub in self.subs.values()})
            depth = Family("repro_queue_depth", "gauge",
                           "Leasable (queued) runs per tenant.")
            backlog = Family("repro_tenant_backlog", "gauge",
                             "Live (unsettled) submissions per tenant.")
            for tenant in tenants:
                depth.add(sum(1 for r in self.runs.values()
                              if r.tenant == tenant
                              and r.state == RUN_QUEUED), tenant=tenant)
                backlog.add(self._live_submissions(tenant), tenant=tenant)
            fams += [depth, backlog]

            runs = Family("repro_runs", "gauge", "Runs by state.")
            for state in (RUN_QUEUED, RUN_LEASED, RUN_DONE, RUN_FAILED,
                          RUN_CANCELLED):
                runs.add(sum(1 for r in self.runs.values()
                             if r.state == state), state=state)
            fams.append(runs)

            ages = Family("repro_lease_age_seconds", "gauge",
                          "Age of each currently held lease.")
            oldest = 0.0
            for run in self.runs.values():
                if run.state == RUN_LEASED and run.t_leased > 0:
                    age = max(0.0, now - run.t_leased)
                    oldest = max(oldest, age)
                    ages.add(age, worker=run.worker or "",
                             job=run.job_key[:12])
            fams.append(ages)
            oldf = Family("repro_oldest_lease_age_seconds", "gauge",
                          "Age of the oldest held lease (0 when none).")
            oldf.add(oldest)
            fams.append(oldf)

            jobs = Family("repro_jobs_total", "counter",
                          "Queue lifecycle events since start.")
            for kind in ("queued", "cache_hit", "started", "finished",
                         "retried", "failed", "cancelled"):
                jobs.add(self.events.counts.get(kind, 0), event=kind)
            fams.append(jobs)

            failures = Family("repro_failures_total", "counter",
                              "Terminally failed runs by failure class.")
            for kind, count in sorted(self.failure_kinds.items()):
                failures.add(count, kind=kind)
            fams.append(failures)

            cache = Family("repro_cache_ops_total", "counter",
                           "Result-cache operations (dedup wins, misses,"
                           " quarantined corrupt records, writes).")
            for op in ("hit", "miss", "quarantined", "put"):
                cache.add(self.cache.counters.get(op, 0), op=op)
            fams.append(cache)

            fence = Family("repro_fence_refusals_total", "counter",
                           "Zombie commits/failure reports refused by "
                           "the lease-generation fence.")
            fence.add(self.counters.get("stale_commits", 0), kind="commit")
            fence.add(self.counters.get("stale_fails", 0), kind="fail")
            fams.append(fence)

            requeues = Family("repro_requeues_total", "counter",
                              "Lease expiries and retried failures.")
            requeues.add(self.counters.get("requeues", 0))
            fams.append(requeues)

            stale = Family("repro_worker_heartbeat_staleness_seconds",
                           "gauge", "Seconds since each worker was "
                           "last heard from.")
            wjobs = Family("repro_worker_jobs_total", "counter",
                           "Commits per worker.")
            wcycles = Family("repro_worker_cycles_total", "counter",
                             "Simulated cycles committed per worker.")
            wevents = Family("repro_worker_events_total", "counter",
                             "Engine events committed per worker.")
            wcps = Family("repro_worker_cycles_per_second", "gauge",
                          "Committed cycles over busy wall-clock, "
                          "per worker.")
            weps = Family("repro_worker_events_per_second", "gauge",
                          "Committed engine events over busy "
                          "wall-clock, per worker.")
            for worker, info in sorted(self.workers.items()):
                last = info.get("last_seen")
                if last:
                    stale.add(max(0.0, now - last), worker=worker)
                wjobs.add(info.get("jobs", 0), worker=worker)
                wcycles.add(info.get("cycles", 0), worker=worker)
                wevents.add(info.get("events", 0), worker=worker)
                busy = info.get("busy_s", 0.0)
                if busy > 0:
                    wcps.add(info.get("cycles", 0) / busy, worker=worker)
                    weps.add(info.get("events", 0) / busy, worker=worker)
            fams += [stale, wjobs, wcycles, wevents, wcps, weps]

            sim = Family("repro_sim_cycles_total", "counter",
                         "Simulated cycles executed (cache hits "
                         "excluded).")
            sim.add(self.events.sim_cycles)
            fams.append(sim)

            flight = Family("repro_flight_events_total", "counter",
                            "Events recorded into the flight ring "
                            "(including since-evicted ones).")
            flight.add(self.flight.payload()["recorded"])
            fams.append(flight)

            health = Family("repro_health_state", "gauge",
                            "Service health (1 on the current state's "
                            "sample, 0 elsewhere).")
            current = self.healthz_state_unlocked()
            for state in HEALTH_STATES:
                health.add(1 if state == current else 0, state=state)
            fams.append(health)

            fsync_errs = Family("repro_io_fsync_errors_total", "counter",
                                "Failed fsyncs by layer (ioutil counts "
                                "process-wide; journal counts this "
                                "queue's journal).")
            fsync_errs.add(ioutil.FSYNC_ERRORS.value, layer="ioutil")
            fsync_errs.add(self._journal.fsync_errors, layer="journal")
            fams.append(fsync_errs)

            rejects = Family("repro_submit_rejections_total", "counter",
                             "Submissions refused by admission control, "
                             "by reason.")
            for reason in ("read_only", "backlog", "quota"):
                rejects.add(self.counters.get(f"rejected_{reason}", 0),
                            reason=reason)
            fams.append(rejects)

            degrade = Family("repro_degradation_events_total", "counter",
                             "Health-state machinery activity.")
            for kind in ("health_to_read_only", "health_recoveries",
                         "probe_failures", "journal_write_errors"):
                degrade.add(self.counters.get(kind, 0), kind=kind)
            degrade.add(self.events.sink.dropped, kind="dropped_events")
            degrade.add(self.hostspans.sink.dropped, kind="dropped_spans")
            fams.append(degrade)

            fams.append(histogram_family(
                "repro_journal_fsync_microseconds",
                "Journal fsync latency (the service's write-side "
                "durability floor).", self._journal.fsync_us))
            fams += self._fleet_families(now)
            return fams

    def _fleet_families(self, now: float) -> List[Family]:
        """Fleet gauges, rendered from the supervisor's published
        snapshot (``<root>/fleet/supervisor.json``) when one exists.

        The supervisor is a separate process scraping *this* service,
        so the service cannot observe it directly; the snapshot file is
        the channel. A stale snapshot (no fresh publish, or a dead
        supervisor pid) zeroes ``repro_fleet_supervisor_up`` but still
        reports the last-known shape — during a supervisor restart the
        dashboards keep their history instead of blinking to empty.
        """
        try:
            from repro.fleet.paths import (fleet_dir, pid_alive,
                                           supervisor_state_path)
            doc = ioutil.read_checked_json(
                supervisor_state_path(fleet_dir(self.root)))
        except (OSError, ValueError):
            return []
        if not isinstance(doc, dict):
            return []
        fams: List[Family] = []
        age = max(0.0, now - float(doc.get("t", 0.0) or 0.0))
        pid = int(doc.get("pid", 0) or 0)
        tick_s = float(doc.get("tick_s", 0.5) or 0.5)
        fresh = age <= max(15.0, 20.0 * tick_s) and pid_alive(pid)

        up = Family("repro_fleet_supervisor_up", "gauge",
                    "1 while the fleet supervisor is alive and "
                    "publishing fresh snapshots.")
        up.add(1 if fresh else 0)
        fams.append(up)
        snap_age = Family("repro_fleet_snapshot_age_seconds", "gauge",
                          "Age of the supervisor snapshot backing the "
                          "repro_fleet_* families.")
        snap_age.add(age)
        fams.append(snap_age)

        workers = Family("repro_fleet_workers", "gauge",
                         "Fleet pool members by state.")
        states = doc.get("states") or {}
        workers.add(int(states.get("running", 0) or 0), state="running")
        workers.add(int(states.get("draining", 0) or 0),
                    state="draining")
        workers.add(len(doc.get("quarantined") or {}),
                    state="quarantined")
        fams.append(workers)

        desired = Family("repro_fleet_desired_workers", "gauge",
                         "The pool size the supervisor is converging "
                         "to (autoscaler + operator intent).")
        desired.add(int(doc.get("desired", 0) or 0))
        fams.append(desired)

        events = Family("repro_fleet_events_total", "counter",
                        "Supervisor lifecycle events (restart budget "
                        "activity) since its journal began.")
        counters = doc.get("counters") or {}
        for kind in ("spawns", "crashes", "adoptions", "clean_exits"):
            events.add(int(counters.get(kind, 0) or 0), kind=kind)
        fams.append(events)

        breaker_doc = doc.get("breaker") or {}
        if breaker_doc:
            breaker = Family("repro_fleet_breaker_state", "gauge",
                             "Supervisor scrape-path circuit breaker "
                             "(1 on the current state's sample).")
            current = str(breaker_doc.get("state", ""))
            for state in ("closed", "open", "half_open"):
                breaker.add(1 if state == current else 0, state=state)
            fams.append(breaker)
        return fams

    def healthz_state_unlocked(self) -> str:
        """Current effective health state; caller holds the lock."""
        if self.health == HEALTH_OK and self._health_reasons():
            return HEALTH_DEGRADED
        return self.health

    def prometheus_text(self) -> str:
        return render_prometheus(self.prometheus_families())

    def stitched_trace(self, job_key: str) -> Dict[str, Any]:
        """One Perfetto document for one run: its host-domain spans
        (queue wait, leases, worker attempts) stitched with the
        cycle-domain ``trace.json`` artifact when the run produced one
        (``telemetry=True`` submissions)."""
        with self._lock:
            run = self._run(job_key)
            if not run.trace_id:
                raise UnknownJobError(
                    f"job {job_key[:12]} predates tracing (no trace id)")
            spans = self.hostspans.for_trace(run.trace_id)
        cycle_doc = None
        trace_path = os.path.join(self.artifacts_dir(job_key),
                                  "trace.json")
        if os.path.isfile(trace_path):
            try:
                with open(trace_path) as handle:
                    cycle_doc = json.load(handle)
            except (OSError, ValueError):
                cycle_doc = None
        return stitch_trace(spans, cycle_doc,
                            label=f"serve {job_key[:12]}",
                            trace_id=run.trace_id)

    # ------------------------------------------------------------ replay

    def _replay(self) -> Optional[Dict[str, int]]:
        entries = ioutil.read_events(journal_path(self.root))
        if not entries:
            return None
        self._replaying = True
        try:
            for entry in entries:
                self._replay_one(entry)
            # Leases open at the crash died with their workers: requeue
            # them (the next lease's generation bump fences old tokens).
            # Still under the replay flag — a replayed restart must not
            # journal or re-narrate what replay itself reconstructs.
            requeued = 0
            for run in list(self.runs.values()):
                if run.state == RUN_LEASED:
                    self._requeue(run, reason="restart")
                    requeued += 1
            # A crash between cache.put and the commit journal line
            # replays as "queued, but its record already exists":
            # finish it now.
            for run in self.runs.values():
                if run.state == RUN_QUEUED:
                    record = self.cache.get(run.job_spec())
                    if record is not None:
                        run.state = RUN_DONE
                        run.resumed_from = record.get("meta", {}).get(
                            "resumed_from")
                        self._settle_submissions(run, SUB_DONE)
        finally:
            self._replaying = False
        return {"requeued": requeued}

    def _replay_one(self, entry: Dict[str, Any]) -> None:
        op = entry.get("op")
        if op == "submit":
            sub_id = entry.get("sub", "")
            self._apply_submit(entry)
            # Keep fresh ids unique across service lives.
            try:
                self._sub_seq = max(self._sub_seq,
                                    int(sub_id.rsplit("-", 1)[-1]))
            except ValueError:  # pragma: no cover - hand-edited journal
                pass
        elif op == "lease":
            run = self.runs.get(entry.get("job_key", ""))
            if run is not None and run.state == RUN_QUEUED:
                run.state = RUN_LEASED
                run.generation = int(entry.get("gen", run.generation + 1))
                run.attempts = int(entry.get("attempt", run.attempts + 1))
                run.worker = entry.get("worker")
                run.lease_expires = float(entry.get("expires", 0.0))
        elif op == "requeue":
            run = self.runs.get(entry.get("job_key", ""))
            if run is not None and run.state == RUN_LEASED:
                run.state = RUN_QUEUED
                run.requeues += 1
                run.worker = None
        elif op == "commit":
            run = self.runs.get(entry.get("job_key", ""))
            if run is not None and run.state not in TERMINAL_RUN_STATES:
                run.state = RUN_DONE
                run.commits += 1
                run.worker = None
                run.resumed_from = entry.get("resumed_from")
                self._settle_submissions(run, SUB_DONE)
        elif op == "fail":
            run = self.runs.get(entry.get("job_key", ""))
            if run is not None and run.state not in TERMINAL_RUN_STATES:
                run.state = RUN_FAILED
                run.kind = entry.get("kind", "error")
                run.error = entry.get("error", "")
                run.worker = None
                # Keep repro_failures_total monotonic across restarts.
                self.failure_kinds[run.kind] += 1
                self._settle_submissions(run, SUB_FAILED)
        elif op == "cancel":
            sub = self.subs.get(entry.get("sub", ""))
            if sub is not None and sub.state == SUB_QUEUED:
                sub.state = SUB_CANCELLED
                self._maybe_cancel_run(self.runs.get(sub.job_key))
        elif op == "drain":
            self.draining = bool(entry.get("on", False))

    def close(self) -> None:
        self._journal.close()
        self.events.close()
        self.hostspans.close()
