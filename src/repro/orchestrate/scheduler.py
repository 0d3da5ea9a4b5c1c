"""The batch scheduler: parallel, cached, fault-tolerant job execution.

:class:`Orchestrator` turns a list of :class:`JobSpec`s into records:

* **Parallelism** — ``jobs > 1`` executes on a
  :class:`~concurrent.futures.ProcessPoolExecutor`; ``jobs == 1`` runs
  each job in-process (closures work as ``run_fn``, nothing is
  pickled). Both drive the same scheduling loop, so retries, timeouts
  and quarantine mean the same thing in either mode, and results are
  bit-identical: each job is an independent, seeded simulation, and
  batch output order follows input order, never completion order.
* **Caching** — with a :class:`~repro.orchestrate.cache.ResultCache`,
  each spec's content hash is checked first; hits skip the simulation
  entirely, so re-running a figure or resuming an interrupted sweep
  only simulates the misses.
* **Fault tolerance** — a job that raises is retried up to ``retries``
  times with exponential backoff; a *crashed worker process* (the pool's
  ``BrokenProcessPool``) costs the in-flight jobs one attempt each, the
  pool is rebuilt, and the batch continues. Jobs that exhaust their
  attempts are recorded as ``failed`` without sinking the batch.
* **Timeouts** — ``timeout`` bounds each job's wall-clock: an attempt
  that ends past its deadline is a ``timeout``. A pool job still
  running at its deadline is abandoned (its worker finishes in the
  background, and its slot is only reclaimed when it does — a hard
  kill would take private-API process surgery). Without checkpointing
  a timeout is terminal and not cached (the simulator is deterministic
  — it would time out again); with checkpointing the retry resumes
  past where the attempt got, so it is retried like a crash.
* **Failure classification + quarantine** — every failure is classified
  with the shared taxonomy (:mod:`repro.resilience.classify`):
  ``invariant`` / ``liveness`` / ``timeout`` / ``crash`` / ``error``.
  Deterministic simulation verdicts (invariant, liveness, timeout) are
  never retried. A *family* of jobs (same workload + configuration)
  that keeps failing deterministically is **quarantined** after
  ``quarantine_after`` failures: its remaining jobs are refused
  immediately instead of burning a core each, so one broken
  configuration cannot starve the rest of a large batch. The batch
  always completes, returning partial results plus the failure kinds in
  its records and event log.

Duplicate specs in one batch are coalesced: the simulation runs once
and every occurrence shares the record.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple, Union)

from repro.harness.runner import RunResult
from repro.resilience.classify import classify_failure, exit_code_for

from repro.orchestrate.cache import ResultCache
from repro.orchestrate.events import EventLog
from repro.orchestrate.jobspec import JobSpec, build_machine
from repro.orchestrate.record import RecordResult, record_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.flight import FlightRecorder

RunFn = Callable[[Dict[str, Any]], Dict[str, Any]]

#: Scheduler poll interval while waiting on in-flight futures.
_POLL_S = 0.05

#: Failure kinds that are verdicts of a deterministic simulation: the
#: same spec would fail the same way again, so retrying is pure waste
#: (and they count toward the spec family's quarantine threshold).
DETERMINISTIC_KINDS = frozenset({"invariant", "liveness", "timeout"})


def is_retryable(exc: BaseException, kind: str) -> bool:
    """The one retry rule, shared by :class:`Orchestrator` and the serve
    worker. Deterministic spec errors (unknown label/workload/field:
    ``ValueError``/``TypeError``) and deterministic simulation verdicts
    fail the same way every time — retrying them only wastes attempts."""
    return (not isinstance(exc, (ValueError, TypeError))
            and kind not in DETERMINISTIC_KINDS)


def execute_job(payload: Dict[str, Any],
                boundary_hook: Optional[Callable[[int], None]] = None,
                flight: Optional["FlightRecorder"] = None,
                ) -> Dict[str, Any]:
    """Run one JobSpec (as a dict) to its record — the one executor for
    orchestrator batches and serve workers. Top-level and picklable:
    this is what pool workers import and call.

    The payload may carry out-of-band routing (none of it is part of
    the spec's content address):

    * ``_checkpoint`` — ``{dir, every, ring, resume}``: checkpoint into
      the store every ``every`` cycles and, when the store already
      holds a valid checkpoint for this job key (a previous attempt
      crashed or timed out), resume from it instead of scratch — the
      record's meta then carries ``resumed_from``;
    * ``_telemetry`` — ``{dir, sample_every?}``: attach the obs layer
      and export a Perfetto trace (``trace.json``) and counter
      time-series (``series.csv``) into ``dir``;
    * ``_trace`` — ``{trace_id, attempt}``: the run's host-domain trace
      id. The attempt is wrapped in ``worker.attempt`` / ``ckpt.restore``
      / ``sim.run`` host spans that ride back on the record's
      ``meta.host_spans`` (meta is parity-exempt);
    * ``_deadline`` — ``{expires, max_cycles?}``: an absolute wall
      cutoff checked before any simulation work, plus an engine cycle
      budget riding the engine's own ``max_cycles``, so a doomed run
      stops at a structured SimulationTimeout.

    ``boundary_hook`` and ``flight`` (a host-side ring of recent worker
    events) are handed to the
    :class:`~repro.ckpt.checkpoint.Checkpointer`: the first is the
    crash-testing hook, the second lands in a failed run's black box.
    """
    payload = dict(payload)
    ckpt_cfg = payload.pop("_checkpoint", None)
    tel_cfg = payload.pop("_telemetry", None)
    trace_cfg = payload.pop("_trace", None)
    deadline_cfg = payload.pop("_deadline", None)
    spec = JobSpec.from_dict(payload)

    deadline_cycles: Optional[int] = None
    if deadline_cfg:
        expires = float(deadline_cfg.get("expires", 0.0) or 0.0)
        if expires and time.time() >= expires:
            raise TimeoutError(
                f"job deadline passed {time.time() - expires:.2f}s "
                f"before execution started")
        cap = int(deadline_cfg.get("max_cycles", 0) or 0)
        if cap > 0:
            deadline_cycles = cap

    tracectx = None
    if trace_cfg and trace_cfg.get("trace_id"):
        from repro.obs.tracectx import TraceContext
        tracectx = TraceContext(str(trace_cfg["trace_id"]),
                                track="host/worker")
        tracectx.begin("worker.attempt", job_key=spec.job_key()[:12],
                       attempt=int(trace_cfg.get("attempt", 0)),
                       pid=os.getpid())

    telemetry = None
    if tel_cfg is not None:
        from repro.obs.telemetry import Telemetry, TelemetryConfig
        telemetry = Telemetry(TelemetryConfig(
            sample_every=int(tel_cfg.get("sample_every", 200)),
            spans=True))

    t0 = time.perf_counter()
    checkpointer = None
    if ckpt_cfg:
        from repro.ckpt import Checkpointer, CheckpointStore
        checkpointer = Checkpointer(
            spec, CheckpointStore(ckpt_cfg["dir"]),
            every=int(ckpt_cfg.get("every", 2000)),
            ring=int(ckpt_cfg.get("ring", 8)),
            telemetry=telemetry, boundary_hook=boundary_hook, flight=flight)
        resume = bool(ckpt_cfg.get("resume", True))
        if tracectx is not None:
            tracectx.begin("ckpt.restore")
        machine = checkpointer.prepare(resume=resume)
        if tracectx is not None:
            tracectx.end("ckpt.restore",
                         resumed_from=checkpointer.resumed_from)
    else:
        machine = build_machine(spec, telemetry=telemetry)
    # The engine reads the cycle cap at run time, so it applies to a
    # fresh and a restored machine alike.
    config = machine.config
    if deadline_cycles is not None:
        config.max_cycles = (deadline_cycles if config.max_cycles is None
                             else min(config.max_cycles, deadline_cycles))
    if tracectx is not None:
        tracectx.begin("sim.run")
    stats = (checkpointer.run(resume=resume) if checkpointer is not None
             else machine.run())
    if tracectx is not None:
        tracectx.end("sim.run", cycles=stats.cycles)
    result = RunResult.of(machine, stats)

    record = record_of(spec, result, wall_s=time.perf_counter() - t0)
    record["meta"]["events_executed"] = machine.events_executed
    if checkpointer is not None and checkpointer.resumed_from is not None:
        record["meta"]["resumed_from"] = checkpointer.resumed_from
    if telemetry is not None and tel_cfg.get("dir"):
        record["meta"]["artifacts"] = _export_artifacts(
            telemetry, tel_cfg["dir"])
    if tracectx is not None:
        tracectx.end("worker.attempt")
        record["meta"]["trace_id"] = tracectx.trace_id
        record["meta"]["host_spans"] = tracectx.as_dicts()
    return record


def _export_artifacts(telemetry: Any, directory: str) -> List[str]:
    os.makedirs(directory, exist_ok=True)
    names = []
    telemetry.write_perfetto(os.path.join(directory, "trace.json"),
                             validate=False)
    names.append("trace.json")
    if telemetry.sampler is not None:
        with open(os.path.join(directory, "series.csv"), "w") as handle:
            telemetry.sampler.to_csv(handle)
        names.append("series.csv")
    return names


@dataclass
class JobResult:
    """Terminal state of one job in a batch."""

    spec: JobSpec
    #: finished | cache_hit | failed | timeout | quarantined
    status: str
    record: Optional[Dict[str, Any]] = None
    error: str = ""
    attempts: int = 0
    #: Failure class (``invariant``/``liveness``/``timeout``/``crash``/
    #: ``error``/``quarantined``), or ``"ok"`` for successful jobs.
    kind: str = "ok"
    #: Checkpoint boundary the successful attempt resumed from, or None
    #: (fresh run / checkpointing off).
    resumed_from: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status in ("finished", "cache_hit")

    def result(self) -> RecordResult:
        if self.record is None:
            raise RuntimeError(
                f"job {self.spec.describe()} has no record "
                f"(status={self.status}: {self.error})")
        return RecordResult(self.record)


@dataclass
class BatchResult:
    """All job outcomes of one :meth:`Orchestrator.run`, in input order."""

    results: List[JobResult]
    events: EventLog
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failed(self) -> List[JobResult]:
        return [r for r in self.results if not r.ok]

    @property
    def simulations_executed(self) -> int:
        return self.events.simulations_executed

    def records(self) -> List[Dict[str, Any]]:
        return [r.record for r in self.results if r.record is not None]

    def failure_kinds(self) -> Dict[str, int]:
        """Failure-class histogram over the batch's failed jobs."""
        counts = Counter(r.kind for r in self.results if not r.ok)
        return dict(counts)

    def exit_code(self) -> int:
        """Process exit code: 0 when everything succeeded, else the
        shared-taxonomy code of the most severe failure class present
        (:data:`repro.resilience.classify.FAILURE_EXIT_CODES`)."""
        return exit_code_for(r.kind for r in self.results)

    def failure_manifest(self) -> Dict[str, Any]:
        """Structured account of everything that did not finish: one
        entry per failed job (spec, kind, error, attempts) plus the
        per-kind histogram — what a campaign or CI run archives."""
        return {
            "total": len(self.results),
            "failed": len(self.failed),
            "by_kind": self.failure_kinds(),
            "failures": [
                {"spec": r.spec.to_dict(), "job_key": r.spec.job_key(),
                 "status": r.status, "kind": r.kind, "error": r.error,
                 "attempts": r.attempts}
                for r in self.failed
            ],
        }

    def summary(self) -> str:
        return self.events.summary()


#: A pending queue entry: (spec, attempt number, earliest submit time).
_Pending = Tuple[JobSpec, int, float]


class Orchestrator:
    """Executes JobSpec batches; see the module docstring for semantics.

    ``retries`` counts *re*-tries: a job gets ``retries + 1`` attempts.
    ``run_fn`` is injectable for testing (must be picklable — a
    top-level function or :func:`functools.partial` — when ``jobs > 1``).
    """

    def __init__(self, jobs: int = 1,
                 cache: Union[ResultCache, str, None] = None,
                 timeout: Optional[float] = None, retries: int = 2,
                 backoff_s: float = 0.05,
                 events: Optional[EventLog] = None,
                 run_fn: Optional[RunFn] = None,
                 verbose: bool = False,
                 quarantine_after: int = 3,
                 checkpoint_dir: Optional[str] = None,
                 checkpoint_every: int = 0) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if quarantine_after < 0:
            raise ValueError("quarantine_after must be >= 0 (0 = off)")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 = off)")
        self.jobs = jobs
        self.cache = ResultCache(cache) if isinstance(cache, str) else cache
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.quarantine_after = quarantine_after
        #: With both set, every job checkpoints into this store as it
        #: runs, and a retried attempt (after a worker crash, broken
        #: pool, or wall-clock timeout) *resumes* from the newest valid
        #: checkpoint instead of scratch.
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        #: Deterministic failures per job family (workload, config).
        self._family_failures: Counter = Counter()
        self.run_fn: RunFn = run_fn or execute_job
        if events is None:
            sink = None
            if self.cache is not None:
                sink = f"{self.cache.root}/events.jsonl"
            events = EventLog(sink_path=sink, verbose=verbose)
        self.events = events

    # ------------------------------------------------------------ public

    def run(self, specs: Sequence[JobSpec]) -> BatchResult:
        """Execute a batch; returns one JobResult per input spec. The
        event log's handle is released when the batch ends."""
        try:
            return self._run_batch(specs)
        finally:
            self.events.release()

    def _run_batch(self, specs: Sequence[JobSpec]) -> BatchResult:
        t0 = time.perf_counter()
        unique: Dict[str, JobSpec] = {}
        for spec in specs:
            key = spec.job_key()
            self.events.record("queued", key, spec.describe())
            unique.setdefault(key, spec)

        outcomes: Dict[str, JobResult] = {}
        misses: List[JobSpec] = []
        for key, spec in unique.items():
            # "is not None", not truthiness: ResultCache.__len__ makes
            # an *empty* cache falsy, which would skip the lookup and
            # leave the miss counters blind on a cold start.
            cached = (self.cache.get(spec)
                      if self.cache is not None else None)
            if cached is not None:
                self.events.record(
                    "cache_hit", key, spec.describe(),
                    cycles=cached.get("result", {}).get("cycles", 0))
                outcomes[key] = JobResult(spec, "cache_hit", cached)
            else:
                misses.append(spec)

        if misses:
            self._run_misses(misses, outcomes)

        results = [outcomes[spec.job_key()] for spec in specs]
        if self.cache is not None:
            # Dedup observability: the cache's lifetime lookup counters
            # (how many submissions collapsed onto existing records).
            self.events.record("cache_stats", "", "result cache",
                               **self.cache.counters)
        return BatchResult(results=results, events=self.events,
                           wall_s=time.perf_counter() - t0)

    # ------------------------------------------------------- checkpoints

    @property
    def _checkpointing(self) -> bool:
        return bool(self.checkpoint_dir) and self.checkpoint_every > 0

    def _payload(self, spec: JobSpec) -> Dict[str, Any]:
        """The run_fn argument: the spec dict, plus (out-of-band, never
        hashed into the job key) the checkpoint routing config."""
        payload = spec.to_dict()
        if self._checkpointing:
            payload["_checkpoint"] = {
                "dir": self.checkpoint_dir,
                "every": self.checkpoint_every,
                "resume": True,
            }
        return payload

    # -------------------------------------------------------- quarantine

    @staticmethod
    def _family(spec: JobSpec) -> str:
        """The quarantine granularity: one workload on one
        configuration. Seeds and overrides share a family — if the
        combination is deterministically broken, every seed will be."""
        return f"{spec.workload}/{spec.config_label}"

    def _note_failure(self, spec: JobSpec, kind: str) -> None:
        if kind in DETERMINISTIC_KINDS:
            self._family_failures[self._family(spec)] += 1

    def _quarantined(self, spec: JobSpec) -> bool:
        return bool(self.quarantine_after) and (
            self._family_failures[self._family(spec)]
            >= self.quarantine_after)

    def _refuse_quarantined(self, spec: JobSpec,
                            outcomes: Dict[str, JobResult]) -> None:
        key = spec.job_key()
        family = self._family(spec)
        error = (f"family {family} quarantined after "
                 f"{self._family_failures[family]} deterministic "
                 f"failure(s)")
        self.events.record("quarantined", key, spec.describe(),
                           failure_kind="quarantined", family=family)
        outcomes[key] = JobResult(spec, "quarantined", error=error,
                                  kind="quarantined")

    # ------------------------------------------------------ the one loop

    def _executor(self) -> Union[ProcessPoolExecutor, "_InlineExecutor"]:
        if self.jobs == 1:
            return _InlineExecutor()
        return ProcessPoolExecutor(max_workers=self.jobs)

    def _run_misses(self, specs: List[JobSpec],
                    outcomes: Dict[str, JobResult]) -> None:
        pending: List[_Pending] = [(spec, 1, 0.0) for spec in specs]
        inflight: Dict[Future, Tuple[JobSpec, int, Optional[float]]] = {}
        #: Timed-out futures whose worker is still busy: each holds its
        #: pool slot until it really finishes.
        abandoned: List[Future] = []
        executor = self._executor()
        try:
            while pending or inflight:
                now = time.monotonic()
                abandoned = [f for f in abandoned if not f.done()]
                # Submit every ready entry into free slots.
                ready = [p for p in pending if p[2] <= now]
                while ready and len(inflight) + len(abandoned) < self.jobs:
                    entry = ready.pop(0)
                    pending.remove(entry)
                    spec, attempt, _ = entry
                    if self._quarantined(spec):
                        self._refuse_quarantined(spec, outcomes)
                        continue
                    key = spec.job_key()
                    self.events.record("started", key, spec.describe(),
                                       attempt=attempt)
                    deadline = (time.monotonic() + self.timeout
                                if self.timeout is not None else None)
                    future = executor.submit(self.run_fn,
                                             self._payload(spec))
                    inflight[future] = (spec, attempt, deadline)
                if not inflight:
                    # Everything pending (if anything is left after
                    # quarantine) is backing off or waiting for an
                    # abandoned job's slot; sleep to the earliest
                    # not-before point.
                    if pending:
                        time.sleep(max(_POLL_S,
                                       min(p[2] for p in pending) - now))
                    continue
                futures_wait(set(inflight), timeout=_POLL_S,
                             return_when=FIRST_COMPLETED)
                now = time.monotonic()
                broken = False
                for future, (spec, attempt, deadline) in list(
                        inflight.items()):
                    late = deadline is not None and now > deadline
                    if not (late or future.done()):
                        continue
                    del inflight[future]
                    error = future.exception() if future.done() else None
                    broken |= isinstance(error, BrokenProcessPool)
                    if late:
                        if not future.cancel():
                            abandoned.append(future)
                        self._timed_out(spec, attempt, pending, outcomes)
                    elif error is None:
                        self._finish(spec, future.result(), attempt,
                                     outcomes)
                    elif isinstance(error, BrokenProcessPool):
                        self._retry_or_fail(spec, attempt,
                                            "worker process crashed",
                                            pending, outcomes,
                                            kind="crash")
                    else:
                        kind = classify_failure(error)
                        self._retry_or_fail(
                            spec, attempt, str(error), pending, outcomes,
                            retryable=is_retryable(error, kind),
                            kind=kind)
                if broken:
                    # The pool is dead: every other in-flight job is
                    # collateral damage — requeue each at the cost of
                    # one attempt, then rebuild the pool.
                    for future, (spec, attempt, _) in inflight.items():
                        self._retry_or_fail(spec, attempt,
                                            "worker pool broke mid-job",
                                            pending, outcomes,
                                            kind="crash")
                    inflight.clear()
                    abandoned.clear()
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = self._executor()
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    def _timed_out(self, spec: JobSpec, attempt: int,
                   pending: List[_Pending],
                   outcomes: Dict[str, JobResult]) -> None:
        """Without checkpointing a wall-clock timeout is terminal (the
        simulator is deterministic — a rerun from scratch would time out
        at the same point); with it, the attempt left durable
        checkpoints behind, so a retry *resumes* past where this attempt
        got and is genuine forward progress."""
        if self._checkpointing:
            self._retry_or_fail(
                spec, attempt,
                f"exceeded {self.timeout}s "
                f"(next attempt resumes from checkpoint)",
                pending, outcomes, kind="timeout")
            return
        key = spec.job_key()
        self.events.record("timeout", key, spec.describe(),
                           failure_kind="timeout", timeout_s=self.timeout)
        self._note_failure(spec, "timeout")
        outcomes[key] = JobResult(spec, "timeout", attempts=attempt,
                                  kind="timeout",
                                  error=f"exceeded {self.timeout}s")

    # ----------------------------------------------------------- shared

    def _finish(self, spec: JobSpec, record: Dict[str, Any], attempt: int,
                outcomes: Dict[str, JobResult]) -> None:
        key = spec.job_key()
        resumed_from = record.get("meta", {}).get("resumed_from")
        self.events.record(
            "finished", key, spec.describe(), attempt=attempt,
            cycles=record.get("result", {}).get("cycles", 0),
            wall_s=record.get("meta", {}).get("wall_s", 0.0),
            **({"resumed_from": resumed_from}
               if resumed_from is not None else {}))
        if self.cache is not None:
            self.cache.put(spec, record)
        outcomes[key] = JobResult(spec, "finished", record,
                                  attempts=attempt,
                                  resumed_from=resumed_from)

    def _retry_or_fail(self, spec: JobSpec, attempt: int, error: str,
                       pending: List[_Pending],
                       outcomes: Dict[str, JobResult],
                       retryable: bool = True,
                       kind: str = "error") -> None:
        key = spec.job_key()
        if retryable and attempt <= self.retries:
            self.events.record("retried", key, spec.describe(),
                               attempt=attempt, error=error)
            not_before = (time.monotonic()
                          + self.backoff_s * 2 ** (attempt - 1))
            pending.append((spec, attempt + 1, not_before))
        else:
            self.events.record("failed", key, spec.describe(),
                               attempt=attempt, failure_kind=kind,
                               error=error)
            self._note_failure(spec, kind)
            outcomes[key] = JobResult(spec, "failed", error=error,
                                      attempts=attempt, kind=kind)


class _InlineExecutor:
    """The ``jobs == 1`` executor: ``submit`` runs the job in-process
    and returns an already-completed future."""

    def submit(self, fn: RunFn, payload: Dict[str, Any]) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(payload))
        except Exception as exc:  # noqa: BLE001 — job isolation
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True,
                 cancel_futures: bool = False) -> None:
        pass


def run_batch(specs: Sequence[JobSpec], jobs: int = 1,
              cache_dir: Optional[str] = None, **kwargs: Any) -> BatchResult:
    """One-call convenience wrapper around :class:`Orchestrator`."""
    return Orchestrator(jobs=jobs, cache=cache_dir, **kwargs).run(specs)
