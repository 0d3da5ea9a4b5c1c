"""The service workload: closed-loop submit -> commit through repro.serve.

One in-process :class:`~repro.serve.ServeService` over a fresh root with
default :class:`~repro.serve.JobQueue` settings, one ``spawn_worker``
subprocess, and one client that submits a tiny unique JobSpec (~3 ms of
simulation) and waits for it to reach ``done`` before sending the next.
Every 4th submission repeats an already-committed spec, which the queue
answers at ingest from its result cache.

A submission fails if it does not reach ``done`` or if its committed
``cycles`` differ from a direct in-process ``run_workload`` of the same
spec. The worker is killed and the root removed on every exit path.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import tempfile
import time
from typing import Any, Dict, List, Optional

from repro.ckpt import CheckpointStore
from repro.config import config_for
from repro.harness.runner import run_workload
from repro.obs.tracectx import HostSpanLog
from repro.orchestrate.jobspec import JobSpec
from repro.orchestrate.registry import build_workload
from repro.serve import JobQueue, ServeClient, ServeService, spawn_worker

from sims import SETUP_TRIALS, nearest_rank, ratio
from tracer import Tracer

TENANT = "bench"
#: Every REPEAT_EVERY-th submission repeats a committed spec.
REPEAT_EVERY = 4
#: Submissions per workload unit: ``wall_s`` is seconds per this many.
UNIT = 100
#: Longest a single submission may take before it counts as failed.
JOB_TIMEOUT_S = 30.0

_TERMINAL = ("done", "failed", "cancelled")


def job_spec(seed: int, index: int) -> Dict[str, Any]:
    """The ``index``-th unique spec of a run seeded with ``seed``."""
    return JobSpec(config_label="CB-All", workload="lock",
                   workload_params={"lock_name": "ttas", "iterations": 2},
                   config_overrides={"num_cores": 4},
                   seed=seed * 1_000_003 + index).to_dict()


class ServeEnv:
    """Service + one worker subprocess over a temp root, torn down by
    :meth:`close` (idempotent; call it from ``finally``)."""

    def __init__(self, work_dir: str) -> None:
        os.makedirs(work_dir, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="serve-", dir=work_dir)
        self.queue: Optional[JobQueue] = None
        self.service: Optional[ServeService] = None
        self.worker = None
        try:
            self.queue = JobQueue(self.root)
            self.service = ServeService(self.queue).start()
            self.client = ServeClient(self.service.url)
            self.worker = spawn_worker(self.service.url, index=0,
                                       exit_on_drain=True)
        except BaseException:
            self.close()
            raise
        self.events_offset = 0

    def submit_and_wait(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Submit ``spec`` and block until its submission is terminal
        (or :data:`JOB_TIMEOUT_S` passes); returns the last view."""
        view = self.client.submit(TENANT, spec)
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while view["state"] not in _TERMINAL:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            # Park on the job's event stream; any event is a cue to
            # re-check the submission.
            _, self.events_offset = self.client.events(
                offset=self.events_offset, job=view["job_key"],
                wait_s=min(remaining, 2.0))
            view = self.client.submission(view["submission_id"])
        return view

    def close(self) -> None:
        if self.worker is not None:
            try:
                # Draining appends a queue event, which wakes the idle
                # worker's long-poll; it then exits on its own.
                if self.worker.poll() is None and self.service is not None:
                    self.queue.drain(True)
                    self.worker.wait(timeout=5)
            except Exception:  # noqa: BLE001 - the kill below still runs
                pass
            finally:
                if self.worker.poll() is None:
                    self.worker.kill()
                self.worker.wait(timeout=30)
        if self.service is not None:
            self.service.stop()
            self.service = None
        elif self.queue is not None:
            self.queue.close()
        self.queue = None
        shutil.rmtree(self.root, ignore_errors=True)


def _start(work_dir: str, seed: int, index: int) -> ServeEnv:
    """Start an environment and wait for one warm-up commit."""
    env = ServeEnv(work_dir)
    try:
        view = env.submit_and_wait(job_spec(seed, index))
        if view["state"] != "done":
            raise RuntimeError(f"warm-up submission ended {view['state']}")
    except BaseException:
        env.close()
        raise
    return env


def _closed_loop(env: ServeEnv, seed: int, seconds: float, first: int,
                 committed: List[Dict[str, Any]], rng: random.Random
                 ) -> dict:
    """Submit until ``seconds`` pass. Returns per-kind latencies, the
    fresh specs it committed, and the failures."""
    fresh_ms: List[float] = []
    repeat_ms: List[float] = []
    fresh: List[Dict[str, Any]] = []
    failures: Dict[str, str] = {}
    index = first
    count = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        count += 1
        repeat = count % REPEAT_EVERY == 0 and committed
        spec = (committed[rng.randrange(len(committed))] if repeat
                else job_spec(seed, index))
        if not repeat:
            index += 1
        t0 = time.perf_counter()
        try:
            view = env.submit_and_wait(spec)
        except OSError as exc:
            failures[f"submission {count}"] = f"{type(exc).__name__}: {exc}"
            continue
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        if view["state"] != "done":
            failures[view["submission_id"]] = f"ended {view['state']}"
            continue
        if repeat:
            repeat_ms.append(elapsed_ms)
        else:
            fresh_ms.append(elapsed_ms)
            fresh.append(spec)
            committed.append(spec)
    return {"seconds": time.perf_counter() - start, "attempted": count,
            "fresh_ms": fresh_ms, "repeat_ms": repeat_ms, "fresh": fresh,
            "failures": failures, "next_index": index}


def _verify(env: ServeEnv, specs: List[Dict[str, Any]],
            failures: Dict[str, str]) -> int:
    """Compare every committed record's cycles with a direct in-process
    run of the same spec; returns the committed cycles."""
    total = 0
    for spec_dict in specs:
        spec = JobSpec.from_dict(spec_dict)
        record = env.queue.cache.get(spec)
        if record is None:
            failures[spec.job_key()[:12]] = "no committed record"
            continue
        cycles = int(record["result"]["cycles"])
        config = config_for(spec.config_label, seed=spec.seed,
                            **spec.config_overrides)
        direct = run_workload(config, build_workload(
            spec.workload, spec.workload_params)).cycles
        if cycles != direct:
            failures[spec.job_key()[:12]] = (
                f"committed cycles {cycles} != direct run {direct}")
        total += cycles
    return total


def _host_spans_p50_ms(root: str, since: float) -> Dict[str, float]:
    spans = HostSpanLog.read(os.path.join(root, "hostspans.jsonl"))
    by_name: Dict[str, List[float]] = {}
    for span in spans:
        if span.start >= since:
            by_name.setdefault(span.name, []).append(span.duration_s * 1e3)
    return {name: statistics.median(values)
            for name, values in by_name.items()}


def run(work_dir: str, seed: int, seconds: float, trace: bool) -> dict:
    """The whole workload; see the module docstring. With ``trace`` the
    window is split: an untraced half, then a half with the host-plane
    wrappers installed, which supplies the per-layer metrics."""
    rng = random.Random(seed)
    env: Optional[ServeEnv] = None
    workers = []
    tracer: Optional[Tracer] = None
    try:
        setups = []
        for trial in range(SETUP_TRIALS):
            t0 = time.perf_counter()
            env = _start(work_dir, seed, index=trial)
            setups.append(time.perf_counter() - t0)
            workers.append(env.worker)
            if trial < SETUP_TRIALS - 1:
                env.close()
                env = None
        committed: List[Dict[str, Any]] = []
        loops = [_closed_loop(env, seed, seconds / 2 if trace else seconds,
                              SETUP_TRIALS, committed, rng)]
        if trace:
            tracer = Tracer(threaded=True)
            tracer.install_host()
            traced_since = time.time()
            loops.append(_closed_loop(env, seed, seconds / 2,
                                      loops[0]["next_index"], committed, rng))
            tracer.uninstall()
            metrics = _layer_metrics(env, tracer, loops, traced_since)
        failures: Dict[str, str] = {}
        for loop in loops:
            failures.update(loop["failures"])
        cycles = [_verify(env, loop["fresh"], failures) for loop in loops]
    finally:
        if tracer is not None:
            tracer.uninstall()
        if env is not None:
            env.close()
    survivors = [proc.pid for proc in workers if proc.poll() is None]
    if survivors:
        failures["workers"] = f"worker processes still running: {survivors}"
    if not trace:
        metrics = _end_to_end_metrics(loops[0], cycles[0], setups)
    return {"failures": failures, "metrics": metrics,
            "attempted": sum(loop["attempted"] for loop in loops)}


def _end_to_end_metrics(loop: dict, cycles: int, setups: List[float]
                        ) -> Dict[str, float]:
    done = len(loop["fresh_ms"]) + len(loop["repeat_ms"])
    return {
        "wall_s": ratio(loop["seconds"] * UNIT, done),
        "setup_s": statistics.median(setups),
        "sim_cycles_per_s": ratio(cycles, loop["seconds"]),
        "jobs_per_s": ratio(done, loop["seconds"]),
    }


def _layer_metrics(env: ServeEnv, tracer: Tracer, loops: List[dict],
                   since: float) -> Dict[str, float]:
    """Per-layer metrics of the traced (second) loop."""
    untraced, traced = loops
    self_s, calls, samples = tracer.totals()
    span_p50 = _host_spans_p50_ms(env.root, since)
    # Manifest times are rounded to the millisecond.
    saves = sum(1 for entry in
                CheckpointStore(env.queue.checkpoint_dir).manifest()
                if entry.get("event") == "saved"
                and entry.get("at", 0) >= since - 1e-3)
    metrics = {
        "serve.client.submit_ms_p50":
            nearest_rank(samples.get("client.submit", []), 50) * 1e3,
        "serve.client.poll_ms_p50":
            nearest_rank(samples.get("client.poll", []), 50) * 1e3,
        "serve.journal.append_calls": calls["serve.journal.append_calls"],
        "serve.journal.append_s": self_s.get("serve.journal.append", 0.0),
        "orchestrate.cache.put_s": self_s.get("orchestrate.cache.put", 0.0),
        "orchestrate.cache.get_s": self_s.get("orchestrate.cache.get", 0.0),
        "serve.queue_wait_ms_p50": span_p50.get("queue.wait", 0.0),
        "serve.lease_held_ms_p50": span_p50.get("lease.held", 0.0),
        "worker.attempt_ms_p50": span_p50.get("worker.attempt", 0.0),
        "worker.sim_run_ms_p50": span_p50.get("sim.run", 0.0),
        "ckpt.restore_ms_p50": span_p50.get("ckpt.restore", 0.0),
        "ckpt.saves_per_job": ratio(saves, len(traced["fresh"])),
        "serve.commit_p50_ms": nearest_rank(traced["fresh_ms"], 50),
        "serve.commit_p90_ms": nearest_rank(traced["fresh_ms"], 90),
        "serve.dedup_p50_ms": nearest_rank(traced["repeat_ms"], 50),
        "trace.wall_s": traced["seconds"],
        "trace.overhead_ratio": ratio(
            ratio(traced["seconds"], traced["attempted"]),
            ratio(untraced["seconds"], untraced["attempted"])),
    }
    for op in ("submit", "lease", "commit"):
        metrics[f"serve.queue.{op}_calls"] = calls[f"serve.queue.{op}_calls"]
        metrics[f"serve.queue.{op}_s"] = self_s.get(f"serve.queue.{op}", 0.0)
    return metrics
