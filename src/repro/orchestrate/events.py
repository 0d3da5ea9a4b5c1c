"""Structured orchestration events, counters, and progress summaries.

Every scheduler decision emits one :class:`Event` — job queued, started,
finished, retried, failed, timed out, or served from cache — onto an
:class:`EventLog` that mirrors each event as a JSON line to an optional
sink file (``events.jsonl`` in the cache directory, when there is one).
The log keeps derived counters, not the events themselves, so a
long-lived service does not grow with its history. It is the
orchestrator's observability surface:

* ``counts`` — events per kind, e.g. ``{"finished": 12, "cache_hit": 7}``;
* :meth:`failure_kinds` — failures by class; :meth:`last` — the latest
  event of a kind;
* :meth:`throughput` — wall-clock time, simulated cycles executed,
  cycles/second and jobs/second;
* :meth:`summary` — the one-paragraph progress report the CLI prints.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.ioutil import AppendLog

#: Event kinds, in roughly the order a job can emit them. ``failed``,
#: ``timeout``, and ``quarantined`` events carry a ``failure_kind``
#: detail — the failure class from :mod:`repro.resilience.classify` —
#: so logs can be summarized by *why* jobs failed, not just how many.
#: ``cache_stats`` is a batch-level event carrying the result cache's
#: hit/miss/quarantine counters (dedup observability).
KINDS = ("queued", "cache_hit", "started", "finished", "retried",
         "timeout", "failed", "quarantined", "cache_stats")

#: Failure-kind events are fsynced the moment they are recorded: they
#: are exactly the lines a post-mortem needs after the process (or
#: machine) dies.
_DURABLE_KINDS = frozenset({"failed", "timeout", "quarantined"})


@dataclass
class Event:
    """One scheduler decision about one job."""

    kind: str
    job_key: str
    label: str = ""
    t_wall: float = field(default_factory=time.time)
    detail: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        # Detail first: the event's own fields must win a name clash.
        return {**self.detail,
                "kind": self.kind, "job_key": self.job_key,
                "label": self.label, "t_wall": self.t_wall}


class EventLog:
    """Append-only event stream with derived counters.

    Events are not retained: ``counts``, the failure-class histogram
    and the last event of each kind are updated in :meth:`record`, and
    the full history lives in the sink file.

    The sink is a lossy :class:`repro.ioutil.AppendLog`: every event is
    flushed as it is recorded (tailable live), and a failed append is
    counted in ``sink.dropped``, never raised. :meth:`release` closes
    the handle between batches, :meth:`close` for good.

    ``bus`` optionally mirrors every event onto a telemetry
    :class:`~repro.obs.bus.ProbeBus` as ``orchestrate.<kind>`` topics,
    making the orchestrator one more producer on the same bus the
    simulator probes feed.
    """

    def __init__(self, sink_path: Optional[str] = None,
                 verbose: bool = False, bus=None) -> None:
        self.counts: Counter = Counter()
        self._failure_kinds: Counter = Counter()
        self._last: Dict[str, Event] = {}
        self.sink_path = sink_path
        self.verbose = verbose
        self.bus = bus
        self.started_at = time.time()
        self.sim_cycles = 0          # simulated cycles actually executed
        self.cached_cycles = 0       # simulated cycles served from cache
        self.sink = AppendLog(sink_path, lossy=True) if sink_path else None

    def record(self, kind: str, job_key: str, label: str = "",
               **detail: Any) -> Event:
        event = Event(kind=kind, job_key=job_key, label=label,
                      detail=detail)
        self.counts[kind] += 1
        self._last[kind] = event
        if kind in _DURABLE_KINDS:
            self._failure_kinds[detail.get("failure_kind", "error")] += 1
        if kind == "finished":
            self.sim_cycles += int(detail.get("cycles", 0))
        elif kind == "cache_hit":
            self.cached_cycles += int(detail.get("cycles", 0))
        if self.sink is not None:
            self.sink.write([event.as_dict()],
                            durable=kind in _DURABLE_KINDS)
        if self.bus is not None:
            self.bus.emit(f"orchestrate.{kind}", _cycle=0, job_key=job_key,
                          label=label, **detail)
        if self.verbose:
            extras = " ".join(f"{k}={v}" for k, v in sorted(detail.items()))
            print(f"[orchestrate] {kind:<10} {label or job_key[:12]}"
                  f"{' ' + extras if extras else ''}")
        return event

    def release(self) -> None:
        """Close the sink handle; the next event reopens it."""
        if self.sink is not None:
            self.sink.release()

    def close(self) -> None:
        """Close the sink handle for good; safe to call twice."""
        if self.sink is not None:
            self.sink.close()

    # Derived views ------------------------------------------------------

    def last(self, kind: str) -> Optional[Event]:
        """The most recent event of ``kind``, or None if there was none."""
        return self._last.get(kind)

    def failure_kinds(self) -> Dict[str, int]:
        """Failure-class histogram over failed/timeout/quarantined
        events (from each event's ``failure_kind`` detail)."""
        return dict(self._failure_kinds)

    @property
    def simulations_executed(self) -> int:
        """Jobs that actually ran a simulation (not served from cache)."""
        return self.counts["finished"]

    @property
    def wall_s(self) -> float:
        return time.time() - self.started_at

    def throughput(self) -> Dict[str, float]:
        wall = max(self.wall_s, 1e-9)
        done = self.counts["finished"] + self.counts["cache_hit"]
        return {
            "wall_s": wall,
            "jobs_done": float(done),
            "jobs_per_s": done / wall,
            "sim_cycles": float(self.sim_cycles),
            "sim_cycles_per_s": self.sim_cycles / wall,
        }

    def summary(self) -> str:
        t = self.throughput()
        c = self.counts
        lines = [
            f"jobs: {c['queued']} queued, {c['cache_hit']} from cache, "
            f"{c['finished']} simulated, {c['retried']} retried, "
            f"{c['timeout']} timed out, {c['failed']} failed, "
            f"{c['quarantined']} quarantined",
            f"wall-clock: {t['wall_s']:.2f}s "
            f"({t['jobs_per_s']:.2f} jobs/s)",
            f"simulated cycles: {self.sim_cycles:,} "
            f"({t['sim_cycles_per_s']:,.0f} cycles/s; "
            f"{self.cached_cycles:,} more served from cache)",
        ]
        kinds = self.failure_kinds()
        if kinds:
            what = ", ".join(f"{v} {k}" for k, v in sorted(kinds.items()))
            lines.append(f"failure classes: {what}")
        return "\n".join(lines)
