"""Host-domain tracing: one ``trace_id`` from submit to simulation.

The cycle-domain telemetry (:mod:`repro.obs.spans`) sees everything
*inside* one simulation but nothing around it; the service layers grown
on top (queue, leases, workers, checkpoint resume) spend real wall-clock
that was invisible until now. This module is the host half:

* :func:`mint_trace_id` — a fresh id, minted once per *run* at queue
  ingest and threaded through journal records, lease payloads, worker
  attempts, and checkpoint resumes. Every attempt of a run — including
  the attempt after a SIGKILL — carries the same id.
* :class:`HostSpan` / :class:`TraceContext` — wall-clock spans
  (``queue.wait``, ``lease.held``, ``worker.attempt``, ``ckpt.restore``,
  ``sim.run``) recorded against a trace id.
* :class:`HostSpanLog` — an append-only JSONL sink for host spans (the
  queue's ``hostspans.jsonl``), readable per trace id.
* :func:`stitch_trace` — merges host spans with a run's cycle-domain
  Perfetto document into **one** trace: host spans land on ``host/*``
  tracks in microseconds since the trace's host epoch, cycle-domain
  events keep their cycle timestamps on their own tracks, and
  ``otherData.clock_domains`` records the per-domain units and the
  host epoch so a reader can line the two up.

The two clocks are deliberately *not* rescaled onto each other: a cycle
has no fixed wall-clock duration, and pretending otherwise would place
cycle events at fabricated host times. Separate tracks with explicit
offset metadata is the honest rendering — and Perfetto shows both side
by side.
"""

from __future__ import annotations

import os
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

# ``from repro import ioutil`` with attribute access at call time:
# repro.ioutil imports repro.obs.metrics, which loads this package.
from repro import ioutil
from repro.obs.export import chrome_trace
from repro.obs.spans import Span

__all__ = ["mint_trace_id", "HostSpan", "TraceContext", "HostSpanLog",
           "host_spans_to_spans", "stitch_trace", "HOST_SPAN_NAMES"]

#: The host-span vocabulary, in lifecycle order. Not enforced — ad-hoc
#: names render fine — but these are the names the docs and tests use.
HOST_SPAN_NAMES = ("queue.wait", "lease.held", "worker.attempt",
                   "ckpt.restore", "sim.run")


def mint_trace_id() -> str:
    """A fresh 16-hex-digit trace id (random, host-domain only — it
    never enters a content address or a parity fingerprint)."""
    return uuid.uuid4().hex[:16]


@dataclass
class HostSpan:
    """One wall-clock interval attributed to a trace.

    ``start``/``end`` are ``time.time()`` floats; ``track`` is the
    ``host/<name>`` sub-track the span renders on (``host/queue``,
    ``host/worker``, ...).
    """

    name: str
    trace_id: str
    start: float
    end: Optional[float] = None
    track: str = "host/queue"
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "trace_id": self.trace_id,
                "start": self.start, "end": self.end, "track": self.track,
                "args": self.args}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HostSpan":
        return cls(name=data["name"], trace_id=data["trace_id"],
                   start=float(data["start"]),
                   end=(None if data.get("end") is None
                        else float(data["end"])),
                   track=data.get("track", "host/queue"),
                   args=dict(data.get("args", {})))


class TraceContext:
    """Collects host spans for one trace id inside one process.

    The worker uses this around an attempt: ``worker.attempt`` wraps the
    whole execution, ``ckpt.restore`` and ``sim.run`` nest inside it.
    ``as_dicts()`` rides back to the queue on the committed record's
    ``meta.host_spans`` (meta is never part of a parity comparison).
    """

    def __init__(self, trace_id: str, track: str = "host/worker") -> None:
        self.trace_id = trace_id
        self.track = track
        self.spans: List[HostSpan] = []
        self._open: Dict[str, HostSpan] = {}

    def begin(self, name: str, **args: Any) -> HostSpan:
        span = HostSpan(name=name, trace_id=self.trace_id,
                        start=time.time(), track=self.track, args=args)
        self._open[name] = span
        self.spans.append(span)
        return span

    def end(self, name: str, **args: Any) -> Optional[HostSpan]:
        span = self._open.pop(name, None)
        if span is None:
            return None
        span.end = time.time()
        if args:
            span.args.update(args)
        return span

    def complete(self, name: str, start: float, end: float,
                 **args: Any) -> HostSpan:
        span = HostSpan(name=name, trace_id=self.trace_id, start=start,
                        end=end, track=self.track, args=args)
        self.spans.append(span)
        return span

    def close(self, **args: Any) -> None:
        """End every still-open span now (crash-adjacent cleanup)."""
        for name in list(self._open):
            self.end(name, **args)

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [span.as_dict() for span in self.spans]


class HostSpanLog:
    """Append-only JSONL log of host spans, one file per service root.

    Observability data, not a system of record: a lossy
    :class:`repro.ioutil.AppendLog`, flushed but never fsynced. A
    failed append is counted in ``sink.dropped``, never raised.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        self.sink = ioutil.AppendLog(path, lossy=True)

    def record(self, span: HostSpan) -> None:
        self.append_many([span])

    def append_many(self, spans: Iterable[HostSpan]) -> None:
        self.sink.write(span.as_dict() for span in spans)

    def close(self) -> None:
        self.sink.close()

    @staticmethod
    def read(path: str,
             trace_id: Optional[str] = None) -> List[HostSpan]:
        """All (optionally one trace's) spans at ``path``; missing file
        reads as empty, torn/damaged lines are skipped."""
        return [HostSpan.from_dict(item) for item in ioutil.read_events(path)
                if "trace_id" in item
                and (trace_id is None or item["trace_id"] == trace_id)]

    def for_trace(self, trace_id: str) -> List[HostSpan]:
        return self.read(self.path, trace_id)


# ------------------------------------------------------------- stitching

def host_spans_to_spans(host_spans: Sequence[HostSpan],
                        epoch: Optional[float] = None) -> List[Span]:
    """Host spans -> cycle-layer :class:`Span` objects on ``host/*``
    tracks, with timestamps in integer microseconds since ``epoch``
    (default: the earliest span start)."""
    if not host_spans:
        return []
    if epoch is None:
        epoch = min(span.start for span in host_spans)
    out: List[Span] = []
    for span in sorted(host_spans, key=lambda s: (s.track, s.start)):
        start_us = max(0, int(round((span.start - epoch) * 1e6)))
        end = span.end if span.end is not None else span.start
        end_us = max(start_us, int(round((end - epoch) * 1e6)))
        args = dict(span.args)
        args["trace_id"] = span.trace_id
        if span.end is None:
            args["truncated"] = True
        out.append(Span(span.name, "host", span.track, start_us, end_us,
                        args))
    return out


def stitch_trace(host_spans: Sequence[HostSpan],
                 cycle_doc: Optional[Dict[str, Any]] = None,
                 label: str = "stitched",
                 trace_id: Optional[str] = None) -> Dict[str, Any]:
    """One Perfetto document holding both clock domains.

    ``host_spans`` render on ``host/*`` tracks (µs since host epoch);
    ``cycle_doc`` — a chrome-trace document from
    :meth:`~repro.obs.telemetry.Telemetry.perfetto` or an exported
    ``trace.json`` artifact — contributes its events untouched (cycle
    timestamps on thread/core/bank/counter tracks). The merged
    ``otherData`` names each domain's unit and the host epoch, which is
    the per-run offset a reader needs to correlate the two.
    """
    if trace_id is not None:
        host_spans = [s for s in host_spans if s.trace_id == trace_id]
    epoch = (min(s.start for s in host_spans) if host_spans else 0.0)
    doc = chrome_trace(spans=host_spans_to_spans(host_spans, epoch),
                       label=label)
    events = doc["traceEvents"]
    if cycle_doc is not None:
        meta = [e for e in events if e.get("ph") == "M"]
        body = [e for e in events if e.get("ph") != "M"]
        for event in cycle_doc.get("traceEvents", ()):
            (meta if event.get("ph") == "M" else body).append(dict(event))
        # Per-track order must stay monotonic for the validator; a
        # stable sort by (ts, pid, tid) preserves it on every track
        # (host and cycle tracks never share a (pid, tid)).
        body.sort(key=lambda e: (e.get("ts", 0), e.get("pid", 0),
                                 e.get("tid", 0)))
        doc["traceEvents"] = meta + body
    doc["otherData"] = {
        "source": label,
        "trace_id": trace_id or (host_spans[0].trace_id
                                 if host_spans else None),
        "clock_domains": {
            "host": {"tracks": "host/*", "unit": "us",
                     "epoch_unix_s": epoch},
            "cycle": {"tracks": "thread/* core/* bank/* counters",
                      "unit": "cycles"},
        },
    }
    return doc
