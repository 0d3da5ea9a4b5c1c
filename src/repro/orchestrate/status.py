"""One status formatter for every machine-readable job view.

``repro-orchestrate inspect --json`` and the ``repro-serve`` HTTP
status endpoints both render jobs through :func:`job_status_entry`, so
the CLI view and the service view are the same document by
construction — a field added here shows up in both, and they can never
drift apart.

The entry is keyed by the spec's content address and carries the spec
itself, a human label, whether a cached record exists, and (when it
does) the headline result numbers plus ``resumed_from`` — the
checkpoint boundary the successful attempt resumed from, the service's
crash-recovery audit trail.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.ioutil import read_events
from repro.orchestrate.cache import ResultCache
from repro.orchestrate.jobspec import JobSpec

#: Event kinds that carry a ``failure_kind`` detail.
FAILURE_EVENT_KINDS = ("failed", "timeout", "quarantined")


def job_status_entry(spec: JobSpec,
                     record: Optional[Dict[str, Any]] = None,
                     **extra: Any) -> Dict[str, Any]:
    """The canonical machine-readable status of one job.

    ``extra`` lets a caller graft its own fields on (the service adds
    queue state, tenant, attempts, ...); the core shape stays shared.
    """
    entry: Dict[str, Any] = {
        "job_key": spec.job_key(),
        "label": spec.describe(),
        "spec": spec.to_dict(),
        "cached": record is not None,
    }
    if record is not None:
        result = record.get("result", {})
        entry["result"] = {
            "cycles": result.get("cycles"),
            "traffic": result.get("traffic"),
            "llc_sync": result.get("llc_sync"),
        }
        resumed = record.get("meta", {}).get("resumed_from")
        if resumed is not None:
            entry["resumed_from"] = resumed
    entry.update(extra)
    return entry


def gauge_lines(doc: Dict[str, Any]) -> List[str]:
    """Human-readable gauge lines shared by ``repro-orchestrate`` and
    ``repro-serve status`` — cache hit/miss/quarantine, per-tenant
    backlog, oldest-lease age, failure classes. Keys a caller's status
    document lacks are simply skipped, so the batch CLI and the service
    feed their native documents through the same formatter (and the two
    renderings can't drift)."""
    lines: List[str] = []
    cache = doc.get("cache") or doc.get("cache_counters") or {}
    if cache:
        lines.append(f"cache lookups: {cache.get('hit', 0)} hit, "
                     f"{cache.get('miss', 0)} miss, "
                     f"{cache.get('quarantined', 0)} quarantined")
    for tenant, stats in sorted((doc.get("tenants") or {}).items()):
        quota = stats.get("quota", 0)
        lines.append(
            f"  {tenant}: backlog {stats.get('backlog', 0)}, "
            f"{stats.get('queued', 0)} queued, "
            f"{stats.get('leased', 0)} leased, "
            f"{stats.get('done', 0)} done, "
            f"{stats.get('failed', 0)} failed "
            f"(leases {stats.get('active_leases', 0)}"
            f"/{quota if quota else 'unlimited'})")
    age = doc.get("oldest_lease_age_s")
    if age is not None:
        lines.append(f"oldest lease age: {float(age):.1f}s")
    kinds = doc.get("failure_kinds") or doc.get("failure_classes") or {}
    if kinds:
        lines.append("failure classes: " + ", ".join(
            f"{v} {k}" for k, v in sorted(kinds.items())))
    return lines


def failure_histogram(events: Sequence[Dict[str, Any]]) -> Dict[str, int]:
    """Failure-class counts over parsed event-log entries."""
    counts: Dict[str, int] = {}
    for event in events:
        if event.get("kind") in FAILURE_EVENT_KINDS:
            kind = event.get("failure_kind", "error")
            counts[kind] = counts.get(kind, 0) + 1
    return counts


def events_status(events_path: str) -> Dict[str, Any]:
    """Failure histogram + event count from a JSONL event log (torn
    tails tolerated — see :func:`repro.ioutil.tail_events`)."""
    events = read_events(events_path)
    return {"events": len(events), "failure_classes":
            failure_histogram(events)}


def batch_status(specs: Sequence[JobSpec], cache: ResultCache,
                 events_path: Optional[str] = None) -> Dict[str, Any]:
    """Machine-readable status of a saved batch against a cache."""
    jobs: List[Dict[str, Any]] = []
    done = 0
    for spec in specs:
        record = cache.get(spec)
        done += record is not None
        jobs.append(job_status_entry(spec, record))
    doc: Dict[str, Any] = {
        "total": len(jobs),
        "cached": done,
        "missing": len(jobs) - done,
        "jobs": jobs,
        "cache_counters": dict(cache.counters),
    }
    if events_path is not None:
        doc.update(events_status(events_path))
    return doc


def cache_status(cache: ResultCache,
                 events_path: Optional[str] = None) -> Dict[str, Any]:
    """Machine-readable inventory of a whole result cache."""
    jobs: List[Dict[str, Any]] = []
    for record in cache.records():
        spec = JobSpec.from_dict(record["spec"])
        jobs.append(job_status_entry(spec, record))
    doc: Dict[str, Any] = {
        "total": len(jobs),
        "jobs": jobs,
        "cache_counters": dict(cache.counters),
    }
    if events_path is not None:
        doc.update(events_status(events_path))
    return doc
