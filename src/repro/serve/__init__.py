"""repro.serve — the simulation service (ROADMAP north star, item 2).

A multi-tenant front door to the reproduction: tenants submit JobSpecs
(single jobs or whole sweeps) over a stdlib JSON/REST API; a crash-safe
journaled queue dedups identical submissions onto one content-addressed
run, enforces per-tenant quotas with fair-share scheduling, and leases
runs to a fleet of worker processes with heartbeats, lease-expiry
requeue, and generation-fenced commits; killed workers' runs resume
from their newest :mod:`repro.ckpt` checkpoint; the event log and
per-run telemetry artifacts stream back out over HTTP.

Layers (each its own module):

* :mod:`repro.serve.model`   — submissions, runs, errors, views
* :mod:`repro.serve.journal` — the durable append-only op log
* :mod:`repro.serve.queue`   — state machine: dedup, quotas, leases
* :mod:`repro.serve.api`     — the threaded HTTP server
* :mod:`repro.serve.client`  — stdlib HTTP client
* :mod:`repro.serve.breaker` — the client-side circuit breaker
* :mod:`repro.serve.worker`  — the lease/execute/commit worker loop
* :mod:`repro.serve.cli`     — the ``repro-serve`` entry point

Fleet supervision (restart budgets, autoscaling, the partition drill)
lives one layer up, in :mod:`repro.fleet`.
"""

import importlib
from typing import Any

from repro.serve.api import ServeService
from repro.serve.breaker import CircuitBreaker, CircuitOpenError
from repro.serve.client import ServeClient, ServeHTTPError
from repro.serve.journal import Journal
from repro.serve.model import (HEALTH_DEGRADED, HEALTH_OK,
                               HEALTH_READ_ONLY, BacklogExceededError,
                               QuotaExceededError, Run, ServeError,
                               ServiceUnavailableError, StaleLeaseError,
                               Submission, UnknownJobError)
from repro.serve.queue import JobQueue

#: Exported lazily (PEP 562): importing the package must not import
#: ``repro.serve.worker``, or ``python -m repro.serve.worker`` — how
#: ``spawn_worker`` starts every worker — would find the module already
#: in ``sys.modules`` and run it a second time as ``__main__``.
_WORKER_EXPORTS = ("Worker", "execute_serve_job", "spawn_worker")


def __getattr__(name: str) -> Any:
    if name in _WORKER_EXPORTS:
        return getattr(importlib.import_module("repro.serve.worker"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "HEALTH_DEGRADED",
    "HEALTH_OK",
    "HEALTH_READ_ONLY",
    "BacklogExceededError",
    "CircuitBreaker",
    "CircuitOpenError",
    "JobQueue",
    "Journal",
    "QuotaExceededError",
    "Run",
    "ServeClient",
    "ServeError",
    "ServeHTTPError",
    "ServeService",
    "ServiceUnavailableError",
    "StaleLeaseError",
    "Submission",
    "UnknownJobError",
    "Worker",
    "execute_serve_job",
    "spawn_worker",
]
