"""repro.chaos — deterministic host-level fault injection.

PR 3's :mod:`repro.resilience` proved the paper's synchronization
machinery correct under faults *inside* the simulated machine; this
package holds the host plane — the journaled queue, the atomic-write
protocol, the HTTP fleet — to the same standard. Three instruments, all
driven by pre-drawn, content-addressed plans so every failure is
replayable:

* **fault shims** — :class:`~repro.chaos.fio.FaultyIO` injects
  ENOSPC/torn-write/EIO/slow-fsync faults at the named
  :mod:`repro.iohooks` sites; :class:`~repro.chaos.httpshim.
  ChaosTransport` drops, delays, truncates, and 5xx's the wire between
  :class:`~repro.serve.client.ServeClient` and the API. The empty plan
  is asserted bit-identical to no shim (:mod:`repro.chaos.parity`);
* **crash-point exploration** — :mod:`repro.chaos.crashpoints`
  SIGKILLs a lifecycle subprocess at every journal append/fsync/rename
  point and verifies recovery loses and duplicates nothing. The
  verifier is :func:`~repro.chaos.lifecycle.audit_queue`, the one
  zero-lost/zero-duplicate audit campaigns and the fleet drill share;
* **campaigns & drills** — :mod:`repro.chaos.campaign` runs the whole
  service under a plan and scripts the disk-full → read-only → heal →
  recover round-trip the degraded-mode runbook documents.

CLI: ``repro-chaos campaign|replay|crashpoints|drill|parity``.
"""

from repro.chaos.campaign import run_campaign, run_drill
from repro.chaos.crashpoints import enumerate_crash_points, sweep
from repro.chaos.fio import FaultyIO, KillAtSite, SiteCounter
from repro.chaos.httpshim import ChaosTransport
from repro.chaos.lifecycle import audit_queue
from repro.chaos.parity import empty_plan_parity
from repro.chaos.plan import ChaosPlan, HostFault, make_chaos_plan

__all__ = [
    "ChaosPlan",
    "ChaosTransport",
    "FaultyIO",
    "HostFault",
    "KillAtSite",
    "SiteCounter",
    "audit_queue",
    "empty_plan_parity",
    "enumerate_crash_points",
    "make_chaos_plan",
    "run_campaign",
    "run_drill",
    "sweep",
]
