"""Content-addressed host-fault plans.

The same discipline as :class:`repro.resilience.faults.FaultPlan`
(which injects faults *inside* the simulated machine), lifted to the
host plane: every fault a chaos run will inject — which IO site, which
HTTP endpoint, on which hit, with what magnitude — is **pre-drawn**
from a seeded RNG into an explicit :class:`ChaosPlan`, and the plan's
canonical JSON is SHA-256'd into its ``plan_key``. Two campaigns with
the same plan key injected the same faults; a failing campaign is
reproduced by replaying its manifest's plan, not by guessing at
timing. The empty plan is the control: a run under an installed shim
with zero faults must be bit-identical to an unshimmed run.
"""

from __future__ import annotations

import fnmatch
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.iohooks import (SITE_DIR_FSYNC, SITE_JOURNAL_FSYNC,
                           SITE_JOURNAL_WRITE, SITE_READ, SITE_TMP_FSYNC,
                           SITE_TMP_WRITE)
from repro.ioutil import ContentAddressedPlan

__all__ = ["HostFault", "ChaosPlan", "FaultMatcher", "make_chaos_plan",
           "IO_KINDS", "HTTP_KINDS"]

# Host-IO fault kinds (dispatched by FaultyIO against iohooks sites).
WRITE_ENOSPC = "write_enospc"    # the write itself fails: disk full
FSYNC_ENOSPC = "fsync_enospc"    # data written, durability refused
FSYNC_SLOW = "fsync_slow"        # fsync stalls magnitude milliseconds
TORN_WRITE = "torn_write"        # only a byte prefix reaches the file
READ_EIO = "read_eio"            # artifact read fails with EIO

IO_KINDS = (WRITE_ENOSPC, FSYNC_ENOSPC, FSYNC_SLOW, TORN_WRITE, READ_EIO)

# HTTP fault kinds (dispatched by ChaosTransport against "METHOD /path"
# keys).
HTTP_DROP = "http_drop"                   # connection refused/reset
HTTP_DELAY = "http_delay"                 # magnitude-ms stall, then ok
HTTP_ERROR = "http_error"                 # a 503 burst with Retry-After
HTTP_TRUNCATE = "http_truncate"           # response body cut short
HTTP_DROP_RESPONSE = "http_drop_response"  # request lands, reply lost

HTTP_KINDS = (HTTP_DROP, HTTP_DELAY, HTTP_ERROR, HTTP_TRUNCATE,
              HTTP_DROP_RESPONSE)


@dataclass(frozen=True)
class HostFault:
    """One planned fault.

    ``site`` is an ``fnmatch`` pattern over either iohooks site names
    (``journal.append.fsync``, ``ioutil.*``) or HTTP keys
    (``POST /v1/jobs``, ``GET /v1/*``). The fault fires on hits
    ``nth .. nth+count-1`` of matching sites (1-based), so a "burst" is
    one fault with ``count > 1``. ``magnitude`` is kind-specific: torn
    byte offset, delay in milliseconds, truncation offset.
    """

    kind: str
    site: str
    nth: int = 1
    count: int = 1
    magnitude: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "site": self.site, "nth": self.nth,
                "count": self.count, "magnitude": self.magnitude}

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "HostFault":
        return HostFault(kind=str(doc["kind"]), site=str(doc["site"]),
                         nth=int(doc.get("nth", 1)),
                         count=int(doc.get("count", 1)),
                         magnitude=int(doc.get("magnitude", 0)))

    def describe(self) -> str:
        window = (f"hit {self.nth}" if self.count == 1
                  else f"hits {self.nth}..{self.nth + self.count - 1}")
        mag = f" mag={self.magnitude}" if self.magnitude else ""
        return f"{self.kind} @ {self.site} ({window}){mag}"


@dataclass
class ChaosPlan(ContentAddressedPlan):
    """A complete, content-addressed host-fault schedule.

    Keyed, saved and loaded by :class:`~repro.ioutil.ContentAddressedPlan`
    (a campaign manifest loads as its plan).
    """

    label: str = ""
    seed: int = 0
    faults: List[HostFault] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Canonical order: the plan key must not depend on draw order.
        self.faults = sorted(self.faults,
                             key=lambda f: (f.site, f.nth, f.kind,
                                            f.count, f.magnitude))

    def io_faults(self) -> List[HostFault]:
        return [f for f in self.faults if f.kind in IO_KINDS]

    def http_faults(self) -> List[HostFault]:
        return [f for f in self.faults if f.kind in HTTP_KINDS]

    def to_dict(self) -> Dict[str, Any]:
        return {"label": self.label, "seed": self.seed,
                "faults": [f.to_dict() for f in self.faults]}

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "ChaosPlan":
        return ChaosPlan(
            label=str(doc.get("label", "")),
            seed=int(doc.get("seed", 0)),
            faults=[HostFault.from_dict(f)
                    for f in doc.get("faults", [])])

    def describe(self) -> str:
        head = (f"chaos plan {self.plan_key()[:12]} "
                f"({self.label or 'unlabeled'}, seed {self.seed}, "
                f"{len(self.faults)} fault(s))")
        return "\n".join([head] + [f"  - {f.describe()}"
                                   for f in self.faults])


class FaultMatcher:
    """Streams site hits against a plan's faults.

    Each call to :meth:`active` bumps the per-pattern hit counters and
    returns the faults whose window covers this hit. Pure bookkeeping —
    no RNG at match time; every decision was drawn when the plan was
    made."""

    def __init__(self, faults: List[HostFault]) -> None:
        self.faults = list(faults)
        self._seen: Dict[str, int] = {}

    def active(self, key: str) -> List[HostFault]:
        hits: List[HostFault] = []
        for fault in self.faults:
            if not fnmatch.fnmatchcase(key, fault.site):
                continue
            counter_key = f"{fault.site}|{fault.kind}|{fault.nth}"
            n = self._seen.get(counter_key, 0) + 1
            self._seen[counter_key] = n
            if fault.nth <= n < fault.nth + fault.count:
                hits.append(fault)
        return hits


# Pattern catalogs make_chaos_plan draws from, per kind: a fault only
# targets sites where its syscall class actually occurs.
_IO_SITE_CHOICES: Dict[str, List[str]] = {
    WRITE_ENOSPC: [SITE_JOURNAL_WRITE, SITE_TMP_WRITE],
    FSYNC_ENOSPC: [SITE_JOURNAL_FSYNC, SITE_TMP_FSYNC, SITE_DIR_FSYNC],
    FSYNC_SLOW: [SITE_JOURNAL_FSYNC, SITE_TMP_FSYNC],
    TORN_WRITE: [SITE_JOURNAL_WRITE],
    READ_EIO: [SITE_READ],
}

_HTTP_KEY_CHOICES: List[str] = [
    "POST /v1/jobs",
    "POST /v1/sweeps",
    "POST /v1/worker/lease",
    "POST /v1/worker/heartbeat",
    "POST /v1/worker/commit",
    "GET /v1/status",
    "GET /v1/*",
]


def make_chaos_plan(seed: int = 0, io_faults: int = 4,
                    http_faults: int = 4, horizon: int = 40,
                    label: str = "") -> ChaosPlan:
    """Draw a plan: ``io_faults`` host-IO faults and ``http_faults``
    wire faults, hit indices uniform in ``1..horizon``. Same seed,
    same plan — and therefore the same plan key."""
    rng = random.Random(0xCA05 ^ seed)
    faults: List[HostFault] = []
    for _ in range(io_faults):
        kind = rng.choice(IO_KINDS)
        site = rng.choice(_IO_SITE_CHOICES[kind])
        magnitude = 0
        if kind == TORN_WRITE:
            magnitude = rng.randrange(1, 512)
        elif kind == FSYNC_SLOW:
            magnitude = rng.randrange(5, 80)
        faults.append(HostFault(kind=kind, site=site,
                                nth=rng.randrange(1, horizon + 1),
                                count=rng.randrange(1, 3),
                                magnitude=magnitude))
    for _ in range(http_faults):
        kind = rng.choice(HTTP_KINDS)
        key = rng.choice(_HTTP_KEY_CHOICES)
        magnitude = 0
        if kind == HTTP_DELAY:
            magnitude = rng.randrange(5, 120)
        elif kind == HTTP_TRUNCATE:
            magnitude = rng.randrange(1, 64)
        faults.append(HostFault(kind=kind, site=key,
                                nth=rng.randrange(1, horizon + 1),
                                count=rng.randrange(1, 4),
                                magnitude=magnitude))
    return ChaosPlan(label=label, seed=seed, faults=faults)
