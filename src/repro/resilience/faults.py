"""Deterministic, content-addressed fault schedules.

A :class:`FaultPlan` is the *complete*, self-contained description of one
fault-injection experiment: the run it targets (configuration label,
workload spec + params, seed — the same identity fields as an
orchestrator :class:`~repro.orchestrate.jobspec.JobSpec`) plus a list of
:class:`Fault` records, each pinned to an absolute cycle with all of its
random choices pre-drawn. Two consequences:

* **Determinism.** Nothing about a fault is decided at injection time
  beyond mapping pre-drawn selector integers onto the machine's state at
  that cycle — and the simulator itself is deterministic, so replaying a
  plan reproduces the exact same disrupted execution, bit for bit.
* **Content addressing.** :meth:`FaultPlan.plan_key` is a SHA-256 over
  the canonical JSON form, so a failing schedule can be stored, shared,
  and replayed *by hash* (``repro-resilience replay <hash>``), exactly
  like orchestrator job records.

The fault taxonomy targets the disruptions the paper argues are harmless
(Sections 2.3.1 and 2.4) plus the timing perturbations where wakeup
races would hide:

``cb_evict``
    Force-evict one resident callback-directory entry (random bank,
    random entry) — pending callbacks are answered with the current
    value, the "evict at any time" property.
``wakeup_delay``
    Add latency to every WAKEUP delivery inside a cycle window (a slow
    or congested NoC path between the directory and a parked core).
``wakeup_dup``
    Duplicate WAKEUP messages inside a window (the copies cross the
    network and are dropped at the receiver).
``backoff_perturb``
    Jitter exponential back-off timers inside a window (clock skew
    between spinning cores).
``l1_drop``
    Silently drop one clean L1 line of a random core (a transient
    self-invalidation; only meaningful for VIPS-based protocols).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.ioutil import ContentAddressedPlan


class FaultKind(enum.Enum):
    """The injectable disruptions."""

    CB_EVICT = "cb_evict"
    WAKEUP_DELAY = "wakeup_delay"
    WAKEUP_DUP = "wakeup_dup"
    BACKOFF_PERTURB = "backoff_perturb"
    L1_DROP = "l1_drop"


#: Kinds that apply a window of cycles rather than a single instant.
WINDOWED_KINDS = (FaultKind.WAKEUP_DELAY, FaultKind.WAKEUP_DUP,
                  FaultKind.BACKOFF_PERTURB)

#: Kinds that only make sense on a callback-directory protocol.
CALLBACK_ONLY_KINDS = (FaultKind.CB_EVICT, FaultKind.WAKEUP_DELAY,
                       FaultKind.WAKEUP_DUP)


@dataclass(frozen=True)
class Fault:
    """One scheduled disruption.

    ``cycle`` is the absolute injection cycle. ``duration`` extends
    windowed kinds (delay/dup/perturb) to ``[cycle, cycle + duration)``.
    ``selector`` is a pre-drawn random integer mapped onto runtime state
    (which bank / which entry / which core) with a modulo, and
    ``magnitude`` is the kind-specific strength: extra wakeup latency in
    cycles, number of duplicates, or back-off jitter (may be negative).
    """

    kind: FaultKind
    cycle: int
    duration: int = 0
    selector: int = 0
    magnitude: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind.value, "cycle": self.cycle,
                "duration": self.duration, "selector": self.selector,
                "magnitude": self.magnitude}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Fault":
        return cls(kind=FaultKind(data["kind"]), cycle=int(data["cycle"]),
                   duration=int(data.get("duration", 0)),
                   selector=int(data.get("selector", 0)),
                   magnitude=int(data.get("magnitude", 0)))


@dataclass
class FaultPlan(ContentAddressedPlan):
    """A self-contained, replayable fault schedule for one simulation.

    Keyed, saved and loaded by :class:`~repro.ioutil.ContentAddressedPlan`.
    """

    config_label: str
    workload: str
    workload_params: Dict[str, Any] = field(default_factory=dict)
    config_overrides: Dict[str, Any] = field(default_factory=dict)
    seed: int = 1
    #: The RNG seed the schedule was drawn from (for provenance only —
    #: the drawn faults below are what actually replays).
    fault_seed: int = 0
    faults: List[Fault] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.faults = sorted(self.faults, key=lambda f: (f.cycle, f.kind.value,
                                                         f.selector))

    def __len__(self) -> int:
        return len(self.faults)

    def kinds(self) -> List[str]:
        return sorted({fault.kind.value for fault in self.faults})

    # ------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config_label": self.config_label,
            "workload": self.workload,
            "workload_params": dict(self.workload_params),
            "config_overrides": dict(self.config_overrides),
            "seed": self.seed,
            "fault_seed": self.fault_seed,
            "faults": [fault.to_dict() for fault in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            config_label=data["config_label"],
            workload=data["workload"],
            workload_params=dict(data.get("workload_params", {})),
            config_overrides=dict(data.get("config_overrides", {})),
            seed=int(data.get("seed", 1)),
            fault_seed=int(data.get("fault_seed", 0)),
            faults=[Fault.from_dict(f) for f in data.get("faults", [])],
        )

    def describe(self) -> str:
        counts: Dict[str, int] = {}
        for fault in self.faults:
            counts[fault.kind.value] = counts.get(fault.kind.value, 0) + 1
        what = ",".join(f"{k}x{v}" for k, v in sorted(counts.items())) or "empty"
        return (f"{self.workload} {self.config_label} seed={self.seed} "
                f"faults=[{what}]")

    def subset(self, faults: Sequence[Fault]) -> "FaultPlan":
        """The same run with a different fault list (for minimization)."""
        return FaultPlan(config_label=self.config_label,
                         workload=self.workload,
                         workload_params=dict(self.workload_params),
                         config_overrides=dict(self.config_overrides),
                         seed=self.seed, fault_seed=self.fault_seed,
                         faults=list(faults))


def load_plan_by_key(directory: str, key_prefix: str) -> FaultPlan:
    """Load the unique fault plan in ``directory`` whose key starts with
    ``key_prefix``."""
    return FaultPlan.load_by_key(directory, key_prefix)


#: Default magnitudes per kind: (min, max) inclusive, drawn per fault.
_MAGNITUDES = {
    FaultKind.CB_EVICT: (0, 0),
    FaultKind.WAKEUP_DELAY: (5, 60),
    FaultKind.WAKEUP_DUP: (1, 2),
    FaultKind.BACKOFF_PERTURB: (-8, 24),
    FaultKind.L1_DROP: (0, 0),
}

#: Default window length per windowed kind: (min, max) inclusive.
_DURATIONS = {
    FaultKind.WAKEUP_DELAY: (50, 400),
    FaultKind.WAKEUP_DUP: (50, 400),
    FaultKind.BACKOFF_PERTURB: (50, 400),
}


def make_fault_plan(config_label: str, workload: str,
                    workload_params: Optional[Mapping[str, Any]] = None,
                    config_overrides: Optional[Mapping[str, Any]] = None,
                    seed: int = 1, fault_seed: int = 0,
                    kinds: Sequence[FaultKind] = (FaultKind.CB_EVICT,),
                    count: int = 8, horizon: int = 20_000) -> FaultPlan:
    """Draw a seeded random fault schedule.

    ``count`` faults are drawn uniformly over cycles ``[1, horizon]``
    with kinds cycled round-robin from ``kinds`` (so every requested
    kind appears even for small counts); selectors and magnitudes are
    pre-drawn from the same ``fault_seed``-keyed RNG. The result is a
    pure function of the arguments.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if count and not kinds:
        raise ValueError("need at least one fault kind")
    rng = random.Random(0x5EED ^ fault_seed)
    faults: List[Fault] = []
    for index in range(count):
        kind = kinds[index % len(kinds)]
        lo, hi = _MAGNITUDES[kind]
        duration = 0
        if kind in _DURATIONS:
            dlo, dhi = _DURATIONS[kind]
            duration = rng.randint(dlo, dhi)
        faults.append(Fault(
            kind=kind,
            cycle=rng.randint(1, horizon),
            duration=duration,
            selector=rng.randrange(1 << 30),
            magnitude=rng.randint(lo, hi),
        ))
    return FaultPlan(config_label=config_label, workload=workload,
                     workload_params=dict(workload_params or {}),
                     config_overrides=dict(config_overrides or {}),
                     seed=seed, fault_seed=fault_seed, faults=faults)
