"""Deterministic re-execution checkpoints.

A checkpoint of this simulator is **not** a serialized heap — simulated
threads are generator continuations, which cannot be pickled. It is the
pair that, for a deterministic machine, is provably equivalent:

* the **replay recipe** — the content-addressed
  :class:`~repro.orchestrate.jobspec.JobSpec` (plus the fault plan, if
  one was attached) that rebuilds the machine bit-identically;
* a **cycle boundary** ``C`` and the full canonical **state capture**
  (with its SHA-256 fingerprint) of the machine after every event
  before ``C`` has executed and none at-or-after it.

Restoring means rebuilding the machine from the recipe and
fast-forwarding — re-executing history up to the boundary — then
*verifying* the capture matches the checkpoint. The verification is the
point: a restore is only declared valid when the machine provably
reached the exact recorded state, so code drift, a changed seed, or a
corrupted blob can never silently resume into a diverged run.

:class:`Checkpointer` drives a checkpointed run end to end: resume from
the newest valid checkpoint in a :class:`~repro.ckpt.store.CheckpointStore`,
save a checkpoint at every crossed boundary plus a final one at
completion, and — black-box-recorder style — persist the terminal
snapshot, a ring of recent boundary digests, and the structured
diagnosis when the run dies of a deadlock, livelock, or budget timeout,
so ``repro-ckpt replay`` can re-execute the approach to the hang with
telemetry and the race monitor attached.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.ckpt.state import capture_state, diff_captures, state_fingerprint
from repro.core.machine import Machine
from repro.mem.store import functional_fingerprint
from repro.orchestrate.jobspec import JobSpec, build_machine
from repro.sim.engine import (DeadlockError, LivenessError, SimulationError,
                              SimulationTimeout)

if TYPE_CHECKING:  # pragma: no cover
    from repro.ckpt.store import CheckpointStore
    from repro.obs.flight import FlightRecorder
    from repro.obs.telemetry import Telemetry
    from repro.resilience.faults import FaultPlan
    from repro.resilience.resilience import Resilience
    from repro.sim.stats import Stats

__all__ = ["Checkpoint", "CheckpointMismatchError", "Checkpointer",
           "restore_checkpoint"]

#: Format version of the checkpoint blob.
CKPT_VERSION = 1


class CheckpointMismatchError(SimulationError):
    """Re-execution did not reproduce the checkpointed state.

    ``divergence`` maps each diverging component (engine, store, stats,
    network, protocol, cores) to its digest pair — the restore's
    built-in bisection of *where* determinism broke.
    """

    def __init__(self, message: str,
                 divergence: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.divergence = divergence or {}


@dataclass
class Checkpoint:
    """One boundary snapshot: recipe + capture + fingerprints."""

    spec: Dict[str, Any]
    boundary: int
    state: Dict[str, Any]
    fingerprint: str
    functional: str
    clock: int
    events_executed: int
    plan: Optional[Dict[str, Any]] = None
    #: Whether telemetry was attached when this was captured (telemetry
    #: wraps network handlers, perturbing the full capture; restores on
    #: the other side of the divide verify functionally).
    observed: bool = False
    final: bool = False
    progress: Dict[str, int] = field(default_factory=dict)
    version: int = CKPT_VERSION

    @property
    def job_key(self) -> str:
        return JobSpec.from_dict(self.spec).job_key()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "spec": self.spec,
            "plan": self.plan,
            "boundary": self.boundary,
            "clock": self.clock,
            "events_executed": self.events_executed,
            "observed": self.observed,
            "final": self.final,
            "progress": dict(self.progress),
            "fingerprint": self.fingerprint,
            "functional": self.functional,
            "state": self.state,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Checkpoint":
        return cls(
            spec=dict(data["spec"]),
            plan=data.get("plan"),
            boundary=int(data["boundary"]),
            clock=int(data["clock"]),
            events_executed=int(data["events_executed"]),
            observed=bool(data.get("observed", False)),
            final=bool(data.get("final", False)),
            progress=dict(data.get("progress", {})),
            fingerprint=data["fingerprint"],
            functional=data["functional"],
            state=dict(data["state"]),
            version=int(data.get("version", CKPT_VERSION)),
        )

    def describe(self) -> str:
        tag = "final" if self.final else f"cycle {self.boundary}"
        return (f"{self.job_key[:12]} @ {tag} "
                f"(clock {self.clock}, {self.events_executed} events, "
                f"{self.fingerprint[:12]})")


def take_checkpoint(machine: Machine, spec: JobSpec, boundary: int,
                    plan: Optional["FaultPlan"] = None,
                    final: bool = False) -> Checkpoint:
    """Capture ``machine`` at ``boundary`` (caller guarantees every
    event before the boundary has executed and none at-or-after it)."""
    state = capture_state(machine)
    return Checkpoint(
        spec=spec.to_dict(),
        plan=plan.to_dict() if plan is not None else None,
        boundary=boundary,
        clock=machine.engine.now,
        events_executed=machine.events_executed,
        observed=machine.telemetry is not None,
        final=final,
        progress={str(k): v for k, v in machine.progress().items()},
        fingerprint=state_fingerprint(state),
        functional=functional_fingerprint(machine.store),
        state=state,
    )


def restore_checkpoint(ckpt: Checkpoint,
                       telemetry: Optional["Telemetry"] = None,
                       resilience: Optional["Resilience"] = None,
                       prepare: Optional[Callable[[Machine], None]] = None,
                       verify: str = "auto") -> Machine:
    """Rebuild + fast-forward to the checkpoint's boundary, verified.

    ``verify`` is ``"full"`` (the entire capture must match),
    ``"functional"`` (word-store digest only), ``"none"``, or ``"auto"``
    — full when neither side attached telemetry, else functional.
    Raises :class:`CheckpointMismatchError` when re-execution does not
    reproduce the recorded state.
    """
    if verify not in ("auto", "full", "functional", "none"):
        raise ValueError(f"unknown verify level: {verify!r}")
    from repro.resilience.faults import FaultPlan
    plan = FaultPlan.from_dict(ckpt.plan) if ckpt.plan else None
    machine = build_machine(JobSpec.from_dict(ckpt.spec), plan=plan,
                            telemetry=telemetry, resilience=resilience,
                            prepare=prepare)
    machine.fast_forward(ckpt.boundary)
    if verify == "auto":
        observed = ckpt.observed or telemetry is not None
        verify = "functional" if observed else "full"
    if verify == "full":
        actual = capture_state(machine)
        fingerprint = state_fingerprint(actual)
        if fingerprint != ckpt.fingerprint:
            divergence = diff_captures(ckpt.state, actual)
            raise CheckpointMismatchError(
                f"restore of {ckpt.describe()} diverged in "
                f"{', '.join(divergence) or 'fingerprint'}",
                divergence=divergence)
    elif verify == "functional":
        actual = functional_fingerprint(machine.store)
        if actual != ckpt.functional:
            raise CheckpointMismatchError(
                f"restore of {ckpt.describe()} diverged functionally "
                f"({ckpt.functional[:12]} != {actual[:12]})",
                divergence={"store": f"{ckpt.functional[:12]} != "
                                     f"{actual[:12]}"})
    return machine


class Checkpointer:
    """Drives one checkpointed (and resumable) simulation.

    ``every`` is the boundary period in cycles; ``ring`` bounds the
    in-memory flight recorder of recent boundary digests persisted on a
    failure. ``boundary_hook``, called with each crossed boundary
    *before* that boundary's checkpoint is saved, exists for crash
    testing (a SIGKILL there dies strictly between durable checkpoints).
    """

    def __init__(self, spec: JobSpec, store: "CheckpointStore",
                 every: int, plan: Optional["FaultPlan"] = None,
                 ring: int = 8,
                 telemetry: Optional["Telemetry"] = None,
                 resilience: Optional["Resilience"] = None,
                 boundary_hook: Optional[Callable[[int], None]] = None,
                 flight: Optional["FlightRecorder"] = None,
                 ) -> None:
        if every <= 0:
            raise ValueError("checkpoint period must be positive")
        self.spec = spec
        self.store = store
        self.every = every
        if plan is None and resilience is not None:
            # Adopt an attached injector's schedule so the checkpoint's
            # replay recipe records the faults it must re-execute.
            plan = resilience.config.plan
        self.plan = plan
        self.telemetry = telemetry
        self.resilience = resilience
        self.boundary_hook = boundary_hook
        #: Optional host-domain flight recorder whose snapshot joins the
        #: black-box payload (what was the *fleet* doing when this run
        #: deadlocked?).
        self.flight = flight
        self.machine: Optional[Machine] = None
        #: Boundary cycle this run resumed from, or None (fresh start).
        self.resumed_from: Optional[int] = None
        #: Light flight-recorder entries for the last ``ring`` boundaries.
        self.ring: deque = deque(maxlen=max(1, ring))
        self.saved: List[int] = []

    @property
    def job_key(self) -> str:
        return self.spec.job_key()

    # ----------------------------------------------------------- prepare

    def prepare(self, resume: bool = True) -> Machine:
        """Build the machine — restored from the newest checkpoint that
        verifies when ``resume`` is true, else from scratch. A stored
        checkpoint that fails verification is quarantined and the next
        older one is tried; corrupt blobs were already quarantined by
        the store. Falls back to a fresh build when nothing survives."""
        if self.machine is not None:
            return self.machine
        if resume:
            ckpt = self.store.latest(self.job_key)
            while ckpt is not None:
                try:
                    self.machine = restore_checkpoint(
                        ckpt, telemetry=self.telemetry,
                        resilience=self.resilience)
                    self.resumed_from = ckpt.boundary
                    self.ring.append(self._ring_entry(ckpt))
                    return self.machine
                except CheckpointMismatchError as exc:
                    self.store.quarantine_checkpoint(
                        self.job_key, ckpt.boundary, reason=str(exc))
                    ckpt = self.store.latest(self.job_key)
        self.machine = build_machine(
            self.spec, plan=self.plan, telemetry=self.telemetry,
            resilience=self.resilience)
        return self.machine

    # --------------------------------------------------------------- run

    def run(self, resume: bool = True) -> "Stats":
        """Run to completion, checkpointing at every crossed boundary
        plus a final checkpoint; on a deadlock / livelock / timeout the
        black-box payload is persisted before the error propagates."""
        machine = self.prepare(resume=resume)
        try:
            stats = machine.run(checkpoint_every=self.every,
                                on_checkpoint=self._at_boundary)
        except (DeadlockError, LivenessError, SimulationTimeout) as exc:
            self.persist_failure(exc)
            raise
        final = take_checkpoint(machine, self.spec,
                                boundary=machine.engine.now + 1,
                                plan=self.plan, final=True)
        self.store.save(final)
        self.saved.append(final.boundary)
        self.ring.append(self._ring_entry(final))
        return stats

    def _at_boundary(self, boundary: int) -> None:
        if self.boundary_hook is not None:
            self.boundary_hook(boundary)
        ckpt = take_checkpoint(self.machine, self.spec, boundary,
                               plan=self.plan)
        self.store.save(ckpt)
        self.saved.append(boundary)
        self.ring.append(self._ring_entry(ckpt))

    @staticmethod
    def _ring_entry(ckpt: Checkpoint) -> Dict[str, Any]:
        return {"boundary": ckpt.boundary, "clock": ckpt.clock,
                "events_executed": ckpt.events_executed,
                "fingerprint": ckpt.fingerprint,
                "functional": ckpt.functional,
                "progress": dict(ckpt.progress)}

    # ---------------------------------------------------------- blackbox

    def persist_failure(self, error: BaseException) -> Dict[str, Any]:
        """Black-box recorder: persist the terminal snapshot, the recent
        boundary ring, and the structured diagnosis for later replay."""
        from repro.resilience.classify import classify_failure
        machine = self.machine
        snapshot = take_checkpoint(machine, self.spec,
                                   boundary=machine.engine.now + 1,
                                   plan=self.plan)
        diagnosis = getattr(error, "diagnosis", None)
        payload = {
            "checkpoint": snapshot.to_dict(),
            "ring": list(self.ring),
            "error": {"kind": classify_failure(error),
                      "type": type(error).__name__,
                      "message": str(error)},
            "diagnosis": (diagnosis.as_dict()
                          if diagnosis is not None else None),
        }
        if self.flight is not None:
            payload["flight"] = self.flight.payload()
        self.store.save_blackbox(self.job_key, payload)
        return payload
