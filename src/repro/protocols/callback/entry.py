"""Callback directory entry: per-core F/E + CB bits and the A/O mode bit.

The semantics follow Section 2 of the paper:

* On allocation (and after any replacement) an entry starts with **all F/E
  bits full and all CB bits clear** — the known re-initialization state
  that makes the directory self-contained (Section 2.3.1).
* In **All** mode the F/E bits act individually: a read consumes its own
  core's F/E bit; a write (st_cbA) wakes every waiter and fills the F/E
  bits of the cores that did *not* have a callback.
* In **One** mode (entered by st_cb1/st_cb0) the F/E bits act in unison
  (all ones or all zeroes): a read consumes only if all are full, clearing
  all of them; st_cb1 wakes exactly one waiter leaving F/E undisturbed;
  st_cb0 wakes nobody and leaves F/E empty.

The bit-vector semantics themselves live in the declarative
:data:`~repro.protocols.callback.table.CALLBACK_ENTRY_TABLE`; this class
is the stateful wrapper the live simulator uses. Every state change goes
through a table step, so the FSM the model checker explores is — by
construction — the FSM the simulator executes. A mutant table can be
injected (``table=`` argument) to replay checker counterexamples against
seeded-bad semantics.

Waiters are stored per core with an opaque ``wake(value)`` closure: the
protocol supplies a closure that either sends a Wakeup message to the core
(plain ``ld_cb``) or executes the parked RMW at the LLC (Section 2.6).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.config import WakePolicy
from repro.protocols.callback.table import CALLBACK_ENTRY_TABLE, callback_cores
from repro.protocols.table import (Event, PerCore, State, StepResult,
                                   TransitionTable)

_CONSUME = PerCore(Event, "consume")
_PARK = PerCore(Event, "park")
_WRITE_ALL = Event("write_all")
_WRITE_ZERO = Event("write_zero")
_EVICT = Event("evict")


def _field(key: str) -> Any:
    """A read-only view of one field of an entry's table state."""
    return property(lambda entry: entry.state[key])


class Waiter:
    """One parked callback read.

    ``word`` is filled in by :meth:`CBEntry.park` so that a waiter detached
    by an eviction still knows which word's current value to receive.
    """

    __slots__ = ("core", "wake", "since", "word")

    def __init__(self, core: int, wake: Callable[[int], None], since: int) -> None:
        self.core = core
        self.wake = wake
        self.since = since
        self.word: int = -1


class CBEntry:
    """F/E + CB bit vectors for one word address: the table's state."""

    __slots__ = ("word", "num_cores", "state", "waiters", "table",
                 "last_step")

    def __init__(self, word: int, num_cores: int,
                 table: Optional[TransitionTable] = None) -> None:
        self.word = word
        self.num_cores = num_cores
        self.table = table if table is not None else CALLBACK_ENTRY_TABLE
        self.waiters: Dict[int, Waiter] = {}
        self.last_step: Optional[StepResult] = None
        self.state: State = self.table.initial(num_cores)

    # ----------------------------------------------------------- table glue

    fe = _field("fe")
    cb = _field("cb")
    mode_all = _field("mode_all")
    rr_ptr = _field("rr")
    arrival = _field("arrival")  # parked cores, FIFO order

    def _step(self, event: Event) -> StepResult:
        result = self.table.step(self.state, event)
        self.state = result.state
        # Exposed for the model-checker replay harness, which inspects
        # the emits (e.g. a mutant table emitting ``free`` on a write).
        self.last_step = result
        return result

    def _pop_woken(self, result: StepResult) -> List[Waiter]:
        """Waiter objects for the wake emits, in emit order. A mutant
        table may emit wakes for cores it never parked (or drop parked
        cores); only cores actually present in the waiter map are popped,
        so seeded-bad semantics manifest concretely as lost waiters."""
        return [self.waiters.pop(emit.core) for emit in result.emits
                if emit.kind == "wake" and emit.core in self.waiters]

    # ----------------------------------------------------------- bit helpers

    @property
    def full_mask(self) -> int:
        return (1 << self.num_cores) - 1

    def fe_full(self, core: int) -> bool:
        return bool(self.fe & (1 << core))

    def has_callbacks(self) -> bool:
        return bool(self.state["cb"])

    def callback_cores(self) -> List[int]:
        return callback_cores(self.cb, self.num_cores)

    # -------------------------------------------------------------- consume

    def try_consume(self, core: int) -> bool:
        """A read attempts to consume the value; True if F/E permitted it.

        All mode: the core's own bit. One mode: all bits act in unison.
        """
        result = self._step(_CONSUME[core])
        return result.transition.name == "consume_hit"

    # ---------------------------------------------------------------- park

    def park(self, waiter: Waiter) -> None:
        if waiter.core in self.waiters:
            raise RuntimeError(
                f"core {waiter.core} already has a callback on {self.word:#x}"
            )
        self._step(_PARK[waiter.core])
        waiter.word = self.word
        self.waiters[waiter.core] = waiter

    # --------------------------------------------------------------- writes

    def write_all(self) -> List[Waiter]:
        """st_cbA / st_through: wake everybody; cores without a callback get
        their F/E bit set full. Resets the A/O bit to All."""
        return self._pop_woken(self._step(_WRITE_ALL))

    def write_one(self, policy: WakePolicy,
                  rng_next: Callable[[int], int]) -> Optional[Waiter]:
        """st_cb1: One mode; wake a single waiter (F/E undisturbed), or, if
        nobody waits, make the value consumable once (all F/E full)."""
        pick = 0
        if policy is WakePolicy.RANDOM and self.state["cb"]:
            # Draw from the caller's RNG stream exactly when the legacy
            # imperative code did, preserving seeded-run bit parity.
            pick = rng_next(len(self.callback_cores()))
        result = self._step(Event("write_one",
                                  payload={"policy": policy, "pick": pick}))
        woken = self._pop_woken(result)
        return woken[0] if woken else None

    def write_zero(self) -> None:
        """st_cb0: One mode; wake nobody; the value is not consumable."""
        self._step(_WRITE_ZERO)

    # ----------------------------------------------------------- checkpoint

    def ckpt_state(self) -> Dict[str, object]:
        """F/E + CB vectors, A/O mode, round-robin pointer, and the
        parked waiters (checkpoint capture). Waiter ``wake`` closures are
        opaque; their observable identity is (core, since, word), which
        deterministic re-execution reproduces exactly."""
        return {"word": self.word, "fe": self.fe, "cb": self.cb,
                "mode_all": self.mode_all, "rr_ptr": self.rr_ptr,
                "arrival": list(self.arrival),
                "waiters": [[w.core, w.since, w.word]
                            for _c, w in sorted(self.waiters.items())]}

    # ------------------------------------------------------------- eviction

    def evict(self) -> List[Waiter]:
        """Replacement: answer every pending callback with the current
        value; all bits are lost (the entry object is discarded)."""
        return self._pop_woken(self._step(_EVICT))
