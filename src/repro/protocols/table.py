"""Declarative transition tables shared by the simulator and the checker.

A :class:`TransitionTable` is the single source of truth for one finite
state machine inside a coherence protocol: the callback-directory entry
(F/E + CB bits), the MESI directory record, the MESI L1 line, the VIPS
L1 line. Each :class:`Transition` carries a *guard* (is this edge
enabled for this state/event?) and an *apply* (the next state plus the
messages the edge emits). The live simulator executes the tables for
its state updates; ``repro.analyze.mc`` explores exactly the same
tables exhaustively — so the model checked and the model simulated can
never drift apart.

States are plain dicts whose values are hashable (ints, bools, strings,
tuples, frozensets, ``None``). :func:`freeze` converts a state into a
canonical hashable form for the checker's visited set, and
:func:`fingerprint` digests it for counterexample parity checks.

Tables register themselves via :func:`repro.protocols.base.register_table`
at import time; ``repro.analyze`` lints that every protocol has one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from types import MappingProxyType
from typing import (Any, Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

State = Dict[str, Any]
Guard = Callable[[Mapping[str, Any], "Event"], bool]
Apply = Callable[[Mapping[str, Any], "Event"], "Effect"]

#: The payload of an :class:`Event` built without one (never mutated).
_NO_PAYLOAD: Mapping[str, Any] = MappingProxyType({})

# The per-step value types below are named tuples: the simulator builds
# one Event, Effect and StepResult per table step, and a tuple is far
# cheaper to create than a frozen dataclass. They compare as tuples.


class Event(NamedTuple):
    """One stimulus delivered to an FSM: a request kind, the acting core
    (if any), and a payload of edge-specific arguments."""

    kind: str
    core: Optional[int] = None
    payload: Mapping[str, Any] = _NO_PAYLOAD

    def get(self, key: str, default: Any = None) -> Any:
        return self.payload.get(key, default)


class Emit(NamedTuple):
    """One message emitted by a transition (wakeup, invalidation, data
    grant, writeback, ...). ``core`` is the destination where relevant."""

    kind: str
    core: Optional[int] = None
    info: Tuple[Tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        for item_key, item_value in self.info:
            if item_key == key:
                return item_value
        return default


class Effect(NamedTuple):
    """The result of applying a transition: next state + emitted messages."""

    state: State
    emits: Tuple[Emit, ...] = ()


@dataclass(frozen=True)
class Transition:
    """One edge of the FSM, keyed by event kind with an explicit guard."""

    name: str
    event: str
    guard: Guard
    apply: Apply
    description: str = ""


class StepResult(NamedTuple):
    """What :meth:`TransitionTable.step` returns: which edge fired, the
    state it produced, and the messages it emitted."""

    transition: Transition
    state: State
    emits: Tuple[Emit, ...]


class StuckError(RuntimeError):
    """No transition is enabled for (state, event)."""


class AmbiguousTransitionError(RuntimeError):
    """More than one transition is enabled for (state, event); tables
    must be deterministic given the event (nondeterminism is expressed
    through event payloads, e.g. the RANDOM wake pick)."""


class TransitionTable:
    """A deterministic, declaratively-specified FSM."""

    def __init__(
        self,
        protocol: str,
        fsm: str,
        initial: Callable[..., State],
        transitions: Sequence[Transition],
        description: str = "",
    ) -> None:
        self.protocol = protocol
        self.fsm = fsm
        self._initial = initial
        self.transitions: Tuple[Transition, ...] = tuple(transitions)
        self.description = description
        self._by_event: Dict[str, Tuple[Transition, ...]] = {}
        for transition in self.transitions:
            bucket = self._by_event.get(transition.event, ())
            self._by_event[transition.event] = bucket + (transition,)

    # ------------------------------------------------------------- queries

    @property
    def name(self) -> str:
        return f"{self.protocol}/{self.fsm}"

    def initial(self, *args: Any, **kwargs: Any) -> State:
        return self._initial(*args, **kwargs)

    def event_kinds(self) -> List[str]:
        return sorted(self._by_event)

    def transition_names(self) -> List[str]:
        return [transition.name for transition in self.transitions]

    def enabled(self, state: Mapping[str, Any], event: Event) -> List[Transition]:
        return [
            transition
            for transition in self._by_event.get(event.kind, ())
            if transition.guard(state, event)
        ]

    # ------------------------------------------------------------- stepping

    def step(self, state: Mapping[str, Any], event: Event) -> StepResult:
        """Fire the unique enabled transition; raise if none or many."""
        enabled = self.enabled(state, event)
        if not enabled:
            raise StuckError(
                f"{self.name}: no transition enabled for event "
                f"{event.kind!r} in state {dict(state)!r}"
            )
        if len(enabled) > 1:
            names = [transition.name for transition in enabled]
            raise AmbiguousTransitionError(
                f"{self.name}: transitions {names} all enabled for event "
                f"{event.kind!r} in state {dict(state)!r}"
            )
        effect = enabled[0].apply(state, event)
        return StepResult(enabled[0], effect.state, effect.emits)

    def try_step(self, state: Mapping[str, Any], event: Event) -> Optional[StepResult]:
        """Like :meth:`step` but None when nothing is enabled."""
        try:
            return self.step(state, event)
        except StuckError:
            return None

    # -------------------------------------------------------- mutant support

    def replacing(self, name: str, substitute: Transition) -> "TransitionTable":
        """A copy of this table with one transition swapped out — the
        seeded-mutant mechanism used by the model-checker gate."""
        found = False
        replaced: List[Transition] = []
        for transition in self.transitions:
            if transition.name == name:
                replaced.append(substitute)
                found = True
            else:
                replaced.append(transition)
        if not found:
            raise KeyError(f"{self.name}: no transition named {name!r}")
        return TransitionTable(
            self.protocol, self.fsm, self._initial, replaced,
            description=f"{self.description} [mutant: {name}]",
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TransitionTable({self.name}, {len(self.transitions)} transitions)"


# --------------------------------------------------------------- state utils


def freeze(value: Any) -> Any:
    """Canonical hashable encoding of a state value (dicts sorted by key,
    frozensets sorted, lists/tuples element-wise)."""
    if isinstance(value, dict):
        return tuple((key, freeze(value[key])) for key in sorted(value))
    if isinstance(value, (frozenset, set)):
        return ("fs",) + tuple(sorted(value))
    if isinstance(value, (list, tuple)):
        return tuple(freeze(item) for item in value)
    return value


def _jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(key): _jsonable(value[key]) for key in sorted(value)}
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def fingerprint(state: Mapping[str, Any]) -> str:
    """Short stable digest of a state dict (counterexample parity)."""
    blob = json.dumps(_jsonable(dict(state)), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
