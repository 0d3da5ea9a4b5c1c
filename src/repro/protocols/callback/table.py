"""Declarative FSM for the callback-directory entry (Section 2).

This table is the single source of truth for the F/E + CB bit semantics:
:class:`~repro.protocols.callback.entry.CBEntry` executes it for every
state change in the live simulator, and ``repro.analyze.mc`` explores it
exhaustively. The state is the pure bit-vector core of an entry::

    {"fe": int, "cb": int, "mode_all": bool, "rr": int,
     "arrival": tuple, "n": int}

``n`` is the number of hardware threads (bit-vector width), ``arrival``
the FIFO park order. Waiter *objects* (wake closures) stay outside the
table — :class:`CBEntry` keeps them keyed by core and pairs them with the
``wake`` emits a step produces.

Events
------
``consume(core)``     a callback read probes the F/E bits (Table 1 reads)
``park(core)``        a read that found the bit empty installs a callback
``write_all``         st_cbA / st_through: wake everybody, reset to All
``write_one``         st_cb1: wake one waiter (payload: policy, pick)
``write_zero``        st_cb0: wake nobody, value not consumable
``evict``             replacement: answer every pending callback

Nondeterminism is carried by the event payload: for the RANDOM wake
policy the caller draws ``pick`` (the index into the ascending list of
callback cores) and the table applies it deterministically — the live
directory draws from its seeded RNG, the checker enumerates every pick.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Tuple

from repro.config import WakePolicy
from repro.protocols.table import (Effect, Emit, Event, PerCore, State,
                                   Transition, TransitionTable)

__all__ = [
    "CALLBACK_ENTRY_TABLE",
    "callback_cores",
    "choose_victim",
    "full_mask",
    "initial_entry",
]


def full_mask(n: int) -> int:
    return (1 << n) - 1


def callback_cores(cb: int, n: int) -> List[int]:
    """Cores with a pending callback, ascending (the wake fan-out order)."""
    cb &= (1 << n) - 1
    cores: List[int] = []
    while cb:
        low = cb & -cb
        cores.append(low.bit_length() - 1)
        cb ^= low
    return cores


def initial_entry(n: int) -> State:
    """Allocation / re-initialization state: all F/E full, no callbacks,
    All mode (Section 2.3.1 — the known state the directory resets to)."""
    return {"fe": full_mask(n), "cb": 0, "mode_all": True, "rr": 0,
            "arrival": (), "n": n}


def choose_victim(state: Mapping[str, Any], policy: WakePolicy, pick: int) -> int:
    """The wake victim under ``policy``; ``pick`` resolves RANDOM."""
    if policy is WakePolicy.FIFO:
        return int(state["arrival"][0])
    if policy is WakePolicy.RANDOM:
        return callback_cores(state["cb"], state["n"])[pick]
    # Pseudo-random round-robin (the paper's policy): scan upward from
    # the rotating pointer, wrapping at the highest core id.
    n = state["n"]
    for offset in range(n):
        candidate = (state["rr"] + offset) % n
        if state["cb"] & (1 << candidate):
            return candidate
    raise RuntimeError("no callback set")  # pragma: no cover


def _bit(event: Event) -> int:
    assert event.core is not None
    return 1 << event.core


def _consume_hit(state: Mapping[str, Any], event: Event) -> bool:
    if state["mode_all"]:
        return bool(state["fe"] & _bit(event))
    return bool(state["fe"] == full_mask(state["n"]))


def _apply_consume_hit(state: Mapping[str, Any], event: Event) -> Effect:
    nxt = dict(state)
    if state["mode_all"]:
        nxt["fe"] = state["fe"] & ~_bit(event)
    else:
        nxt["fe"] = 0
    return Effect(nxt)


def _apply_identity(state: Mapping[str, Any], event: Event) -> Effect:
    return Effect(dict(state))


def _guard_park(state: Mapping[str, Any], event: Event) -> bool:
    return not state["cb"] & _bit(event)


def _apply_park(state: Mapping[str, Any], event: Event) -> Effect:
    assert event.core is not None
    nxt = dict(state)
    nxt["cb"] = state["cb"] | _bit(event)
    nxt["arrival"] = state["arrival"] + (event.core,)
    return Effect(nxt)


_WAKE = PerCore(Emit, "wake")
_FREE = Emit("free")


def _wakes(cb: int, n: int) -> Tuple[Emit, ...]:
    return tuple([_WAKE[core] for core in callback_cores(cb, n)])


def _apply_write_all(state: Mapping[str, Any], event: Event) -> Effect:
    # Waiters consumed the write (their F/E stays empty); everyone else
    # may now read it directly. A/O resets to All.
    n = state["n"]
    nxt = dict(state)
    nxt["mode_all"] = True
    nxt["cb"] = 0
    nxt["arrival"] = ()
    nxt["fe"] = full_mask(n) & ~state["cb"]
    return Effect(nxt, _wakes(state["cb"], n))


def _guard_write_one_wake(state: Mapping[str, Any], event: Event) -> bool:
    return bool(state["cb"])


def _apply_write_one_wake(state: Mapping[str, Any], event: Event) -> Effect:
    policy: WakePolicy = event.get("policy", WakePolicy.ROUND_ROBIN)
    victim = choose_victim(state, policy, event.get("pick", 0))
    nxt = dict(state)
    nxt["mode_all"] = False
    nxt["cb"] = state["cb"] & ~(1 << victim)
    nxt["arrival"] = tuple([c for c in state["arrival"] if c != victim])
    if policy is WakePolicy.ROUND_ROBIN:
        nxt["rr"] = (victim + 1) % state["n"]
    # F/E undisturbed: exactly one waiter consumes the value.
    return Effect(nxt, (_WAKE[victim],))


def _guard_write_one_arm(state: Mapping[str, Any], event: Event) -> bool:
    return not state["cb"]


def _apply_write_one_arm(state: Mapping[str, Any], event: Event) -> Effect:
    # Nobody waits: make the value consumable exactly once.
    nxt = dict(state)
    nxt["mode_all"] = False
    nxt["fe"] = full_mask(state["n"])
    return Effect(nxt)


def _apply_write_zero(state: Mapping[str, Any], event: Event) -> Effect:
    nxt = dict(state)
    nxt["mode_all"] = False
    nxt["fe"] = 0
    return Effect(nxt)


def _apply_evict(state: Mapping[str, Any], event: Event) -> Effect:
    # Replacement answers every pending callback with the current value;
    # the entry resets to the known re-initialization state (§2.3.1).
    n = state["n"]
    return Effect(initial_entry(n), _wakes(state["cb"], n) + (_FREE,))


def _true(state: Mapping[str, Any], event: Event) -> bool:
    return True


CALLBACK_ENTRY_TABLE = TransitionTable(
    protocol="callback",
    fsm="entry",
    initial=initial_entry,
    description="F/E + CB bit vectors of one callback-directory entry",
    transitions=(
        Transition(
            "consume_hit", "consume", _consume_hit, _apply_consume_hit,
            "All mode: clear own F/E bit; One mode: clear all bits in unison",
        ),
        Transition(
            "consume_miss", "consume",
            lambda state, event: not _consume_hit(state, event),
            _apply_identity,
            "F/E empty for this reader: the value is not consumable",
        ),
        Transition(
            "park", "park", _guard_park, _apply_park,
            "Install a callback for the reader (one per core per word)",
        ),
        Transition(
            "write_all", "write_all", _true, _apply_write_all,
            "st_cbA/st_through: wake every waiter, fill the rest's F/E, reset to All",
        ),
        Transition(
            "write_one_wake", "write_one", _guard_write_one_wake,
            _apply_write_one_wake,
            "st_cb1 with waiters: wake exactly one, F/E undisturbed",
        ),
        Transition(
            "write_one_arm", "write_one", _guard_write_one_arm,
            _apply_write_one_arm,
            "st_cb1 with no waiters: value consumable once (all F/E full)",
        ),
        Transition(
            "write_zero", "write_zero", _true, _apply_write_zero,
            "st_cb0: One mode, wake nobody, value not consumable",
        ),
        Transition(
            "evict", "evict", _true, _apply_evict,
            "Replacement: answer all pending callbacks with the current value",
        ),
    ),
)
