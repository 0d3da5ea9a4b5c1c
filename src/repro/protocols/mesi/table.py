"""Declarative FSMs for the MESI baseline: directory record + L1 line.

Two tables, both executed by the live simulator and explored by the
model checker:

* ``MESI_DIR_TABLE`` — the home-bank directory decision for each
  coherence request. State is ``{"owner": Optional[int], "sharers":
  frozenset}`` (the stable part of :class:`DirEntry`; the ``busy`` flag
  and deferred-request queue are *serialization* plumbing, not protocol
  state — the table sees only requests that won arbitration). Emits
  carry the message plan: ``fwd``/``inv`` to third parties, ``data`` or
  ``grant`` (ack-only upgrade) to the requester, ``writeback`` when the
  owner must copy data back to the LLC.
* ``MESI_L1_TABLE`` — the per-line L1 cache state. State is
  ``{"mesi": "I"|"S"|"E"|"M"}``. The ``evict`` event emits the
  replacement action (``putm`` + ``writeback``, ``pute``, or silent).

Invalidation fan-out order: the table emits ``inv`` messages in
ascending sharer order, which is the order the simulator sends them,
and then the requester's ``grant`` or ``data``.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Mapping, Optional

from repro.protocols.table import (Effect, Emit, Event, PerCore, State,
                                   Transition, TransitionTable)

__all__ = ["MESI_DIR_TABLE", "MESI_L1_TABLE", "initial_dir", "initial_l1"]


# ------------------------------------------------------------ directory FSM

_NO_SHARERS: FrozenSet[int] = frozenset()
_FWD = PerCore(Emit, "fwd")
_WRITEBACK = PerCore(Emit, "writeback")
_INV = PerCore(Emit, "inv")
_DATA_S = PerCore(lambda core: Emit("data", core, (("grant", "S"),)))
_DATA_E = PerCore(lambda core: Emit("data", core, (("grant", "E"),)))
_DATA_M = PerCore(lambda core: Emit("data", core, (("grant", "M"),)))
_GRANT_M = PerCore(lambda core: Emit("grant", core, (("grant", "M"),)))


def initial_dir() -> State:
    return {"owner": None, "sharers": _NO_SHARERS}


def _g_remote_owner(state: Mapping[str, Any], event: Event) -> bool:
    owner: Optional[int] = state["owner"]
    return owner is not None and owner != event.core


def _a_gets_forward(state: Mapping[str, Any], event: Event) -> Effect:
    # Fwd to owner; owner downgrades to S, sends data to the requester
    # and a (data) copy back to the LLC; both end up sharers.
    owner = state["owner"]
    core = event.core
    assert owner is not None and core is not None
    nxt = {"owner": None, "sharers": state["sharers"] | {owner, core}}
    return Effect(nxt, (_FWD[owner], _WRITEBACK[owner], _DATA_S[core]))


def _g_gets_fill_e(state: Mapping[str, Any], event: Event) -> bool:
    return state["owner"] is None and not state["sharers"]


def _a_gets_fill_e(state: Mapping[str, Any], event: Event) -> Effect:
    assert event.core is not None
    nxt = {"owner": event.core, "sharers": _NO_SHARERS}
    return Effect(nxt, (_DATA_E[event.core],))


def _g_gets_fill_s(state: Mapping[str, Any], event: Event) -> bool:
    # Neither a remote owner to forward through nor an idle line.
    owner: Optional[int] = state["owner"]
    if owner is None:
        return bool(state["sharers"])
    return owner == event.core


def _a_gets_fill_s(state: Mapping[str, Any], event: Event) -> Effect:
    assert event.core is not None
    nxt = {"owner": state["owner"],
           "sharers": state["sharers"] | {event.core}}
    return Effect(nxt, (_DATA_S[event.core],))


def _a_getx_forward(state: Mapping[str, Any], event: Event) -> Effect:
    owner = state["owner"]
    assert owner is not None and event.core is not None
    nxt = {"owner": event.core, "sharers": _NO_SHARERS}
    return Effect(nxt, (_FWD[owner], _INV[owner], _DATA_M[event.core]))


def _g_getx_local(state: Mapping[str, Any], event: Event) -> bool:
    owner: Optional[int] = state["owner"]
    return owner is None or owner == event.core


def _a_getx_local(state: Mapping[str, Any], event: Event) -> Effect:
    # Invalidate every other sharer (ascending fan-out); the requester
    # gets an ack-only grant if it already held a copy, data otherwise.
    requester = event.core
    assert requester is not None
    sharers = state["sharers"]
    emits = [_INV[sharer] for sharer in sorted(sharers)
             if sharer != requester]
    was_sharer = requester in sharers or state["owner"] == requester
    emits.append((_GRANT_M if was_sharer else _DATA_M)[requester])
    return Effect({"owner": requester, "sharers": _NO_SHARERS},
                  tuple(emits))


def _g_put_owner(state: Mapping[str, Any], event: Event) -> bool:
    owner: Optional[int] = state["owner"]
    return owner == event.core


def _a_put_owner(state: Mapping[str, Any], event: Event) -> Effect:
    return Effect({"owner": None, "sharers": state["sharers"]})


def _g_put_stale(state: Mapping[str, Any], event: Event) -> bool:
    owner: Optional[int] = state["owner"]
    return owner != event.core


def _a_identity(state: Mapping[str, Any], event: Event) -> Effect:
    return Effect(dict(state))


MESI_DIR_TABLE = TransitionTable(
    protocol="mesi",
    fsm="directory",
    initial=initial_dir,
    description="Home-bank directory record (owner + sharer set)",
    transitions=(
        Transition("gets_forward", "gets", _g_remote_owner, _a_gets_forward,
                   "GetS with a remote E/M owner: forward; owner downgrades"),
        Transition("gets_fill_e", "gets", _g_gets_fill_e, _a_gets_fill_e,
                   "GetS on an idle line: fill Exclusive from the LLC"),
        Transition("gets_fill_s", "gets", _g_gets_fill_s, _a_gets_fill_s,
                   "GetS with existing sharers: fill Shared from the LLC"),
        Transition("getx_forward", "getx", _g_remote_owner, _a_getx_forward,
                   "GetX with a remote E/M owner: forward + invalidate owner"),
        Transition("getx_local", "getx", _g_getx_local, _a_getx_local,
                   "GetX at the LLC: invalidate all other sharers, grant M"),
        Transition("put_owner", "put", _g_put_owner, _a_put_owner,
                   "PutM/PutE from the current owner clears ownership"),
        Transition("put_stale", "put", _g_put_stale, _a_identity,
                   "Stale Put (ownership already moved): ignore"),
    ),
)


# ------------------------------------------------------------------- L1 FSM


def initial_l1() -> State:
    return {"mesi": "I"}


def _in(*states: str) -> Any:
    def guard(state: Mapping[str, Any], event: Event) -> bool:
        return state["mesi"] in states
    return guard


def _to(mesi: str, *emits: Emit) -> Any:
    def apply(state: Mapping[str, Any], event: Event) -> Effect:
        return Effect({"mesi": mesi}, tuple(emits))
    return apply


def _a_fill(state: Mapping[str, Any], event: Event) -> Effect:
    return Effect({"mesi": event.get("grant", "S")})


MESI_L1_TABLE = TransitionTable(
    protocol="mesi",
    fsm="l1_line",
    initial=initial_l1,
    description="Per-line L1 cache state (I/S/E/M)",
    transitions=(
        Transition("fill", "fill", _in("I"), _a_fill,
                   "Install at the grant state the directory chose"),
        Transition("store", "store", _in("E", "M"), _to("M"),
                   "Local write commit: silent E->M upgrade, M stays M"),
        Transition("fwd_gets", "fwd_gets", _in("S", "E", "M"), _to("S"),
                   "Owner downgrade on a forwarded GetS"),
        Transition("inv", "inv", _in("S", "E", "M"), _to("I", Emit("ack")),
                   "Invalidation kills the copy and acks the requester"),
        Transition("evict_m", "evict", _in("M"),
                   _to("I", Emit("putm"), Emit("writeback")),
                   "Replace a Modified line: data-bearing PutM"),
        Transition("evict_e", "evict", _in("E"), _to("I", Emit("pute")),
                   "Replace an Exclusive line: control-only PutE"),
        Transition("evict_s", "evict", _in("S", "I"), _to("I"),
                   "Silent S eviction (directory tolerates stale sharers)"),
    ),
)
