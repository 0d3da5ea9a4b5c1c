"""Pinned step digests of the MESI directory and callback entry tables.

Each table is stepped over an enumerated state space, and every step
records the fired transition's name, ``freeze`` of the next state and
the emits as plain tuples, or the raised exception's type and message.
The records are hashed in enumeration order.

* ``MESI_DIR_TABLE``: 4 cores, every owner (``None`` or a core), every
  subset of sharers, and ``gets``/``getx``/``put`` from every core.
* ``CALLBACK_ENTRY_TABLE``: 3 cores, every ``fe`` and ``cb`` mask, both
  modes, every round-robin pointer and every ordering of ``arrival``
  over the ``cb`` cores; ``consume``/``park`` from every core,
  ``write_all``, ``write_zero``, ``evict``, and ``write_one`` under each
  ``WakePolicy`` (under ``RANDOM``, with every valid ``pick``).

A change to how a table step is computed must leave both digests
unchanged: they pin what the tables decide, not how fast.
"""

import hashlib
from itertools import combinations, permutations

import pytest

from repro.config import WakePolicy
from repro.protocols.callback.table import CALLBACK_ENTRY_TABLE
from repro.protocols.mesi.table import MESI_DIR_TABLE
from repro.protocols.table import (AmbiguousTransitionError, Event,
                                   StuckError, Transition, freeze)

MESI_CORES = 4
CB_CORES = 3

PINS = {
    "mesi/directory":
        "ed3fd8e7795e5e9b9737d3fda4d30b089578661fd1dd84a65e8c08fcb1ed1ad4",
    "callback/entry":
        "536105ccff0e80af0c34896cc6ceb8c641da3d6ad2630545ad6dd59f507b02f9",
}


def _record(table, state, event):
    try:
        step = table.step(state, event)
    except Exception as exc:
        return (type(exc).__name__, str(exc))
    return (step.transition.name, freeze(step.state),
            tuple(tuple(emit) for emit in step.emits))


def _digest(records):
    blob = "\n".join(repr(record) for record in records)
    return hashlib.sha256(blob.encode()).hexdigest()


def _mesi_states():
    cores = range(MESI_CORES)
    for owner in (None, *cores):
        for size in range(MESI_CORES + 1):
            for sharers in combinations(cores, size):
                yield {"owner": owner, "sharers": frozenset(sharers)}


def _mesi_records():
    for state in _mesi_states():
        for kind in ("gets", "getx", "put"):
            for core in range(MESI_CORES):
                event = Event(kind, core=core)
                yield (freeze(state), kind, core,
                       _record(MESI_DIR_TABLE, state, event))


def _callback_states():
    n = CB_CORES
    for fe in range(1 << n):
        for cb in range(1 << n):
            parked = [core for core in range(n) if cb & (1 << core)]
            for arrival in permutations(parked):
                for mode_all in (True, False):
                    for rr in range(n):
                        yield {"fe": fe, "cb": cb, "mode_all": mode_all,
                               "rr": rr, "arrival": arrival, "n": n}


def _callback_events(state):
    for core in range(CB_CORES):
        yield Event("consume", core=core)
        yield Event("park", core=core)
    yield Event("write_all")
    yield Event("write_zero")
    yield Event("evict")
    waiters = bin(state["cb"]).count("1")
    for policy in WakePolicy:
        picks = range(waiters) if policy is WakePolicy.RANDOM else (0,)
        for pick in picks or (0,):
            yield Event("write_one", payload={"policy": policy, "pick": pick})


def _callback_records():
    for state in _callback_states():
        for event in _callback_events(state):
            payload = tuple((key, getattr(value, "name", value))
                            for key, value in sorted(event.payload.items()))
            yield (freeze(state), event.kind, event.core, payload,
                   _record(CALLBACK_ENTRY_TABLE, state, event))


def test_mesi_directory_pin():
    records = list(_mesi_records())
    assert len(records) == 5 * 16 * 3 * MESI_CORES
    assert _digest(records) == PINS["mesi/directory"]


def test_callback_entry_pin():
    records = list(_callback_records())
    assert len(records) == 10080
    assert _digest(records) == PINS["callback/entry"]


def test_pins_cover_every_outcome():
    """The enumeration fires every transition of both tables, and a
    park by a core that already has a callback raises ``StuckError``."""
    for table, records in ((MESI_DIR_TABLE, _mesi_records()),
                           (CALLBACK_ENTRY_TABLE, _callback_records())):
        fired = {record[-1][0] for record in records}
        names = {transition.name for transition in table.transitions}
        assert names <= fired, names - fired
    stuck = {record[-1][0] for record in _callback_records()}
    assert "StuckError" in stuck


def test_error_messages():
    """A stuck step and an ambiguous step raise with these messages."""
    always = Transition("gets_fill_e", "gets", lambda state, event: True,
                        MESI_DIR_TABLE.transitions[1].apply)
    mutant = MESI_DIR_TABLE.replacing("gets_fill_e", always)
    state = {"owner": None, "sharers": frozenset({1})}
    with pytest.raises(AmbiguousTransitionError) as ambiguous:
        mutant.step(state, Event("gets", core=2))
    assert str(ambiguous.value) == (
        "mesi/directory: transitions ['gets_fill_e', 'gets_fill_s'] all "
        "enabled for event 'gets' in state "
        "{'owner': None, 'sharers': frozenset({1})}")
    with pytest.raises(StuckError) as stuck:
        MESI_DIR_TABLE.step(state, Event("evict", core=2))
    assert str(stuck.value) == (
        "mesi/directory: no transition enabled for event 'evict' in state "
        "{'owner': None, 'sharers': frozenset({1})}")
