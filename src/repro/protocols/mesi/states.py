"""MESI protocol state containers.

``L1Line`` is the payload stored in the per-core L1 tag array: the MESI
state only. A resident copy never holds a value that differs from the
word store, because a write commits only after every other copy's
invalidation has landed (the model checker's ``data_value`` invariant).
So L1 hits and spin re-checks read the store directly.

``DirEntry`` is the home-bank directory record: the owner (E/M holder),
the sharer set, and the per-line transaction serialization (``busy`` +
FIFO of deferred request thunks). The directory is the per-line point of
serialization, as in any MESI implementation.
"""

from __future__ import annotations

import enum
import functools
from typing import (Any, Callable, Dict, FrozenSet, List, Mapping, Optional,
                    Tuple)

from repro.protocols.mesi.table import MESI_L1_TABLE
from repro.protocols.table import Event


class MESIState(enum.Enum):
    INVALID = "I"
    SHARED = "S"
    EXCLUSIVE = "E"
    MODIFIED = "M"


@functools.lru_cache(maxsize=None)
def l1_step(state: MESIState, kind: str) -> Tuple[MESIState, FrozenSet[str]]:
    """The L1 table's edge for (``state``, ``kind``): the next state and
    the emitted action kinds. The simulator's L1 events carry no payload,
    so an edge depends on the pair alone, and each of the 4 x 5 pairs is
    stepped through ``MESI_L1_TABLE`` once. A stuck step raises, and a
    raise is never cached."""
    result = MESI_L1_TABLE.step({"mesi": state.value}, Event(kind))
    return (MESIState(result.state["mesi"]),
            frozenset(emit.kind for emit in result.emits))


class L1Line:
    """Per-line L1 payload: the MESI state."""

    __slots__ = ("state",)

    def __init__(self, state: MESIState) -> None:
        self.state = state

    def transition(self, kind: str) -> None:
        """Advance the line via the declarative L1 table (``store``
        upgrade, ``fwd_gets`` downgrade, ``inv``). The table is the
        single source of truth the model checker explores."""
        self.state = l1_step(self.state, kind)[0]


class DirEntry:
    """Directory record for one line at its home LLC bank."""

    __slots__ = ("owner", "sharers", "busy", "queue")

    def __init__(self) -> None:
        self.owner: Optional[int] = None   # E/M holder
        self.sharers: FrozenSet[int] = frozenset()
        self.busy = False
        self.queue: List[Callable[[], None]] = []

    def view(self) -> Dict[str, Any]:
        """The directory-table state for this record (the stable part;
        ``busy``/``queue`` are serialization plumbing the table never
        sees — it only receives requests that won arbitration). The
        sharer set is the table's own immutable frozenset: no copy."""
        return {"owner": self.owner, "sharers": self.sharers}

    def adopt(self, state: Mapping[str, Any]) -> None:
        """Install a directory-table next-state."""
        self.owner = state["owner"]
        self.sharers = state["sharers"]

    def ckpt_state(self) -> Dict[str, object]:
        """Owner/sharers/serialization point (checkpoint capture). The
        deferred-request thunks are closures; their *count* is state
        (how many transactions are queued behind the busy line), their
        identity is pinned by the engine's live-event digest."""
        return {"owner": self.owner, "sharers": sorted(self.sharers),
                "busy": self.busy, "queued": len(self.queue)}
