"""Tree sense-reversing barrier (paper Figures 16 and 17).

A binary combining tree (matching the two child-signal stores of
Figure 16). Each thread owns a tree node with:

* two *child-ready* words — written to 0 by the arriving child, re-armed
  to 1 by the parent; the parent spins on each until 0. A word whose
  child slot is unpopulated stays 0 forever.
* one *wakeup sense* word — the parent writes the release sense into it;
  the thread spins until it matches its local sense.

Every spun-on word has exactly one spinner, so callback-all and
callback-one behave identically (Section 3.4.5); the callback encoding
follows Figure 17 (guard ld_through + ld_cb spin, st_through signals).

Deviation from the MCS listing: the original packs the child-not-ready
flags into one word and spins on the whole word; our word store is
word-granular, so the parent spins on the two child words sequentially.
The message/latency behaviour per spin episode is equivalent.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.protocols.ops import (Fence, FenceKind, Load, LoadCB, LoadThrough,
                                 SpinThrough, SpinUntil, Store, StoreThrough)
from repro.sync.base import SyncPrimitive, SyncStyle

_ARITY = 2


class TreeSRBarrier(SyncPrimitive):
    """Scalable tree sense-reversing barrier in all four encodings."""

    def __init__(self, style: SyncStyle, num_threads: int) -> None:
        super().__init__(style)
        self.num_threads = num_threads
        # Per-thread words, filled by setup().
        self._child_ready: List[List[int]] = []
        self._wakeup: List[int] = []
        self._local_sense: Dict[int, int] = {}

    def setup(self, layout, num_threads: int) -> None:
        if num_threads != self.num_threads:
            raise ValueError("barrier thread count mismatch")
        self._child_ready = [
            [layout.alloc_sync_word() for _ in range(_ARITY)]
            for _ in range(num_threads)
        ]
        self._wakeup = [layout.alloc_sync_word() for _ in range(num_threads)]
        self._local_sense = {tid: 0 for tid in range(num_threads)}
        self._ready = True

    def initial_values(self) -> dict:
        values = {}
        for tid in range(self.num_threads):
            for slot in range(_ARITY):
                child = self._child_id(tid, slot)
                values[self._child_ready[tid][slot]] = (
                    1 if child is not None else 0
                )
            values[self._wakeup[tid]] = 0
        return values

    def _child_id(self, tid: int, slot: int) -> Optional[int]:
        child = _ARITY * tid + slot + 1
        return child if child < self.num_threads else None

    @staticmethod
    def _parent_of(tid: int) -> int:
        return (tid - 1) // _ARITY

    @staticmethod
    def _slot_in_parent(tid: int) -> int:
        return (tid - 1) % _ARITY

    # ------------------------------------------------------------------ wait

    def wait(self, ctx):
        self._require_ready()
        start = ctx.now
        tid = ctx.tid
        sense = 1 - self._local_sense[tid]
        self._local_sense[tid] = sense

        if self.style is not SyncStyle.MESI:
            yield Fence(FenceKind.SELF_DOWN)

        # Arrival phase: wait for both children, then re-arm their flags.
        for slot in range(_ARITY):
            if self._child_id(tid, slot) is None:
                continue
            yield from self._spin_equals(self._child_ready[tid][slot], 0)
        for slot in range(_ARITY):
            if self._child_id(tid, slot) is None:
                continue
            yield from self._signal(self._child_ready[tid][slot], 1)

        if tid != 0:
            # Tell the parent my subtree has arrived, then await release.
            parent = self._parent_of(tid)
            slot = self._slot_in_parent(tid)
            yield from self._signal(self._child_ready[parent][slot], 0)
            yield from self._spin_equals(self._wakeup[tid], sense)

        if self.style is not SyncStyle.MESI:
            yield Fence(FenceKind.SELF_INVL)

        # Wakeup phase: release both children with the new sense.
        for slot in range(_ARITY):
            child = self._child_id(tid, slot)
            if child is None:
                continue
            yield from self._signal(self._wakeup[child], sense)
        ctx.record_episode("barrier_wait", start)

    # ---------------------------------------------------------------- helpers

    def _spin_equals(self, addr: int, target: int):
        if self.style is SyncStyle.MESI:
            yield SpinUntil(addr, lambda v, t=target: v == t)
        elif self.style is SyncStyle.VIPS:
            yield SpinThrough(addr, lambda v, t=target: v == t)
        else:
            value = yield LoadThrough(addr)
            while value != target:
                value = yield LoadCB(addr)

    def _signal(self, addr: int, value: int):
        if self.style is SyncStyle.MESI:
            yield Store(addr, value)
        else:
            yield StoreThrough(addr, value)
