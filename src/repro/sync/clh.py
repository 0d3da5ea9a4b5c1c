"""CLH queue lock (paper Figures 12 and 13).

Each thread owns a queue node with a ``succ_wait`` flag (its successor
spins on it) and a ``prev`` slot. Acquire: set own ``succ_wait``, atomically
swap the lock tail with the own node, spin on the predecessor's
``succ_wait``. Release: clear own ``succ_wait`` and adopt the predecessor's
node for the next acquire (standard CLH node recycling, ``st I, $p``).

Only one thread ever spins on a given word, so callback-all and
callback-one behave identically (Section 3.4.3); both callback encodings
use a ld_through guard plus a ld_cb spin (Figure 13), with the release
using st_through.
"""

from __future__ import annotations

from typing import Dict, List

from repro.protocols.ops import (Atomic, AtomicKind, Fence, FenceKind, Load,
                                 LoadCB, LoadThrough, SpinThrough, SpinUntil,
                                 Store, StoreThrough)
from repro.sync.base import SyncPrimitive, SyncStyle

_SUCC_WAIT = 0  # word index within a node
_PREV = 1


class CLHLock(SyncPrimitive):
    """CLH queue lock in all four encodings."""

    def __init__(self, style: SyncStyle) -> None:
        super().__init__(style)
        self.tail_addr = -1
        self._dummy = -1
        self._word_bytes = 8
        # Current node of each thread (recycled across acquires).
        self._node_of: Dict[int, int] = {}

    def setup(self, layout, num_threads: int) -> None:
        self._word_bytes = layout.config.word_bytes
        self.tail_addr = layout.alloc_sync_word()
        # One line-padded node per thread + a dummy the tail starts at.
        self._dummy = layout.alloc_sync_word()
        self._node_of = {
            tid: layout.alloc_sync_word() for tid in range(num_threads)
        }
        self._ready = True

    def initial_values(self) -> Dict[int, int]:
        """Word values the machine must seed: the tail points at the dummy
        node, whose succ_wait is 0 (lock free)."""
        return {self.tail_addr: self._dummy, self._succ_wait(self._dummy): 0}

    def _node(self, tid: int) -> int:
        return self._node_of[tid]

    def _succ_wait(self, node: int) -> int:
        return node + _SUCC_WAIT * self._word_bytes

    def _prev_slot(self, node: int) -> int:
        return node + _PREV * self._word_bytes

    # ---------------------------------------------------------------- acquire

    def acquire(self, ctx):
        self._require_ready()
        start = ctx.now
        node = self._node(ctx.tid)
        if self.style is SyncStyle.MESI:
            yield Store(self._succ_wait(node), 1)
            result = yield Atomic(self.tail_addr, AtomicKind.SWAP, (node,))
            prev = result.old
            yield Store(self._prev_slot(node), prev)
            yield SpinUntil(self._succ_wait(prev), lambda v: v == 0)
        elif self.style is SyncStyle.VIPS:
            yield StoreThrough(self._succ_wait(node), 1)
            result = yield Atomic(self.tail_addr, AtomicKind.SWAP, (node,))
            prev = result.old
            yield Store(self._prev_slot(node), prev)
            yield SpinThrough(self._succ_wait(prev), lambda v: v == 0)
            yield Fence(FenceKind.SELF_INVL)
        else:
            # Figure 13: guard ld_through, then ld_cb spin.
            yield StoreThrough(self._succ_wait(node), 1)
            result = yield Atomic(self.tail_addr, AtomicKind.SWAP, (node,))
            prev = result.old
            yield Store(self._prev_slot(node), prev)
            value = yield LoadThrough(self._succ_wait(prev))
            while value != 0:
                value = yield LoadCB(self._succ_wait(prev))
            yield Fence(FenceKind.SELF_INVL)
        ctx.record_episode("lock_acquire", start)
        ctx.span_begin("lock_hold", lock=type(self).__name__)

    # ---------------------------------------------------------------- release

    def release(self, ctx):
        self._require_ready()
        node = self._node(ctx.tid)
        if self.style is SyncStyle.MESI:
            result = yield Load(self._prev_slot(node))
            prev = result
            yield Store(self._succ_wait(node), 0)
        else:
            yield Fence(FenceKind.SELF_DOWN)
            prev = yield Load(self._prev_slot(node))
            yield StoreThrough(self._succ_wait(node), 0)
        # st I, $p — recycle the predecessor's node as our own.
        self._node_of[ctx.tid] = prev
        ctx.span_end("lock_hold")
