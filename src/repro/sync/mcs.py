"""MCS queue lock (Mellor-Crummey & Scott [19]) — a library extension.

The paper's evaluation uses the CLH queue lock; MCS is the other classic
local-spinning queue lock from the same reference, and it maps onto
callbacks just as cleanly: each spun-on word (a node's ``locked`` flag,
or its ``next`` pointer during release) has exactly one spinner, so
callback-all and callback-one behave identically and signalling writes
use st_through.

Algorithm (per Mellor-Crummey & Scott):

* acquire: ``node.next = nil``; ``pred = swap(tail, node)``; if there is
  a predecessor, set ``node.locked``, link ``pred.next = node``, and spin
  on ``node.locked``.
* release: if ``node.next`` is nil, try ``CAS(tail, node, nil)``; on
  failure (a successor is mid-enqueue) spin on ``node.next``, then clear
  the successor's ``locked`` flag.

Unlike CLH, MCS nodes are statically owned per thread (no recycling).
"""

from __future__ import annotations

from typing import Dict

from repro.protocols.ops import (Atomic, AtomicKind, Fence, FenceKind, Load,
                                 LoadCB, LoadThrough, SpinThrough, SpinUntil,
                                 Store, StoreThrough)
from repro.sync.base import SyncPrimitive, SyncStyle

_NEXT = 0
_LOCKED = 1
NIL = 0


class MCSLock(SyncPrimitive):
    """MCS queue lock in all four encodings."""

    def __init__(self, style: SyncStyle) -> None:
        super().__init__(style)
        self.tail_addr = -1
        self._word_bytes = 8
        self._node_of: Dict[int, int] = {}

    def setup(self, layout, num_threads: int) -> None:
        self._word_bytes = layout.config.word_bytes
        self.tail_addr = layout.alloc_sync_word()
        # One line per node; `next` and `locked` are separate words in it.
        self._node_of = {
            tid: layout.alloc_sync_word() for tid in range(num_threads)
        }
        self._ready = True

    def initial_values(self) -> Dict[int, int]:
        return {self.tail_addr: NIL}

    def _next(self, node: int) -> int:
        return node + _NEXT * self._word_bytes

    def _locked(self, node: int) -> int:
        return node + _LOCKED * self._word_bytes

    # ----------------------------------------------------------- spin/signal

    def _spin_equals(self, addr: int, target: int):
        if self.style is SyncStyle.MESI:
            yield SpinUntil(addr, lambda v, t=target: v == t)
        elif self.style is SyncStyle.VIPS:
            yield SpinThrough(addr, lambda v, t=target: v == t)
        else:
            value = yield LoadThrough(addr)
            while value != target:
                value = yield LoadCB(addr)

    def _spin_not_equals(self, addr: int, avoid: int):
        """Spin until the word differs from ``avoid``; returns the value."""
        if self.style is SyncStyle.MESI:
            value = yield SpinUntil(addr, lambda v, a=avoid: v != a)
            return value
        if self.style is SyncStyle.VIPS:
            value = yield SpinThrough(addr, lambda v, a=avoid: v != a)
            return value
        value = yield LoadThrough(addr)
        while value == avoid:
            value = yield LoadCB(addr)
        return value

    def _signal(self, addr: int, value: int):
        if self.style is SyncStyle.MESI:
            yield Store(addr, value)
        else:
            yield StoreThrough(addr, value)

    # ---------------------------------------------------------------- public

    def acquire(self, ctx):
        self._require_ready()
        start = ctx.now
        node = self._node_of[ctx.tid]
        yield from self._signal(self._next(node), NIL)
        result = yield Atomic(self.tail_addr, AtomicKind.SWAP, (node,))
        pred = result.old
        if pred != NIL:
            # Arm the flag *before* linking: the predecessor only learns
            # of us through pred.next, so it can never see a stale flag.
            yield from self._signal(self._locked(node), 1)
            yield from self._signal(self._next(pred), node)
            yield from self._spin_equals(self._locked(node), 0)
        if self.style is not SyncStyle.MESI:
            yield Fence(FenceKind.SELF_INVL)
        ctx.record_episode("lock_acquire", start)
        ctx.span_begin("lock_hold", lock=type(self).__name__)

    def release(self, ctx):
        self._require_ready()
        node = self._node_of[ctx.tid]
        try:
            if self.style is SyncStyle.MESI:
                # Plain load: invalidations keep the L1 copy coherent, so
                # the MESI column needs no through-op here (cf. Figure 12).
                successor = yield Load(self._next(node))
            else:
                yield Fence(FenceKind.SELF_DOWN)
                successor = yield LoadThrough(self._next(node))
            if successor == NIL:
                result = yield Atomic(self.tail_addr, AtomicKind.CAS,
                                      (node, NIL))
                if result.success:
                    return
                # A successor is between swap and link: wait for the link.
                successor = yield from self._spin_not_equals(
                    self._next(node), NIL)
            yield from self._signal(self._locked(successor), 0)
        finally:
            ctx.span_end("lock_hold")
