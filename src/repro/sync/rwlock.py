"""Reader-writer lock — a library extension composed from Table 1
primitives.

A writer-preference RW lock over a single state word:

* state == 0: free
* state == -1 (encoded as WRITER): held by a writer
* state >= 1: held by that many readers

plus a ``writers_waiting`` count that makes arriving readers defer to
queued writers.

Reader acquire: spin while (state == WRITER or writers_waiting > 0),
then CAS state -> state+1. Writer acquire: f&i writers_waiting, spin
until CAS(state, 0, WRITER) succeeds, f&d writers_waiting.

Spin-waiting uses the paper's machinery: ld_through guard + ld_cb spin
under the callback protocols, back-off under VIPS, local SpinUntil under
MESI. Releases that can unblock *many* readers (writer release) use
st_cbA; releases that unblock one writer use st_cbA as well because
readers and writers wait on the same word for different predicates —
the ticket-lock lesson (waking one arbitrary waiter can strand the
wrong class).
"""

from __future__ import annotations

from typing import Dict

from repro.protocols.ops import (Atomic, AtomicKind, Fence, FenceKind,
                                 LoadCB, LoadThrough, SpinThrough, SpinUntil,
                                 StKind, Store, StoreThrough)
from repro.sync.base import SyncPrimitive, SyncStyle

#: Encoded "a writer holds the lock" state (word values are plain ints).
WRITER = 1 << 30


class RWLock(SyncPrimitive):
    """Writer-preference reader-writer lock in all four encodings."""

    def __init__(self, style: SyncStyle) -> None:
        super().__init__(style)
        self.state_addr = -1
        self.writers_waiting_addr = -1

    def setup(self, layout, num_threads: int) -> None:
        self.state_addr = layout.alloc_sync_word()
        self.writers_waiting_addr = layout.alloc_sync_word()
        self._ready = True

    def initial_values(self) -> Dict[int, int]:
        return {self.state_addr: 0, self.writers_waiting_addr: 0}

    # ------------------------------------------------------------- spinning

    def _spin_while(self, addr: int, bad):
        """Spin until ``bad(value)`` is False; returns the value."""
        if self.style is SyncStyle.MESI:
            value = yield SpinUntil(addr, lambda v: not bad(v))
            return value
        if self.style is SyncStyle.VIPS:
            value = yield SpinThrough(addr, lambda v: not bad(v))
            return value
        value = yield LoadThrough(addr)
        while bad(value):
            value = yield LoadCB(addr)
        return value

    # -------------------------------------------------------------- readers

    def acquire_read(self, ctx):
        self._require_ready()
        start = ctx.now
        while True:
            # Writer preference: defer while writers queue.
            yield from self._spin_while(self.writers_waiting_addr,
                                        lambda v: v > 0)
            value = yield from self._spin_while(self.state_addr,
                                                lambda v: v == WRITER)
            result = yield Atomic(self.state_addr, AtomicKind.CAS,
                                  (value, value + 1))
            if result.success:
                break
        if self.style is not SyncStyle.MESI:
            yield Fence(FenceKind.SELF_INVL)
        ctx.record_episode("rwlock_read_acquire", start)

    def release_read(self, ctx):
        self._require_ready()
        if self.style is not SyncStyle.MESI:
            yield Fence(FenceKind.SELF_DOWN)
        # The last reader leaving must wake queued writers: st_cbA.
        result = yield Atomic(self.state_addr, AtomicKind.FETCH_ADD, (-1,),
                              st=self._release_st())
        assert result.old >= 1, "release_read without a read hold"

    # -------------------------------------------------------------- writers

    def acquire_write(self, ctx):
        self._require_ready()
        start = ctx.now
        yield Atomic(self.writers_waiting_addr, AtomicKind.FETCH_ADD, (1,),
                     st=self._release_st())
        while True:
            yield from self._spin_while(self.state_addr,
                                        lambda v: v != 0)
            result = yield Atomic(self.state_addr, AtomicKind.CAS,
                                  (0, WRITER))
            if result.success:
                break
        # No longer waiting; wake readers parked on writers_waiting.
        yield Atomic(self.writers_waiting_addr, AtomicKind.FETCH_ADD, (-1,),
                     st=self._release_st())
        if self.style is not SyncStyle.MESI:
            yield Fence(FenceKind.SELF_INVL)
        ctx.record_episode("rwlock_write_acquire", start)

    def release_write(self, ctx):
        self._require_ready()
        if self.style is SyncStyle.MESI:
            # Plain store: the MESI column races through the coherent L1.
            yield Store(self.state_addr, 0)
        else:
            yield Fence(FenceKind.SELF_DOWN)
            yield StoreThrough(self.state_addr, 0)

    def _release_st(self) -> StKind:
        return StKind.CBA
