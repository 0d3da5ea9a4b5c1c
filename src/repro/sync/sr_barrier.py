"""Centralized sense-reversing barrier (paper Figures 14 and 15).

Two variants:

* ``use_lock=False`` — the textbook form of Figure 14: a single
  fetch&decrement on the counter; the last arrival resets the counter and
  flips the global sense, releasing the spinners.
* ``use_lock=True`` — the Splash-2 POSIX form the paper actually
  evaluates (Section 5.2): the counter is decremented under a companion
  lock, making the barrier's behaviour couple to the lock algorithm
  (T&T&S for naïve synchronization, CLH for scalable).

Waiters spin on the global sense word, so a write releasing the barrier
has broadcast behaviour — this is where callback-all shines (Section 2.4).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.protocols.ops import (Atomic, AtomicKind, Fence, FenceKind,
                                 LdKind, Load, LoadCB, LoadThrough,
                                 SpinThrough, SpinUntil, StKind, Store,
                                 StoreThrough)
from repro.sync.base import SyncPrimitive, SyncStyle


class SRBarrier(SyncPrimitive):
    """Sense-reversing barrier in all four encodings."""

    def __init__(self, style: SyncStyle, num_threads: int,
                 lock: Optional[SyncPrimitive] = None) -> None:
        super().__init__(style)
        self.num_threads = num_threads
        self.lock = lock
        self.counter_addr = -1
        self.sense_addr = -1
        self._local_sense: Dict[int, int] = {}

    def setup(self, layout, num_threads: int) -> None:
        if num_threads != self.num_threads:
            raise ValueError("barrier thread count mismatch")
        self.counter_addr = layout.alloc_sync_word()
        self.sense_addr = layout.alloc_sync_word()
        self._local_sense = {tid: 0 for tid in range(num_threads)}
        if self.lock is not None:
            self.lock.setup(layout, num_threads)
        self._ready = True

    def initial_values(self) -> dict:
        values = {self.counter_addr: self.num_threads, self.sense_addr: 0}
        if self.lock is not None:
            values.update(self.lock.initial_values())
        return values

    # ------------------------------------------------------------------ wait

    def wait(self, ctx):
        """One barrier episode for thread ``ctx.tid``."""
        self._require_ready()
        start = ctx.now
        ctx.mark("barrier.arrive")
        sense = 1 - self._local_sense[ctx.tid]
        self._local_sense[ctx.tid] = sense

        if self.lock is not None:
            last = yield from self._decrement_locked(ctx)
        else:
            last = yield from self._decrement_atomic(ctx)

        if last:
            yield from self._release(sense)
        if self.style is SyncStyle.MESI:
            if not last:
                yield SpinUntil(self.sense_addr, lambda v, s=sense: v == s)
        elif self.style is SyncStyle.VIPS:
            # Figure 14: the releasing thread also falls through the spin
            # (one immediate probe), matching the listed code.
            yield SpinThrough(self.sense_addr, lambda v, s=sense: v == s)
            yield Fence(FenceKind.SELF_INVL)
        else:
            value = yield LoadThrough(self.sense_addr)
            while value != sense:
                value = yield LoadCB(self.sense_addr)
            yield Fence(FenceKind.SELF_INVL)
        ctx.record_episode("barrier_wait", start)
        ctx.mark("barrier.leave")

    def _decrement_atomic(self, ctx):
        """Figure 14's f&d; returns True for the last arrival."""
        if self.style is not SyncStyle.MESI:
            yield Fence(FenceKind.SELF_DOWN)
        result = yield Atomic(self.counter_addr, AtomicKind.FETCH_ADD, (-1,))
        if result.old == 1:
            # Last arrival: re-arm the counter.
            if self.style is SyncStyle.MESI:
                yield Store(self.counter_addr, self.num_threads)
            else:
                yield StoreThrough(self.counter_addr, self.num_threads)
            return True
        return False

    def _decrement_locked(self, ctx):
        """The Splash-2 POSIX form: counter updated under the lock.

        The counter is DRF under the lock, so plain loads/stores plus the
        lock's own fences keep it coherent in every protocol.
        """
        if self.style is not SyncStyle.MESI:
            yield Fence(FenceKind.SELF_DOWN)
        yield from self.lock.acquire(ctx)
        value = yield Load(self.counter_addr)
        if value == 1:
            yield Store(self.counter_addr, self.num_threads)
        else:
            yield Store(self.counter_addr, value - 1)
        yield from self.lock.release(ctx)
        return value == 1

    def _release(self, sense: int):
        """The last arrival flips the global sense (broadcast write)."""
        if self.style is SyncStyle.MESI:
            yield Store(self.sense_addr, sense)
        else:
            # st_through == st_cbA: wakes every callback (Figure 15); the
            # callback-one encoding of a barrier would serialize wakeups,
            # so both callback styles broadcast here.
            yield StoreThrough(self.sense_addr, sense)
