"""Ticket lock — a library extension with an instructive callback story.

A ticket lock is FIFO-fair: acquire takes a ticket with fetch&increment
and spins until ``now_serving`` reaches it; release increments
``now_serving``.

Under callbacks the release **must** be a st_through/st_cbA (wake all):
many spinners wait on the *same* word for *different* values, so waking
one arbitrary waiter (st_cb1) may wake a core whose ticket is not up —
it re-parks, nobody else is woken, and the system deadlocks. This is the
mirror image of the paper's Section 2.4 observation: write_CB1 fits
locks where any one waiter may proceed (T&S/T&T&S); value-matched spins
need the broadcast write. The ``release_kind`` knob exists so the test
suite can demonstrate the deadlock.
"""

from __future__ import annotations

from typing import Dict

from repro.protocols.ops import (Atomic, AtomicKind, Fence, FenceKind, Load,
                                 LoadCB, LoadThrough, SpinThrough, SpinUntil,
                                 StKind, Store, StoreCB1, StoreThrough)
from repro.sync.base import SyncPrimitive, SyncStyle


class TicketLock(SyncPrimitive):
    """FIFO ticket lock in all four encodings."""

    def __init__(self, style: SyncStyle,
                 release_kind: StKind = StKind.CBA) -> None:
        super().__init__(style)
        self.release_kind = release_kind
        self.next_ticket_addr = -1
        self.now_serving_addr = -1

    def setup(self, layout, num_threads: int) -> None:
        self.next_ticket_addr = layout.alloc_sync_word()
        self.now_serving_addr = layout.alloc_sync_word()
        self._ready = True

    def initial_values(self) -> Dict[int, int]:
        return {self.next_ticket_addr: 0, self.now_serving_addr: 0}

    def acquire(self, ctx):
        self._require_ready()
        start = ctx.now
        result = yield Atomic(self.next_ticket_addr, AtomicKind.FETCH_ADD,
                              (1,))
        ticket = result.old
        if self.style is SyncStyle.MESI:
            yield SpinUntil(self.now_serving_addr,
                            lambda v, t=ticket: v == t)
        elif self.style is SyncStyle.VIPS:
            yield SpinThrough(self.now_serving_addr,
                              lambda v, t=ticket: v == t)
            yield Fence(FenceKind.SELF_INVL)
        else:
            value = yield LoadThrough(self.now_serving_addr)
            while value != ticket:
                value = yield LoadCB(self.now_serving_addr)
            yield Fence(FenceKind.SELF_INVL)
        ctx.record_episode("lock_acquire", start)
        ctx.span_begin("lock_hold", lock=type(self).__name__)
        return ticket

    def release(self, ctx):
        self._require_ready()
        try:
            if self.style is SyncStyle.MESI:
                value = yield Load(self.now_serving_addr)
                yield Store(self.now_serving_addr, value + 1)
                return
            yield Fence(FenceKind.SELF_DOWN)
            value = yield LoadThrough(self.now_serving_addr)
            if self.release_kind is StKind.CB1:
                yield StoreCB1(self.now_serving_addr, value + 1)
            else:
                yield StoreThrough(self.now_serving_addr, value + 1)
        finally:
            ctx.span_end("lock_hold")
