"""Test-and-Test&Set lock (paper Figures 10 and 11).

The naïve lock of the evaluation. MESI spins locally on the first Test
(invalidate-and-refetch); VIPS spins on the LLC with back-off; the
callback encodings (Figure 11) spin with ld_cb after a ld_through guard,
and a failed T&S jumps back to the callback spin loop (label ``spn``),
not the guard.
"""

from __future__ import annotations

from repro.protocols.ops import (Atomic, AtomicKind, Fence, FenceKind,
                                 LdKind, LoadCB, LoadThrough, SpinThrough,
                                 SpinUntil, StKind, Store, StoreCB1,
                                 StoreThrough)
from repro.sync.base import SyncPrimitive, SyncStyle


class TTASLock(SyncPrimitive):
    """Test-and-Test&Set lock in all four encodings."""

    def __init__(self, style: SyncStyle) -> None:
        super().__init__(style)
        self.addr = -1

    def setup(self, layout, num_threads: int) -> None:
        self.addr = layout.alloc_sync_word()
        self._ready = True

    def acquire(self, ctx):
        self._require_ready()
        start = ctx.now
        if self.style is SyncStyle.MESI:
            yield from self._acquire_mesi()
        elif self.style is SyncStyle.VIPS:
            yield from self._acquire_vips()
        elif self.style is SyncStyle.CB_ALL:
            yield from self._acquire_cb(StKind.CBA)
        else:
            yield from self._acquire_cb(StKind.CB0)
        ctx.record_episode("lock_acquire", start)
        ctx.span_begin("lock_hold", lock=type(self).__name__)

    def _acquire_mesi(self):
        # acq: ld $r, L; bnez $r, acq  — local spin until free,
        # then t&s; on failure, back to the spin.
        while True:
            yield SpinUntil(self.addr, lambda v: v == 0)
            result = yield Atomic(self.addr, AtomicKind.TAS, (0, 1))
            if result.success:
                return

    def _acquire_vips(self):
        while True:
            yield SpinThrough(self.addr, lambda v: v == 0)
            result = yield Atomic(self.addr, AtomicKind.TAS, (0, 1))
            if result.success:
                break
        yield Fence(FenceKind.SELF_INVL)

    def _acquire_cb(self, st_kind: StKind):
        # Figure 11: acq: ld_through; beqz tas; spn: ld_cb; bnez spn;
        # tas: {ld}&{st_cb*}; bnez spn; cs: self_invl.
        value = yield LoadThrough(self.addr)
        while True:
            if value == 0:
                result = yield Atomic(self.addr, AtomicKind.TAS, (0, 1),
                                      ld=LdKind.PLAIN, st=st_kind)
                if result.success:
                    break
            # spn: callback spin until the lock reads free.
            while True:
                value = yield LoadCB(self.addr)
                if value == 0:
                    break
        yield Fence(FenceKind.SELF_INVL)

    def release(self, ctx):
        self._require_ready()
        if self.style is SyncStyle.MESI:
            yield Store(self.addr, 0)
        elif self.style in (SyncStyle.VIPS, SyncStyle.CB_ALL):
            yield Fence(FenceKind.SELF_DOWN)
            yield StoreThrough(self.addr, 0)
        else:
            yield Fence(FenceKind.SELF_DOWN)
            yield StoreCB1(self.addr, 0)
        ctx.span_end("lock_hold")
