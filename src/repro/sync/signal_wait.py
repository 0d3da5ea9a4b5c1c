"""Signal/wait synchronization over a counting flag (Figures 18 and 19).

``signal`` increments a counter with fetch&increment; each ``wait`` spins
until the counter is non-zero and then claims one signal with a
test&decrement. Each signal wakes exactly one waiter, so callback-one
({ld}&{st_cb1} in the signal) is the efficient encoding; callback-all
({ld}&{st_cbA}) is the safe broadcast variant (Section 3.4.6). The
claiming t&d uses st_cb0 in both callback encodings — a successful claim
must not wake other waiters.
"""

from __future__ import annotations

from repro.protocols.ops import (Atomic, AtomicKind, Fence, FenceKind,
                                 LdKind, LoadCB, LoadThrough, SpinThrough,
                                 SpinUntil, StKind)
from repro.sync.base import SyncPrimitive, SyncStyle


class SignalWait(SyncPrimitive):
    """Counting signal/wait in all four encodings."""

    def __init__(self, style: SyncStyle) -> None:
        super().__init__(style)
        self.counter_addr = -1

    def setup(self, layout, num_threads: int) -> None:
        self.counter_addr = layout.alloc_sync_word()
        self._ready = True

    def initial_values(self) -> dict:
        return {self.counter_addr: 0}

    # ---------------------------------------------------------------- signal

    def signal(self, ctx):
        """Post one signal (wakes one waiter)."""
        self._require_ready()
        if self.style is SyncStyle.MESI:
            yield Atomic(self.counter_addr, AtomicKind.FETCH_ADD, (1,))
        elif self.style is SyncStyle.VIPS:
            yield Fence(FenceKind.SELF_DOWN)
            yield Atomic(self.counter_addr, AtomicKind.FETCH_ADD, (1,))
        elif self.style is SyncStyle.CB_ALL:
            yield Fence(FenceKind.SELF_DOWN)
            yield Atomic(self.counter_addr, AtomicKind.FETCH_ADD, (1,),
                         ld=LdKind.PLAIN, st=StKind.CBA)
        else:
            yield Fence(FenceKind.SELF_DOWN)
            yield Atomic(self.counter_addr, AtomicKind.FETCH_ADD, (1,),
                         ld=LdKind.PLAIN, st=StKind.CB1)
        ctx.mark("signal.post")

    # ------------------------------------------------------------------ wait

    def wait(self, ctx):
        """Consume one signal, spinning until one is available."""
        self._require_ready()
        start = ctx.now
        if self.style is SyncStyle.MESI:
            while True:
                yield SpinUntil(self.counter_addr, lambda v: v != 0)
                result = yield Atomic(self.counter_addr, AtomicKind.TDEC)
                if result.success:
                    break
        elif self.style is SyncStyle.VIPS:
            while True:
                yield SpinThrough(self.counter_addr, lambda v: v != 0)
                result = yield Atomic(self.counter_addr, AtomicKind.TDEC)
                if result.success:
                    break
            yield Fence(FenceKind.SELF_INVL)
        else:
            # Figure 19: try: ld_through; bnez tad; spn: ld_cb; beqz spn;
            # tad: {ld}&{st_cb0} t&d; beqz spn.
            value = yield LoadThrough(self.counter_addr)
            while True:
                if value != 0:
                    result = yield Atomic(self.counter_addr, AtomicKind.TDEC,
                                          ld=LdKind.PLAIN, st=StKind.CB0)
                    if result.success:
                        break
                while True:
                    value = yield LoadCB(self.counter_addr)
                    if value != 0:
                        break
            yield Fence(FenceKind.SELF_INVL)
        ctx.record_episode("wait", start)
