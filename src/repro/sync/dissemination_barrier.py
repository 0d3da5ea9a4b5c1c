"""Dissemination barrier (Mellor-Crummey & Scott [19]) — an extension.

ceil(log2(n)) rounds; in round k, thread i signals thread
(i + 2^k) mod n and waits for a signal from (i - 2^k) mod n. There is no
root and no release phase: after the last round everyone has
transitively heard from everyone.

Flags are sense-reversed and *round-specific* (one word per thread per
round), so each word has exactly one writer and one spinner — like CLH
and TreeSR, both callback modes behave identically, and signalling
writes are plain st_through. This makes the dissemination barrier
another clean fit for callbacks: each round's wait is one parked ld_cb
answered by one wakeup message, where back-off pays a probe storm on
every round boundary.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.protocols.ops import (Fence, FenceKind, LoadCB, LoadThrough,
                                 SpinThrough, SpinUntil, Store, StoreThrough)
from repro.sync.base import SyncPrimitive, SyncStyle


class DisseminationBarrier(SyncPrimitive):
    """log2(n)-round dissemination barrier in all four encodings."""

    def __init__(self, style: SyncStyle, num_threads: int) -> None:
        super().__init__(style)
        self.num_threads = num_threads
        self.rounds = max(1, math.ceil(math.log2(max(2, num_threads))))
        # flags[tid][round] — written by the round-k predecessor of tid.
        self._flags: List[List[int]] = []
        self._local_sense: Dict[int, int] = {}

    def setup(self, layout, num_threads: int) -> None:
        if num_threads != self.num_threads:
            raise ValueError("barrier thread count mismatch")
        self._flags = [
            [layout.alloc_sync_word() for _ in range(self.rounds)]
            for _ in range(num_threads)
        ]
        self._local_sense = {tid: 0 for tid in range(num_threads)}
        self._ready = True

    def initial_values(self) -> dict:
        return {
            addr: 0
            for per_thread in self._flags
            for addr in per_thread
        }

    # ------------------------------------------------------------------ wait

    def wait(self, ctx):
        self._require_ready()
        if self.num_threads == 1:
            return
        start = ctx.now
        tid = ctx.tid
        sense = 1 - self._local_sense[tid]
        self._local_sense[tid] = sense

        if self.style is not SyncStyle.MESI:
            yield Fence(FenceKind.SELF_DOWN)

        for round_index in range(self.rounds):
            partner = (tid + (1 << round_index)) % self.num_threads
            # Signal the partner's flag for this round with my sense.
            yield from self._signal(self._flags[partner][round_index],
                                    sense)
            # Wait for my own flag for this round to reach my sense.
            yield from self._spin_equals(self._flags[tid][round_index],
                                         sense)

        if self.style is not SyncStyle.MESI:
            yield Fence(FenceKind.SELF_INVL)
        ctx.record_episode("barrier_wait", start)

    # ---------------------------------------------------------------- helpers

    def _signal(self, addr: int, value: int):
        if self.style is SyncStyle.MESI:
            yield Store(addr, value)
        else:
            yield StoreThrough(addr, value)

    def _spin_equals(self, addr: int, target: int):
        if self.style is SyncStyle.MESI:
            yield SpinUntil(addr, lambda v, t=target: v == t)
        elif self.style is SyncStyle.VIPS:
            yield SpinThrough(addr, lambda v, t=target: v == t)
        else:
            value = yield LoadThrough(addr)
            while value != target:
                value = yield LoadCB(addr)
