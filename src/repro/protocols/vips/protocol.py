"""VIPS-M-style self-invalidation / self-downgrade protocol.

This is the paper's directory-free baseline (Section 3.1, evaluated as
``BackOff-N``):

* DRF data lives in the L1 with no directory. Pages are classified
  private/shared by first touch; at a ``self_invl`` fence (acquire) every
  *shared* line is discarded from the L1, and at a ``self_down`` fence
  (release) every dirty shared word is written through to the LLC.
  Private lines are untouched by fences (VIPS-M excludes private data
  from coherence).
* Racy (synchronization) accesses bypass the L1: ``ld_through`` reads the
  word at the LLC, ``st_through``/``st_cb*`` write it through, atomics
  execute at the home bank under an MSHR lock. All of these are
  sequentially consistent among themselves because the home bank
  serializes them.
* There is no callback directory here: spin-waiting re-executes
  ``ld_through`` with exponential back-off (a ``SpinThrough`` op yielded
  by the synchronization library, run by :meth:`~VIPSProtocol.spin_through`
  as a spin record that re-probes after each pause of
  ``base * 2**min(attempt, limit)`` cycles; see
  :mod:`repro.protocols.vips.spin`).

The callback protocol subclasses this and overrides only the ``ld_cb``
gate, the ``_read_through_hook`` and the ``_on_llc_write`` hook, exactly
mirroring how the paper adds the callback directory on top of an
unchanged VIPS-M.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set

from repro.mem.cache import SetAssociativeCache
from repro.noc.messages import MsgKind
from repro.protocols import ops
from repro.protocols.base import CoherenceProtocol, Done
from repro.protocols.vips.spin import SpinRunner
from repro.protocols.vips.table import (
    drops_on_self_invl,
    flushes_on_fence,
    writes_back_on_evict,
)


class VIPSLine:
    """L1 payload: classification at fill time + dirty word tracking."""

    __slots__ = ("shared", "dirty_words")

    def __init__(self, shared: bool) -> None:
        self.shared = shared
        self.dirty_words: Set[int] = set()

    def ckpt_state(self) -> Dict[str, object]:
        """Classification + dirty-word mask (checkpoint capture)."""
        return {"shared": self.shared, "dirty": sorted(self.dirty_words)}


class VIPSProtocol(SpinRunner, CoherenceProtocol):
    """Self-invalidation + self-downgrade, LLC spinning with back-off.

    Fence and eviction decisions come from the predicates in
    :mod:`repro.protocols.vips.table` — the same predicates the
    declarative ``VIPS_L1_TABLE`` wires into its guards, so the model
    checker explores exactly the discipline executed here.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        cfg = self.config
        self.l1 = [
            SetAssociativeCache(cfg.l1_sets, cfg.l1_ways,
                                policy=cfg.l1_replacement)
            for _ in range(cfg.num_cores)
        ]
        # Fence indexes, per L1: the lines ``self_invl`` drops and the
        # lines a fence flushes (shared lines; shared lines with dirty
        # words). Fences visit only the sets holding them. Derived from
        # the L1 contents, so they stay out of ckpt_state().
        self._shared_lines: List[Set[int]] = [set() for _ in self.l1]
        self._dirty_shared_lines: List[Set[int]] = [set() for _ in self.l1]
        # Per-word atomic serialization at the home bank (LLC MSHR lock):
        # a held word maps to the FIFO of RMW thunks waiting for it.
        self._mshr_locked: Dict[int, Deque[Callable[[], None]]] = {}
        # ld_through probes and BackOff-N spins (the engine's spin heap).
        self._init_spins()

    def ckpt_state(self) -> Dict[str, object]:
        """Base capture + L1 arrays and held MSHR locks (checkpoint
        snapshottability contract)."""
        state = super().ckpt_state()
        state["l1"] = [cache.ckpt_state(lambda line: line.ckpt_state())
                       for cache in self.l1]
        # Key presence == lock held (even with an empty wait queue), so
        # every entry is captured; the value is the contention depth.
        state["mshr"] = {word: len(queue)
                         for word, queue in sorted(self._mshr_locked.items())}
        return state

    # --------------------------------------------------------- DRF data ops

    def _load(self, core: int, addr: int, done: Done) -> None:
        self.stats.l1_accesses += 1
        line = self.addr_map.line_of(addr)
        cached = self.l1[self.l1_of(core)].lookup(line)
        if cached is not None:
            self.stats.l1_hits += 1
            self.resolve_later(done, self.config.l1_latency,
                               self.store.read(self.addr_map.word_base(addr)))
        else:
            self._fetch_line(core, addr, lambda: done(
                self.store.read(self.addr_map.word_base(addr))))

    def _store(self, core: int, addr: int, value: Optional[int],
               done: Done) -> None:
        """DRF store: write-allocate in the L1, mark the word dirty; shared
        dirty words are flushed by ``self_down`` (delayed write-through)."""
        self.stats.l1_accesses += 1
        line = self.addr_map.line_of(addr)
        word = self.addr_map.word_base(addr)

        def commit() -> None:
            node = self.l1_of(core)
            cached = self.l1[node].lookup(line)
            if cached is not None:
                payload: VIPSLine = cached.payload
                payload.dirty_words.add(word)
                if flushes_on_fence(payload.shared, payload.dirty_words):
                    self._dirty_shared_lines[node].add(line)
            if value is not None:
                self.store.write(word, value)
            self.resolve_later(done, self.config.l1_latency)

        cached = self.l1[self.l1_of(core)].lookup(line)
        if cached is not None:
            self.stats.l1_hits += 1
            commit()
        else:
            self._fetch_line(core, addr, commit)

    def _fetch_line(self, core: int, addr: int, done: Callable[[], None]
                    ) -> None:
        """Line fetch from the LLC (no directory: always a 2-hop fill)."""
        self.stats.l1_misses += 1
        line = self.addr_map.line_of(addr)
        bank = self.bank_of(addr)
        node = self.l1_of(core)
        shared = self.classifier.touch(addr, node)

        def at_bank() -> None:
            wait = self.bank_service(bank, data=True)
            wait += self.llc_fill_latency(line)
            self.engine.schedule(
                wait,
                lambda: self.network.send(bank, node, MsgKind.DATA,
                                          lambda: self._fill(core, line,
                                                             shared, done)),
            )

        self.network.send(node, bank, MsgKind.GETS, at_bank)

    def _fill(self, core: int, line: int, shared: bool,
              done: Callable[[], None]) -> None:
        node = self.l1_of(core)
        _entry, victim = self.l1[node].insert(line, VIPSLine(shared))
        # A refill of a resident line replaces its payload with a clean one.
        self._unindex(node, line)
        if drops_on_self_invl(shared):
            self._shared_lines[node].add(line)
        if victim is not None:
            self._unindex(node, victim.line)
            self._write_back_victim(node, victim.line, victim.payload)
        done()

    def _unindex(self, node: int, line: int) -> None:
        """Take ``line`` out of both fence indexes of L1 ``node``."""
        self._shared_lines[node].discard(line)
        self._dirty_shared_lines[node].discard(line)

    def _write_back_victim(self, core: int, line: int, payload: VIPSLine
                           ) -> None:
        """Evicted dirty lines write their dirty words through."""
        if writes_back_on_evict(payload.dirty_words):
            bank = line % self.config.num_banks
            self.stats.words_written_through += len(payload.dirty_words)
            self.stats.writebacks += 1
            self.network.send(core, bank, MsgKind.WRITE_THROUGH, lambda: None)

    # ------------------------------------------------------- fault injection

    def drop_clean_line(self, core: int, selector: int = 0) -> Optional[int]:
        """Fault injection: silently drop one *clean* line from ``core``'s
        L1 (the ``selector``-th resident clean line, modulo their count).

        Safe by the same argument that makes self-invalidation correct:
        a clean line can always be refetched from the LLC, so a transient
        drop perturbs timing (an extra miss) but never data. Dirty lines
        are never dropped — that would lose writes, which no component of
        the modelled system does. Returns the dropped line number, or
        None if the L1 holds no clean line."""
        node = self.l1_of(core)
        l1 = self.l1[node]
        clean = [entry.line for entry in l1 if not entry.payload.dirty_words]
        if not clean:
            return None
        line = clean[selector % len(clean)]
        l1.remove(line)
        self._unindex(node, line)
        self.stats.l1_fault_drops += 1
        if self.obs is not None:
            self.obs.emit("l1.fault_drop", core=core, line=line)
        return line

    # --------------------------------------------------------------- fences

    def _op_fence(self, core: int, op: ops.Fence, done: Done) -> None:
        if op.kind is ops.FenceKind.SELF_INVL:
            # Footnote 7: self_invl also downgrades transient dirty shared
            # words so that the invalidation cannot lose data.
            flush_delay = self._flush_dirty_shared(core)
            node = self.l1_of(core)
            shared_lines = self._shared_lines[node]
            removed = self.l1[node].evict_matching(
                lambda entry: drops_on_self_invl(entry.payload.shared),
                candidates=shared_lines,
            )
            for entry in removed:
                shared_lines.discard(entry.line)
            self.stats.self_invalidations += 1
            self.stats.lines_self_invalidated += len(removed)
            if self.obs is not None:
                self.obs.emit("vips.self_invl", core=core,
                              lines=len(removed))
            self.resolve_later(done, 1 + flush_delay)
        elif op.kind is ops.FenceKind.SELF_DOWN:
            flush_delay = self._flush_dirty_shared(core)
            self.stats.self_downgrades += 1
            self.resolve_later(done, 1 + flush_delay)
        else:
            raise ValueError(f"unknown fence: {op.kind}")

    def _flush_dirty_shared(self, core: int) -> int:
        """Write all dirty shared words through to their home banks.

        Returns the fence's completion delay: the write-throughs drain in
        parallel per bank; the fence waits for the slowest ack round-trip.
        Only the sets holding indexed lines are visited, in the order a
        full scan of the L1 would visit them.
        """
        max_latency = 0
        node = self.l1_of(core)
        dirty_lines = self._dirty_shared_lines[node]
        for entry in self.l1[node].entries_in_sets_of(dirty_lines):
            payload: VIPSLine = entry.payload
            if not flushes_on_fence(payload.shared, payload.dirty_words):
                continue
            bank = entry.line % self.config.num_banks
            count = len(payload.dirty_words)
            self.stats.words_written_through += count
            payload.dirty_words.clear()
            dirty_lines.discard(entry.line)
            # One word-sized write-through message per dirty word plus one
            # ack per line (merged acks), as in VIPS-M's word-merged flush.
            for _ in range(count):
                self.network.send(node, bank, MsgKind.WRITE_THROUGH,
                                  lambda: None)
            latency = (self.network.message_latency(node, bank,
                                                    MsgKind.WRITE_THROUGH)
                       + self.bank_service(bank, data=True)
                       + self.network.message_latency(bank, node, MsgKind.ACK))
            self.network.send(bank, node, MsgKind.ACK, lambda: None)
            max_latency = max(max_latency, latency)
        return max_latency

    # ------------------------------------------------------------- racy ops

    def _op_load_through(self, core: int, op: ops.LoadThrough,
                         done: Done) -> None:
        """Racy load: bypass the L1, read the word at the home bank (a
        one-shot spin; the op itself was already traced as issued)."""
        self.start_spin(None, core, op.addr, None, done,
                        self._read_through_hook(op.addr), traced=False)

    def spin_through(self, core: Any, op: ops.SpinThrough) -> None:
        """Run ``op`` for ``core`` (a :class:`~repro.core.core.Core`):
        ``ld_through`` probes with back-off until ``op.pred`` holds, then
        ``core._resume(value)`` (see :mod:`repro.protocols.vips.spin`)."""
        self.start_spin(core, core.core_id, op.addr, op.pred, core._resume,
                        self._read_through_hook(op.addr))

    def _read_through_hook(self, addr: int
                           ) -> Optional[Callable[[int, int], None]]:
        """What each probe of ``addr`` does before leaving the core:
        nothing here (the callback protocol consumes an F/E bit)."""
        return None

    def _op_load_cb(self, core: int, op: ops.LoadCB, done: Done) -> None:
        """Without a callback directory, ld_cb degenerates to ld_through
        (the synchronization library only emits it with back-off)."""
        self._op_load_through(core, ops.LoadThrough(op.addr), done)

    def _op_write_through(self, core: int, op: ops.StoreThrough,
                          done: Done) -> None:
        """st_through / st_cbA, st_cb1 and st_cb0: write the word through
        at its home bank, then apply the write's ``op.st`` effect."""
        bank = self.bank_of(op.addr)
        word = self.addr_map.word_base(op.addr)

        def at_bank() -> None:
            wait = self.bank_service(bank, data=True, sync=True)
            self.store.write(word, op.value)
            self._on_llc_write(bank, word, op.st)
            self.engine.schedule(
                wait,
                lambda: self.network.send(bank, self.l1_of(core), MsgKind.ACK,
                                          lambda: done(None)),
            )

        self.network.send(self.l1_of(core), bank, MsgKind.STORE_THROUGH,
                          at_bank, sync=True)

    def _on_llc_write(self, bank: int, word: int, st: ops.StKind) -> None:
        """A racy write (a write-through, or an RMW that wrote) has just
        updated ``word`` at its home bank: nothing here (the callback
        protocol wakes the waiters ``st`` calls for)."""

    # -------------------------------------------------------------- atomics

    def _op_atomic(self, core: int, op: ops.Atomic, done: Done) -> None:
        """RMW at the home bank under the word's MSHR lock (Section 2.6)."""
        bank = self.bank_of(op.addr)
        word = self.addr_map.word_base(op.addr)

        def at_bank() -> None:
            self._mshr_acquire(word, lambda: self._exec_atomic(
                core, bank, word, op, done))

        self.network.send(self.l1_of(core), bank, MsgKind.ATOMIC, at_bank,
                          sync=True)

    def _exec_atomic(self, core: int, bank: int, word: int, op: ops.Atomic,
                     done: Done) -> None:
        wait = self.bank_service(bank, data=True, sync=True)
        wait += self.config.rmw_compute_cycles
        result = self.apply_rmw(op)
        if result.success:
            self._on_llc_write(bank, word, op.st)

        def respond() -> None:
            self._mshr_release(word)
            self.network.send(bank, self.l1_of(core), MsgKind.DATA_WORD,
                              lambda: done(result))

        self.engine.schedule(wait, respond)

    def _mshr_acquire(self, word: int, thunk: Callable[[], None]) -> None:
        queue = self._mshr_locked.get(word)
        if queue is None:
            self._mshr_locked[word] = deque()
            thunk()
        else:
            queue.append(thunk)

    def _mshr_release(self, word: int) -> None:
        queue = self._mshr_locked.get(word)
        if queue is None:
            raise RuntimeError(f"MSHR release without lock: {word:#x}")
        if queue:
            queue.popleft()()
        else:
            del self._mshr_locked[word]

    # ------------------------------------------------------- spinning & data

    def _op_spin_until(self, core: int, op: ops.SpinUntil,
                       done: Done) -> None:
        raise TypeError("SpinUntil (local L1 spinning) requires the MESI "
                        "baseline; self-invalidation protocols spin on the "
                        "LLC via ld_through/ld_cb")
