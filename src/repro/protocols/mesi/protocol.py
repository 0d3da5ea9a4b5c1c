"""The Invalidation baseline: a directory-based MESI protocol.

Timing/semantics summary (each step is a real engine event):

* L1 hit: 1 cycle, value from the word store. L1 lines keep only their
  MESI state: a write commits only after every other copy's
  invalidation has landed, so a resident copy always equals the store.
* L1 read miss: GetS to the home bank; the directory serializes per-line
  transactions; data comes from the LLC (2-hop) or is forwarded by the
  E/M owner (3-hop, owner also writes back). DRAM charged on LLC cold miss.
* L1 write miss / upgrade: GetX; the directory invalidates every sharer
  (Inv + Ack per sharer — acks are collected by the requester), or
  forwards to the owner; writes commit to the global word store when the
  requester has data + all acks.
* Atomics acquire M state like a store, then read-modify-write locally.
* Spin-waiting (``SpinUntil``) spins on the local L1 copy: the core blocks
  until an invalidation hits the watched line, with L1 accesses and spin
  iterations accounted analytically (elapsed / spin_iteration_cycles), then
  re-fetches and re-checks — the classic invalidate-and-refetch spin. An
  eviction of the watched line (by an SMT sibling's fill) wakes it too.
* Fences are no-ops (the MESI baseline is the paper's unfenced SC code).

Evictions: M lines write back (PutM, data-bearing); E lines notify the
directory with a control message; S lines are evicted silently (the
directory tolerates stale sharers — an Inv to a non-resident line is
acked and otherwise ignored).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.mem.cache import SetAssociativeCache
from repro.noc.messages import MsgKind
from repro.protocols import ops
from repro.protocols.base import CoherenceProtocol, Done
from repro.protocols.mesi.states import DirEntry, L1Line, MESIState, l1_step
from repro.protocols.mesi.table import MESI_DIR_TABLE
from repro.protocols.table import Event, PerCore

_GETS = PerCore(Event, "gets")
_GETX = PerCore(Event, "getx")
_PUT = PerCore(Event, "put")


class _Watch:
    """A thread blocked in SpinUntil, waiting for the L1 copy to die."""

    __slots__ = ("pred", "done", "start", "word_addr", "tid")

    def __init__(self, pred: Callable[[int], bool], done: Done,
                 start: int, word_addr: int) -> None:
        self.pred = pred
        self.done = done
        self.start = start
        self.word_addr = word_addr
        self.tid = -1


class MESIProtocol(CoherenceProtocol):
    """Directory-based MESI over the mesh ("Invalidation" in the paper)."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        cfg = self.config
        self.l1 = [
            SetAssociativeCache(cfg.l1_sets, cfg.l1_ways,
                                policy=cfg.l1_replacement)
            for _ in range(cfg.num_cores)
        ]
        self._dir: Dict[int, DirEntry] = {}
        # core -> line -> [watches] for threads parked in SpinUntil
        # (SMT siblings share an L1, so one line may carry several).
        self._watches: Dict[int, Dict[int, list]] = {}

    # ------------------------------------------------------------ utilities

    def ckpt_state(self) -> Dict[str, object]:
        """Base capture + L1 arrays, directory records, and parked
        SpinUntil watches (checkpoint snapshottability contract)."""
        state = super().ckpt_state()
        state["l1"] = [self._l1_ckpt_state(cache) for cache in self.l1]
        state["dir"] = {line: entry.ckpt_state()
                        for line, entry in sorted(self._dir.items())
                        if entry.owner is not None or entry.sharers
                        or entry.busy or entry.queue}
        state["watches"] = {
            core: {line: [[w.word_addr, w.start, w.tid] for w in watches]
                   for line, watches in sorted(per_core.items()) if watches}
            for core, per_core in sorted(self._watches.items())
            if any(per_core.values())
        }
        return state

    def _entry(self, line: int) -> DirEntry:
        entry = self._dir.get(line)
        if entry is None:
            entry = DirEntry()
            self._dir[line] = entry
        return entry

    def _l1_ckpt_state(self, cache: SetAssociativeCache) -> List[list]:
        """One L1 tag array: each resident line's MESI state and its word
        values, read from the store (a resident copy always equals it)."""
        captured = cache.ckpt_state(lambda payload: payload.state.value)
        line_bytes = self.config.line_bytes
        offsets = range(0, line_bytes, self.config.word_bytes)
        for bucket in captured[0]:
            for resident in bucket:
                base = resident[0] * line_bytes
                resident[1] = {"state": resident[1], "snapshot": {
                    base + off: self.store.read(base + off) for off in offsets}}
        return captured

    def _l1_lookup(self, tid: int, line: int) -> Optional[L1Line]:
        cached = self.l1[self._tile_of[tid]].lookup(line)
        return cached.payload if cached is not None else None

    def _l1_fill(self, tid: int, line: int, state: MESIState) -> None:
        """Install a line in the requester's L1, handling the victim."""
        core = self._tile_of[tid]
        _inserted, victim = self.l1[core].insert(line, L1Line(state))
        if victim is not None:
            self._evict(core, victim.line, victim.payload)

    def _evict(self, core: int, line: int, payload: L1Line) -> None:
        """Handle an L1 replacement victim: the L1 table names the
        action (data-bearing PutM, control PutE, or silent S drop)."""
        bank = line % self._num_banks
        actions = l1_step(payload.state, "evict")[1]
        if "putm" in actions:
            self.stats.writebacks += 1
            self.network.send(
                core, bank, MsgKind.PUTM, lambda: self._dir_put(line, core)
            )
        elif "pute" in actions:
            self.network.send(
                core, bank, MsgKind.ACK, lambda: self._dir_put(line, core)
            )
        # Otherwise: silent S eviction; the directory keeps a stale sharer.
        # After a PutM/PutE no invalidation will ever reach this L1: wake
        # the victim's spin-watchers as one would (the removal is a no-op).
        self._invalidate_l1(core, line)

    def _dir_put(self, line: int, core: int) -> None:
        entry = self._entry(line)
        step = MESI_DIR_TABLE.step(entry.view(), _PUT[core])
        entry.adopt(step.state)

    def _invalidate_l1(self, core: int, line: int) -> None:
        """An invalidation, owner-forward or eviction kills the L1 copy and
        wakes every spin-watcher parked on it (``core`` is an L1/core
        index): each books its spin iterations analytically and re-attempts
        the spin a cycle later."""
        self.l1[core].remove(line)
        watches = self._watches.get(core, {}).pop(line, None)
        if not watches:
            return
        for watch in watches:
            self._book_spin(watch)
            # The spin loop reloads immediately (invalidate-and-refetch).
            self.engine.schedule(
                1, lambda w=watch: self._spin_attempt(w.tid, w.word_addr,
                                                      w.pred, w.done)
            )

    def _check_local_watches(self, core: int, line: int) -> None:
        """A store that commits locally (M/E hit) is visible to SMT
        siblings through the shared L1 without any invalidation: re-check
        their parked spin predicates against the new value."""
        watches = self._watches.get(core, {}).get(line)
        if not watches:
            return
        still_parked = []
        for watch in watches:
            value = self.store.read(watch.word_addr)
            if watch.pred(value):
                self._book_spin(watch)
                self.resolve_later(watch.done, self.config.l1_latency,
                                   value)
            else:
                still_parked.append(watch)
        if still_parked:
            self._watches[core][line] = still_parked
        else:
            del self._watches[core][line]

    def _book_spin(self, watch: _Watch) -> None:
        """Account a waking watcher's local spin iterations analytically
        (each one an L1 hit) since it parked."""
        elapsed = max(0, self.engine.now - watch.start)
        iters = max(1, elapsed // self.config.spin_iteration_cycles)
        self.stats.spin_iterations += iters
        self.stats.l1_accesses += iters
        self.stats.l1_hits += iters
        if self.obs is not None:
            self.obs.emit("spin.wake", core=watch.tid,
                          word=watch.word_addr, iters=iters)

    # ----------------------------------------------------- directory engine

    def _dir_request(self, line: int, thunk: Callable[[], None]) -> None:
        """Run ``thunk`` when the line is free, serializing transactions."""
        entry = self._entry(line)
        if entry.busy:
            entry.queue.append(thunk)
        else:
            entry.busy = True
            thunk()

    def _dir_release(self, line: int) -> None:
        entry = self._entry(line)
        if not entry.busy:
            raise RuntimeError(f"directory release of idle line {line:#x}")
        if entry.queue:
            thunk = entry.queue.pop(0)
            self.engine.schedule(0, thunk)
        else:
            entry.busy = False

    # A queued thunk runs with busy still held by convention: _dir_release
    # pops the next thunk without clearing busy, so exactly one transaction
    # is in flight per line.

    # ----------------------------------------------------------------- GetS

    def _get_s(self, core: int, line: int, on_fill: Callable[[], None],
               sync: bool) -> None:
        """Issue a GetS from ``core``; call ``on_fill`` once the line is in
        its L1 (in S or E)."""
        self.stats.l1_misses += 1
        bank = line % self._num_banks
        self.network.send(
            self._tile_of[core], bank, MsgKind.GETS,
            lambda: self._dir_request(
                line, lambda: self._dir_gets(core, line, bank, on_fill, sync)
            ),
            sync=sync,
        )

    def _dir_gets(self, tid: int, line: int, bank: int,
                  on_fill: Callable[[], None], sync: bool) -> None:
        """Directory identities (owner/sharers) are L1/core indices; the
        requesting hardware thread keeps its tid for the fill. The
        decision (forward vs. fill, E vs. S) comes from the declarative
        directory table; this method adds the timing and messaging."""
        node = self._tile_of[tid]
        entry = self._entry(line)
        step = MESI_DIR_TABLE.step(entry.view(), _GETS[node])
        if step.transition.name == "gets_forward":
            for emit in step.emits:
                if emit.kind == "fwd":
                    owner = emit.core
            assert owner is not None
            self.stats.forwards += 1
            wait = self.bank_service(bank, data=False, sync=sync)
            # Fwd to owner; owner downgrades to S, sends data to requester
            # and a (data) copy back to the LLC.
            def at_owner() -> None:
                cached = self.l1[owner].lookup(line)
                if cached is not None:
                    cached.payload.transition("fwd_gets")
                self.network.send(owner, bank, MsgKind.DATA, lambda: None)
                self.stats.writebacks += 1
                self.network.send(
                    owner, node, MsgKind.DATA,
                    lambda: self._finish_gets(tid, line, MESIState.SHARED,
                                              on_fill),
                )
            self.engine.schedule(wait,
                                 lambda: self.network.send(bank, owner,
                                                           MsgKind.FWD,
                                                           at_owner))
            entry.adopt(step.state)
        else:
            wait = self.bank_service(bank, data=True, sync=sync)
            wait += self.llc_fill_latency(line)
            for emit in step.emits:
                if emit.kind == "data":
                    state = (MESIState.EXCLUSIVE if emit.get("grant") == "E"
                             else MESIState.SHARED)
            entry.adopt(step.state)
            self.engine.schedule(
                wait,
                lambda: self.network.send(
                    bank, node, MsgKind.DATA,
                    lambda: self._finish_gets(tid, line, state, on_fill),
                ),
            )

    def _finish_gets(self, core: int, line: int, state: MESIState,
                     on_fill: Callable[[], None]) -> None:
        self._l1_fill(core, line, state)
        # Unblock the directory (free bookkeeping event, modelling the
        # piggybacked Unblock of split-transaction MESI).
        self._dir_release(line)
        on_fill()

    # ----------------------------------------------------------------- GetX

    def _get_x(self, core: int, line: int, on_owned: Callable[[], None],
               sync: bool) -> None:
        """Obtain M state for ``core``, which holds the line in neither E
        nor M (callers handle those hits); call ``on_owned`` when writable."""
        self.stats.l1_misses += 1
        bank = line % self._num_banks
        self.network.send(
            self._tile_of[core], bank, MsgKind.GETX,
            lambda: self._dir_request(
                line, lambda: self._dir_getx(core, line, bank, on_owned, sync)
            ),
            sync=sync,
        )

    def _dir_getx(self, tid: int, line: int, bank: int,
                  on_owned: Callable[[], None], sync: bool) -> None:
        node = self._tile_of[tid]
        entry = self._entry(line)
        step = MESI_DIR_TABLE.step(entry.view(), _GETX[node])
        if step.transition.name == "getx_forward":
            for emit in step.emits:
                if emit.kind == "fwd":
                    owner = emit.core
            assert owner is not None
            self.stats.forwards += 1
            wait = self.bank_service(bank, data=False, sync=sync)

            def at_owner() -> None:
                self._invalidate_l1(owner, line)
                self.network.send(
                    owner, node, MsgKind.DATA,
                    lambda: self._finish_getx(tid, line, on_owned),
                )

            self.engine.schedule(
                wait, lambda: self.network.send(bank, owner, MsgKind.FWD,
                                                at_owner))
            entry.adopt(step.state)
            return

        # The table plans the invalidation fan-out (ascending sharer
        # order), then whether the requester needs data or just an ack.
        *invs, granted = step.emits
        sharers = [emit.core for emit in invs]
        was_sharer = granted.kind == "grant"
        entry.adopt(step.state)

        # Completion requires the grant/data plus one ack per invalidated
        # sharer, all collected at the requester.
        pending = {"count": 1 + len(sharers)}

        def arrived() -> None:
            pending["count"] -= 1
            if pending["count"] == 0:
                self._finish_getx(tid, line, on_owned)

        wait = self.bank_service(bank, data=not was_sharer, sync=sync)
        if not was_sharer:
            wait += self.llc_fill_latency(line)

        for sharer in sharers:
            assert sharer is not None
            self.stats.invalidations_sent += 1
            if self.obs is not None:
                self.obs.emit("mesi.inv", line=line, sharer=sharer,
                              requester=node)

            def make_inv(s: int) -> Callable[[], None]:
                def at_sharer() -> None:
                    self._invalidate_l1(s, line)
                    self.stats.invalidation_acks += 1
                    self.network.send(s, node, MsgKind.ACK, arrived)
                return at_sharer

            self.engine.schedule(
                wait, lambda s=sharer: self.network.send(bank, s, MsgKind.INV,
                                                         make_inv(s)))

        grant_kind = MsgKind.ACK if was_sharer else MsgKind.DATA
        self.engine.schedule(
            wait, lambda: self.network.send(bank, node, grant_kind, arrived))

    def _finish_getx(self, core: int, line: int,
                     on_owned: Callable[[], None]) -> None:
        self._l1_fill(core, line, MESIState.MODIFIED)
        self._dir_release(line)
        on_owned()

    # ------------------------------------------------------------------ ops

    def _load(self, core: int, addr: int, done: Done) -> None:
        stats = self.stats
        stats.l1_accesses += 1
        line = addr // self._line_bytes
        if self.l1[self._tile_of[core]].lookup(line) is not None:
            stats.l1_hits += 1
            self.resolve_later(done, self.config.l1_latency,
                               self.store.read(addr))
        else:
            self._get_s(core, line,
                        lambda: done(self.store.read(addr)),
                        sync=False)

    def _store(self, core: int, addr: int, value: Optional[int],
               done: Done) -> None:
        stats = self.stats
        stats.l1_accesses += 1
        line = addr // self._line_bytes
        node = self._tile_of[core]

        def commit() -> None:
            if value is not None:
                self.store.write(addr, value)
                self._check_local_watches(node, line)
            self.resolve_later(done, self.config.l1_latency)

        cached = self.l1[node].lookup(line)
        if cached is not None and cached.payload.state in (
                MESIState.MODIFIED, MESIState.EXCLUSIVE):
            stats.l1_hits += 1
            cached.payload.transition("store")
            commit()
        else:
            self._get_x(core, line, commit, sync=value is not None)

    def _op_atomic(self, core: int, op: ops.Atomic, done: Done) -> None:
        """RMWs acquire M state and execute locally (ll/sc-free model)."""
        stats = self.stats
        stats.l1_accesses += 1
        line = op.addr // self._line_bytes
        node = self._tile_of[core]

        def owned() -> None:
            result = self.apply_rmw(op)
            self._check_local_watches(node, line)
            self.resolve_later(done,
                               self.config.l1_latency +
                               self.config.rmw_compute_cycles,
                               result)

        cached = self.l1[node].lookup(line)
        if cached is not None and cached.payload.state in (
                MESIState.MODIFIED, MESIState.EXCLUSIVE):
            stats.l1_hits += 1
            cached.payload.transition("store")
            owned()
        else:
            self._get_x(core, line, owned, sync=True)

    # MESI racy ops fall back to their plain equivalents: the baseline has
    # no notion of through/callback accesses (synchronization code for MESI
    # uses plain loads/stores/atomics, Figures 8-18 left-hand sides).
    def _op_load_through(self, core: int, op: ops.LoadThrough,
                         done: Done) -> None:
        self._load(core, op.addr, done)

    def _op_write_through(self, core: int, op: ops.StoreThrough,
                          done: Done) -> None:
        self._store(core, op.addr, op.value, done)

    def _op_load_cb(self, core: int, op: ops.LoadCB, done: Done) -> None:
        raise TypeError("ld_cb is not available under the MESI baseline; "
                        "MESI spin-waiting uses SpinUntil (local spinning)")

    def spin_through(self, core: Any, op: ops.SpinThrough) -> None:
        raise TypeError("SpinThrough (LLC spinning with back-off) requires "
                        "a self-invalidation protocol; MESI spin-waiting "
                        "uses SpinUntil (local spinning)")

    def _op_fence(self, core: int, op: ops.Fence, done: Done) -> None:
        self.resolve_later(done, 1)

    # ------------------------------------------------------------- spinning

    def _op_spin_until(self, core: int, op: ops.SpinUntil,
                       done: Done) -> None:
        addr = op.addr
        self._spin_attempt(core, addr - addr % self._word_bytes, op.pred,
                           done)

    def _spin_attempt(self, core: int, word_addr: int,
                      pred: Callable[[int], bool], done: Done) -> None:
        line = word_addr // self._line_bytes
        stats = self.stats
        stats.l1_accesses += 1
        if self.l1[self._tile_of[core]].lookup(line) is not None:
            stats.l1_hits += 1
            value = self.store.read(word_addr)
            if pred(value):
                self.resolve_later(done, self.config.l1_latency, value)
            else:
                self._park_watch(core, line, word_addr, pred, done)
            return

        def filled() -> None:
            value = self.store.read(word_addr)
            if pred(value):
                done(value)
            else:
                self._park_watch(core, line, word_addr, pred, done)

        self._get_s(core, line, filled, sync=True)

    def _park_watch(self, tid: int, line: int, word_addr: int,
                    pred: Callable[[int], bool], done: Done) -> None:
        watch = _Watch(pred, done, self.engine.now, word_addr)
        watch.tid = tid
        bucket = self._watches.setdefault(self._tile_of[tid], {})
        bucket.setdefault(line, []).append(watch)
        if self.obs is not None:
            self.obs.emit("spin.park", core=tid, word=word_addr)

    def parked_cores(self) -> int:
        """Threads blocked in a SpinUntil watch right now."""
        return sum(len(watches) for per_line in self._watches.values()
                   for watches in per_line.values())
