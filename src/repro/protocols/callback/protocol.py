"""VIPS-M + the callback directory (the paper's CB-All / CB-One systems).

Everything else is inherited unchanged from :class:`VIPSProtocol` — the
callback mechanism only adds a directory gate and a write hook, exactly
as in the paper where the callback directory is bolted onto VIPS-M without
modifying the underlying protocol.

Operation mapping (Figure 2):

* ``ld_cb`` consults the callback directory *before* the LLC (1 extra
  cycle). If its F/E bit permits, it proceeds to the LLC and returns the
  word; otherwise it parks in the directory — **no LLC access, no retry
  traffic** — until a write (or an eviction) wakes it with the value.
* ``ld_through`` consumes the F/E bit of an existing entry but never
  installs one and never blocks.
* ``st_through``/``st_cbA``, ``st_cb1``, ``st_cb0`` perform the normal
  write-through; the callback directory is accessed in parallel (no added
  latency) and wakes all / one / no waiters.
* Atomics whose load half is ``ld_cb`` can be held in the directory; when
  woken they execute at the LLC under the MSHR lock (Section 2.6), and
  their store half applies its st_cb* effect only if the RMW actually
  wrote (a failed T&S wakes nobody).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.noc.messages import MsgKind
from repro.protocols import ops
from repro.protocols.base import Done
from repro.protocols.callback.directory import CallbackDirectory
from repro.protocols.callback.entry import Waiter
from repro.protocols.vips.protocol import VIPSProtocol


class CallbackProtocol(VIPSProtocol):
    """Self-invalidation coherence with callbacks for spin-waiting."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.cb_dirs = [
            CallbackDirectory(self.config, self.stats, bank)
            for bank in range(self.config.num_banks)
        ]

    def ckpt_state(self) -> dict:
        """VIPS capture + the per-bank callback directories (F/E, CB and
        A/O bits, parked waiters, wake-policy RNG digest)."""
        state = super().ckpt_state()
        state["cb_dirs"] = [d.ckpt_state() for d in self.cb_dirs]
        return state

    # ------------------------------------------------------------- waiters

    def _wake_with_value(self, bank: int, waiter: Waiter, word: int) -> None:
        """Answer a parked callback with the word's current value."""
        # The core was quiescent from park to wake — the window in which
        # it could have slept (Section 2.1's power-saving observation).
        self.stats.cb_parked_cycles += max(0, self.engine.now - waiter.since)
        if self.obs is not None:
            self.obs.emit("cb.wake", core=waiter.core, word=word, bank=bank,
                          parked=self.engine.now - waiter.since)
        value = self.store.read(word)
        waiter.wake(value)

    def parked_cores(self) -> int:
        """Threads currently parked in the callback directory."""
        return sum(d.parked_waiters() for d in self.cb_dirs)

    def _drain_evicted(self, bank: int, evicted: List[Waiter]) -> None:
        """Answer callbacks orphaned by a directory replacement with the
        current value of the word they were parked on (Section 2.3.1)."""
        for waiter in evicted:
            self._wake_with_value(bank, waiter, waiter.word)

    def force_cb_eviction(self, bank: int, word: int) -> int:
        """Fault injection: evict ``word``'s directory entry (if resident)
        at the current cycle, answering its callbacks with the current
        value — the disruption the paper claims is always safe. Returns
        the number of waiters woken."""
        evicted = self.cb_dirs[bank].force_evict(word)
        self._drain_evicted(bank, evicted)
        return len(evicted)

    # --------------------------------------------------------------- ld_cb

    def _cb_gate(self, core: int, bank: int, word: int,
                 proceed: Callable[[], None],
                 on_wake: Callable[[int], None]) -> None:
        """The callback-directory access that precedes the LLC for an
        ``ld_cb`` load or RMW (Figure 2): ``proceed()`` now if the issuer's
        F/E bit permits, else park the issuer — no LLC access, no retry
        traffic — until a write (or an eviction) calls ``on_wake(value)``.
        """
        directory = self.cb_dirs[bank]
        entry, evicted = directory.get_or_install(word)
        self._drain_evicted(bank, evicted)
        if entry.try_consume(core):
            self.stats.cb_immediate_reads += 1
            proceed()
            return
        self.stats.cb_blocked_reads += 1
        entry.park(Waiter(core, on_wake, self.engine.now))
        if self.obs is not None:
            self.obs.emit("cb.park", core=core, word=word, bank=bank)
        directory.note_activity()

    def _op_load_cb(self, core: int, op: ops.LoadCB, done: Done) -> None:
        addr = op.addr
        line = addr // self._line_bytes
        bank = line % self._num_banks
        word = addr - addr % self._word_bytes
        node = self._tile_of[core]

        def read() -> None:
            wait = self.config.cb_latency
            wait += self.bank_service(bank, data=True, sync=True)
            wait += self.llc_fill_latency(line)
            self.engine.schedule(
                wait,
                lambda: self.network.send(
                    bank, node, MsgKind.DATA_WORD,
                    lambda: done(self.store.read(word))),
                "cb.read_reply",
            )

        def woken(value: int) -> None:
            self.network.send(bank, node, MsgKind.WAKEUP,
                              lambda: done(value))

        self.network.send(node, bank, MsgKind.LOAD_CB,
                          lambda: self._cb_gate(core, bank, word, read, woken),
                          sync=True)

    # ---------------------------------------------------------- ld_through

    def _read_through_hook(self, addr: int
                           ) -> Optional[Callable[[int, int], None]]:
        """Each probe first consumes the issuer's F/E bit of an existing
        directory entry (Table 1), then goes to the LLC as under VIPS."""
        return self.cb_dirs[
            addr // self._line_bytes % self._num_banks].on_read_through

    # -------------------------------------------------------------- writes

    def _on_llc_write(self, bank: int, word: int, st: ops.StKind) -> None:
        """The directory is accessed in parallel with the LLC write (no
        added latency) and wakes the waiters ``st`` calls for."""
        for waiter in self.cb_dirs[bank].on_write(word, st):
            self._wake_with_value(bank, waiter, word)

    # ------------------------------------------------------------- atomics

    def _op_atomic(self, core: int, op: ops.Atomic, done: Done) -> None:
        """An ld_cb RMW passes the directory gate first, so the whole RMW
        can be held off there (Figures 5/6, Section 2.6); once through,
        it executes at the LLC as under VIPS. Plain-load RMWs go straight
        to the LLC."""
        if op.ld is not ops.LdKind.CB:
            super()._op_atomic(core, op, done)
            return
        addr = op.addr
        bank = addr // self._line_bytes % self._num_banks
        word = addr - addr % self._word_bytes

        def execute(_value: object = None) -> None:
            self._mshr_acquire(word, lambda: self._exec_atomic(
                core, bank, word, op, done))

        self.network.send(self._tile_of[core], bank, MsgKind.LOAD_CB,
                          lambda: self._cb_gate(core, bank, word, execute,
                                                execute),
                          sync=True)
