"""BackOff-N spinning on the LLC: ``ld_through`` probes as spin records.

A :class:`~repro.protocols.ops.SpinThrough` re-probes one word at its
home LLC bank until a predicate holds, backing off between probes. Each
probe is four engine events:

1. **at_bank** — the request reaches the bank and claims its port for a
   data access (plus a DRAM fill on the line's first touch);
2. **reply** — the access completes and the word is sent back;
3. **deliver** — the word reaches the core and is tested: on success the
   thread resumes with it, otherwise the failed probe retires one op and
   a back-off pause is booked;
4. **pause** — the pause ends, retiring one more op, and the next probe
   is sent.

Those events live in the engine's spin heap as ``(time, seq, phase,
spin)`` entries, where ``spin`` is a :class:`Spin` record built once per
spin with every lookup a probe needs (bank port, word, line, per-message
latency and traffic, the callback directory's F/E-bit hook).
:meth:`SpinRunner.run_spins` executes the phases inline — no closure, no
``Network.send``, no ``Engine.schedule`` and no ``bank_service`` call
per phase — while the spin head comes before the engine's general head
by ``(time, seq)``. Each phase is still one engine event, queued with
the next ``seq`` at the point the op-by-op ``LoadThrough`` /
``BackoffWait`` loop would queue it, so results, stats and event counts
are that loop's (``tests/spin_loop.py`` keeps it as the reference). A
phase that queues its own spin's next phase swaps its heap entry for it
in one sift (``heapreplace``), and the counters of inline phases are
tallied in locals and booked onto ``Stats`` before the runner calls out
of itself or returns.

When anything observes or perturbs messages (a NoC fault hook, link
contention, telemetry's ``noc.send`` probe and in-flight gauge), the
runner books each message through :meth:`Network.book
<repro.noc.network.Network.book>`, the same accounting
:meth:`~repro.noc.network.Network.send` uses; a core with a back-off
fault hook or telemetry books its pause through ``Core._backoff``; a
:class:`~repro.trace.recorder.TraceRecorder` is told of every probe
through ``CoherenceProtocol.probe_hook``; and with an engine profile
hook each phase runs as one :meth:`SpinRunner.step_spin` handed to it.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import Any, Callable, Optional

from repro.noc.messages import MsgKind
from repro.sim.engine import NO_LIMIT, SimulationError

AT_BANK, REPLY, DELIVER, PAUSE = range(4)
#: Phase names, as listed in ``Engine.ckpt_state()``.
PHASE_LABELS = ("spin.at_bank", "spin.reply", "spin.deliver", "spin.pause")

_LOAD_THROUGH = MsgKind.LOAD_THROUGH._value_
_DATA_WORD = MsgKind.DATA_WORD._value_


class Spin:
    """One core's spin on one word: everything a probe needs, looked up
    once. ``pred`` None makes a one-shot ``ld_through``; ``runner`` is
    the protocol that runs the spin's engine events."""

    __slots__ = ("runner", "core", "core_id", "addr", "node", "bank",
                 "port", "word", "key", "line", "pred", "done", "attempt",
                 "read_through", "inflight", "req_latency", "req_flits",
                 "req_flit_hops", "req_byte_hops", "resp_latency",
                 "resp_flits", "resp_flit_hops", "resp_byte_hops")

    def __init__(self, runner: "SpinRunner", core: Any, core_id: int,
                 addr: int, node: int, bank: int, port: Any, word: int,
                 key: int, line: int,
                 pred: Optional[Callable[[int], bool]],
                 done: Callable[[int], None],
                 read_through: Optional[Callable[[int, int], None]],
                 request: tuple, response: tuple) -> None:
        self.runner = runner
        self.core = core
        self.core_id = core_id
        self.addr = addr
        self.node = node
        self.bank = bank
        self.port = port
        self.word = word
        self.key = key
        self.line = line
        self.pred = pred
        self.done = done
        self.attempt = 0
        self.read_through = read_through
        #: Flits to release from the in-flight gauge on delivery.
        self.inflight = 0
        (self.req_latency, self.req_flits, self.req_flit_hops,
         self.req_byte_hops) = request
        (self.resp_latency, self.resp_flits, self.resp_flit_hops,
         self.resp_byte_hops) = response


class SpinRunner:
    """Mixin of :class:`~repro.protocols.vips.protocol.VIPSProtocol`:
    builds :class:`Spin` records and runs their phases from the engine's
    spin heap, with the protocol's engine, network, stats, store and bank
    ports. The engine reaches it through each record's ``runner``, so a
    finished machine holds no engine-to-protocol reference cycle."""

    def _init_spins(self) -> None:
        config = self.config
        # Back-off delay by attempt, up to the cap.
        self._spin_backoff = tuple(
            config.backoff_delay(attempt)
            for attempt in range(config.backoff_limit + 1))

    @staticmethod
    def spin_label(phase: int) -> str:
        return PHASE_LABELS[phase]

    # ------------------------------------------------------------ starting

    def start_spin(self, core: Any, core_id: int, addr: int,
                   pred: Optional[Callable[[int], bool]],
                   done: Callable[[int], None],
                   read_through: Optional[Callable[[int, int], None]],
                   traced: bool = True) -> None:
        """Build ``core_id``'s spin on ``addr`` and send its first probe
        now. ``done(value)`` gets the first probed value satisfying
        ``pred`` (any value when ``pred`` is None). ``traced`` False
        keeps the first probe from ``probe_hook`` (an issued
        ``LoadThrough`` was traced as the op)."""
        line = addr // self._line_bytes
        bank = line % self._num_banks
        node = self._tile_of[core_id]
        word = addr - addr % self._word_bytes
        network = self.network
        spin = Spin(self, core, core_id, addr, node, bank, self.banks[bank],
                    word, self.store._key(word), line, pred, done,
                    read_through,
                    network.route_facts(node, bank, MsgKind.LOAD_THROUGH),
                    network.route_facts(bank, node, MsgKind.DATA_WORD))
        self._fire_probe(spin, network.plain(), traced)

    def _fire_probe(self, spin: Spin, fast: bool,
                    traced: bool = True) -> None:
        """Send one probe of ``spin``: the trace hook, the F/E-bit hook,
        the probe count, then the request to the home bank (booked
        inline when ``fast``: the network is plain)."""
        if traced and self.probe_hook is not None:
            self.probe_hook(spin.core_id, spin.addr)
        if spin.read_through is not None:
            spin.read_through(spin.word, spin.core_id)
        stats = self.stats
        stats.llc_spin_probes += 1
        if fast:
            stats.messages += 1
            stats.flits += spin.req_flits
            stats.flit_hops += spin.req_flit_hops
            stats.byte_hops += spin.req_byte_hops
            stats.msg_kinds[_LOAD_THROUGH] += 1
            engine = self.engine
            seq = engine._seq
            engine._seq = seq + 1
            heappush(engine._spins, (engine.now + spin.req_latency, seq,
                                     AT_BANK, spin))
        else:
            self._book_probe(spin, spin.node, spin.bank,
                             MsgKind.LOAD_THROUGH, True, AT_BANK)

    def _book_probe(self, spin: Spin, src: int, dst: int, kind: MsgKind,
                    sync: bool, phase: int) -> None:
        """Book one message through the network and queue ``phase`` for
        its delivery (then any fault-injected duplicates)."""
        network = self.network
        latency, spin.inflight, duplicates = network.book(src, dst, kind,
                                                          sync)
        self.engine.push_spin(latency, phase, spin)
        if duplicates:
            network.send_duplicates(src, dst, kind, latency, duplicates)

    # ------------------------------------------------------------- running

    def step_spin(self) -> None:
        """Run the spin head (the engine checked it comes first)."""
        self.run_spins(NO_LIMIT, 1, 0)

    def run_spins(self, stop_time: int, stop_events: int,
                  executed: int) -> int:
        """Execute spin-heap entries while the spin head comes first, its
        time is at most ``stop_time`` and ``executed < stop_events``;
        returns ``executed`` plus the events run. Where a budget stops
        it, ``Engine.run`` finds the same head and applies its checks.

        A phase that queues its own spin's next phase and calls nothing
        outside the runner replaces its heap entry (``heapreplace``: one
        sift). A phase that calls out (``spin.done``, a hooked send,
        probe or pause) pops its entry first, so the callee sees the
        heaps the op-by-op loop would show it. Delays queued inline are
        never negative: they come from the validated configuration
        (latencies, header size, back-off) or are clamped to >= 1; a
        hooked latency goes through ``Engine.push_spin``, which rejects
        a negative one.

        Counters the inline phases bump are tallied in locals and booked
        onto ``stats`` by ``book()`` before every call out of the runner
        and when it returns or raises, so no one outside the runner ever
        sees a partial count."""
        engine = self.engine
        network = self.network
        spins, queue, daemons = engine._spins, engine._queue, engine._daemons
        stats = self.stats
        kinds = stats.msg_kinds
        values = self.store._values
        present = self._llc_present
        data_latency = self.config.llc_data_latency
        backoff = self._spin_backoff
        last = len(backoff) - 1
        # One "anything attached?" check per call: observers and hooks
        # are attached before a run, never by a spin phase.
        fast = network.plain()
        # A pause sends the next probe itself unless a trace hook or
        # (per spin) an F/E-bit hook must see it.
        fire_inline = fast and self.probe_hook is None
        # Tallies: LLC data accesses, requests and replies sent inline
        # (each request is one probe), their flits, flit-hops and
        # byte-hops, and back-off cycles.
        accesses = requests = replies = 0
        flits = flit_hops = byte_hops = backed_off = 0

        def book() -> None:
            nonlocal accesses, requests, replies, flits, flit_hops
            nonlocal byte_hops, backed_off
            if accesses:
                stats.llc_accesses += accesses
                stats.llc_data_accesses += accesses
                stats.llc_sync_accesses += accesses
                accesses = 0
            if requests or replies:
                stats.messages += requests + replies
                stats.flits += flits
                stats.flit_hops += flit_hops
                stats.byte_hops += byte_hops
                flits = flit_hops = byte_hops = 0
                if requests:
                    stats.llc_spin_probes += requests
                    kinds[_LOAD_THROUGH] += requests
                    requests = 0
                if replies:
                    kinds[_DATA_WORD] += replies
                    replies = 0
            if backed_off:
                stats.backoff_cycles += backed_off
                backed_off = 0

        now = engine.now
        try:
            while spins:
                entry = spins[0]
                if ((queue and queue[0] < entry)
                        or (daemons and daemons[0] < entry)):
                    break
                time, _seq, phase, spin = entry
                if time > stop_time or executed >= stop_events:
                    break
                if time < now:
                    raise SimulationError(
                        "event heap corrupted: time moved backwards")
                engine.now = now = time
                executed += 1
                if spin.inflight:
                    network.inflight_flits -= spin.inflight
                    spin.inflight = 0
                if phase == AT_BANK:
                    # bank_service(bank, data=True, sync=True) + the
                    # line's first-touch fill, then the reply leaves the
                    # bank.
                    port = spin.port
                    busy = port.busy_until
                    ready = (now if now > busy else busy) + data_latency
                    port.busy_until = ready
                    accesses += 1
                    wait = ready - now
                    if spin.line not in present:
                        book()
                        wait += self.llc_fill_latency(spin.line)
                    seq = engine._seq
                    engine._seq = seq + 1
                    heapreplace(spins, (now + wait, seq, REPLY, spin))
                elif phase == REPLY:
                    if fast:
                        replies += 1
                        flits += spin.resp_flits
                        flit_hops += spin.resp_flit_hops
                        byte_hops += spin.resp_byte_hops
                        seq = engine._seq
                        engine._seq = seq + 1
                        heapreplace(spins, (now + spin.resp_latency, seq,
                                            DELIVER, spin))
                    else:
                        heappop(spins)
                        book()
                        self._book_probe(spin, spin.bank, spin.node,
                                         MsgKind.DATA_WORD, False, DELIVER)
                elif phase == DELIVER:
                    value = values.get(spin.key, 0)
                    pred = spin.pred
                    if pred is None or pred(value):
                        heappop(spins)
                        book()
                        spin.done(value)
                        continue
                    core = spin.core
                    core.ops_retired += 1
                    attempt = spin.attempt
                    spin.attempt = attempt + 1
                    if core.fault_hook is None and core.obs is None:
                        delay = backoff[attempt if attempt < last else last]
                        backed_off += delay
                        seq = engine._seq
                        engine._seq = seq + 1
                        heapreplace(spins, (now + (delay if delay > 1 else 1),
                                            seq, PAUSE, spin))
                    else:
                        heappop(spins)
                        book()
                        delay = core._backoff(attempt)
                        engine.push_spin(delay if delay > 1 else 1, PAUSE,
                                         spin)
                else:
                    spin.core.ops_retired += 1
                    if fire_inline and spin.read_through is None:
                        requests += 1
                        flits += spin.req_flits
                        flit_hops += spin.req_flit_hops
                        byte_hops += spin.req_byte_hops
                        seq = engine._seq
                        engine._seq = seq + 1
                        heapreplace(spins, (now + spin.req_latency, seq,
                                            AT_BANK, spin))
                    else:
                        heappop(spins)
                        book()
                        self._fire_probe(spin, fast)
        finally:
            book()
        return executed
