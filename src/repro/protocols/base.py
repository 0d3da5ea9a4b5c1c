"""Coherence protocol base: dispatch, LLC bank timing, shared plumbing.

A protocol object owns the whole memory system below the cores: L1 models,
LLC banks, (for MESI) the directory, (for callback) the callback
directory. Cores call :meth:`CoherenceProtocol.issue` with an op and a
continuation ``done``, called once with the op's result when it
completes.

LLC banks are single-ported: each bank tracks ``busy_until`` and a request
arriving while the bank is busy waits until the port frees. This
serialization is what turns LLC-spinning (BackOff-0) into the hot-bank
behaviour the paper describes.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Mapping, Optional

from repro.classify.pagetable import PageClassifier
from repro.config import SystemConfig
from repro.mem.layout import AddressMap
from repro.mem.mainmem import MainMemory
from repro.mem.store import WordStore
from repro.noc.network import Network
from repro.protocols import ops
from repro.protocols.table import TransitionTable
from repro.sim.engine import Engine
from repro.sim.stats import Stats

# --------------------------------------------------- transition-table registry
#
# Every protocol family registers its declarative FSMs here at import
# time (``mesi/table.py``, ``vips/table.py``, ``callback/table.py``).
# The live protocol classes execute these tables for their state
# changes and ``repro.analyze.mc`` explores them exhaustively; the
# spec-coverage lint (CB-A211) fails any protocol without one.

_TABLES: Dict[str, Dict[str, TransitionTable]] = {}


def register_table(table: TransitionTable) -> TransitionTable:
    """Register a protocol FSM; returns the table for assignment chaining."""
    _TABLES.setdefault(table.protocol, {})[table.fsm] = table
    return table


def tables_for(protocol: str) -> Mapping[str, TransitionTable]:
    """The registered FSMs of one protocol family, keyed by FSM name."""
    return dict(_TABLES.get(protocol, {}))


def registered_tables() -> Dict[str, Dict[str, TransitionTable]]:
    """All registered tables: ``{protocol: {fsm: table}}``."""
    return {protocol: dict(tables) for protocol, tables in _TABLES.items()}


#: An op's continuation: called once with the op's result.
Done = Callable[[Any], None]

# Per-class resolved handler maps for CoherenceProtocol.issue():
# ``{protocol class: {op type: unbound handler}}``. Resolving once per
# class (instead of a getattr per call) keeps subclass overrides intact
# while removing ~40% of dispatch overhead on the issue() hot path —
# see benchmarks/bench_dispatch.py.
_HANDLER_CACHE: Dict[type, Dict[type, Callable[..., None]]] = {}


class BankPort:
    """Occupancy of one single-ported LLC bank (claimed by
    :meth:`CoherenceProtocol.bank_service`)."""

    __slots__ = ("busy_until",)

    def __init__(self) -> None:
        self.busy_until = 0


class CoherenceProtocol:
    """Common state and dispatch shared by all three protocol families."""

    def __init__(
        self,
        config: SystemConfig,
        engine: Engine,
        network: Network,
        stats: Stats,
        store: WordStore,
    ) -> None:
        self.config = config
        self.engine = engine
        self.network = network
        self.stats = stats
        self.store = store
        self.addr_map = AddressMap(config)
        self.classifier = PageClassifier(self.addr_map)
        self.memory = MainMemory(config, stats)
        self.banks = [BankPort() for _ in range(config.num_banks)]
        # Hardware thread -> its core's tile/L1, read on every op.
        self._tile_of = tuple(config.core_of(tid)
                              for tid in range(config.num_threads))
        # Lines whose data is resident in the LLC (first touch pays DRAM).
        self._llc_present: set = set()
        #: Telemetry probe bus (set when a Telemetry attaches), else None.
        self.obs: Optional[Any] = None
        #: When set, called as ``hook(core, addr)`` as each ``ld_through``
        #: probe of a spin leaves the core (repro.trace.recorder).
        self.probe_hook: Optional[Callable[[int, int], None]] = None
        # Op dispatch: resolved once per concrete class, not per call.
        self._handlers = self._resolve_handlers()

    # ------------------------------------------------------------------ API

    @classmethod
    def _resolve_handlers(cls) -> Dict[type, Callable[..., None]]:
        """The op-type -> handler map for this class, resolved through the
        MRO exactly once (so subclass overrides apply, without paying a
        ``getattr`` on every :meth:`issue` call)."""
        handlers = _HANDLER_CACHE.get(cls)
        if handlers is None:
            handlers = {op_type: getattr(cls, name)
                        for op_type, name in _DISPATCH.items()}
            _HANDLER_CACHE[cls] = handlers
        return handlers

    def issue(self, core: int, op: ops.Op, done: Done) -> None:
        """Start ``op`` for ``core`` and call ``done(value)`` when it
        completes."""
        handler = self._handlers.get(type(op))
        if handler is None:
            raise TypeError(f"{type(self).__name__} cannot execute {op!r}")
        handler(self, core, op, done)

    # ``_DISPATCH`` maps op types to ``(self, core, op, done)`` handlers,
    # which call ``done(value)`` once, where the op completes. ``Load``,
    # ``Store`` and ``DataBurst`` share one DRF ``_load``/``_store`` path.
    def _load(self, core: int, addr: int, done: Done) -> None:
        raise NotImplementedError

    def _store(self, core: int, addr: int, value: Optional[int],
               done: Done) -> None:
        raise NotImplementedError

    def _op_load(self, core: int, op: ops.Load, done: Done) -> None:
        self._load(core, op.addr, done)

    def _op_store(self, core: int, op: ops.Store, done: Done) -> None:
        self._store(core, op.addr, op.value, done)

    def _op_data_burst(self, core: int, op: ops.DataBurst,
                       done: Done) -> None:
        """DRF loads/stores one after another through ``_load`` /
        ``_store``, then ``extra_hits`` bulk L1 hits."""
        _Burst(self, core, op, done).step()

    def spin_through(self, core: Any, op: ops.SpinThrough) -> None:
        """Run ``op`` for ``core`` (a :class:`~repro.core.core.Core`):
        probe ``op.addr`` at the LLC, backing off between probes, until
        ``op.pred`` holds; then resume the core with the value."""
        raise NotImplementedError

    # --------------------------------------------------------------- helpers

    def bank_of(self, addr: int) -> int:
        return self.addr_map.bank_of(addr)

    def l1_of(self, tid: int) -> int:
        """The L1 a hardware thread uses (one per core, shared by its
        SMT siblings)."""
        return self._tile_of[tid]

    def bank_service(self, bank: int, data: bool, sync: bool = False) -> int:
        """Occupy bank ``bank`` for a tag or tag+data access starting now.

        Returns the number of cycles until the access completes (including
        any wait for the port). Books the access on the stats object.
        """
        service = self.config.llc_data_latency if data else self.config.llc_tag_latency
        now = self.engine.now
        port = self.banks[bank]
        start = now if now > port.busy_until else port.busy_until
        done = port.busy_until = start + service
        self.stats.llc_accesses += 1
        if data:
            self.stats.llc_data_accesses += 1
        else:
            self.stats.llc_tag_accesses += 1
        if sync:
            self.stats.llc_sync_accesses += 1
        return done - now

    def llc_fill_latency(self, line: int) -> int:
        """Extra cycles if the line misses in the LLC (first touch).

        The LLC is modelled as large enough to hold every line after its
        first fetch (16 MB aggregate vs. the paper's working sets); only
        cold misses pay the 160-cycle DRAM access.
        """
        if line in self._llc_present:
            return 0
        self._llc_present.add(line)
        self.stats.llc_misses += 1
        return self.memory.access()

    def apply_rmw(self, op: ops.Atomic) -> ops.AtomicResult:
        """Execute the modify step of an RMW against the word store."""
        kind, operands = op.kind, op.operands
        if kind is ops.AtomicKind.TAS:
            test, setv = operands
            old, wrote = self.store.test_and_set(op.addr, test, setv)
            return ops.AtomicResult(old, wrote)
        if kind is ops.AtomicKind.FETCH_ADD:
            (delta,) = operands
            old = self.store.fetch_add(op.addr, delta)
            return ops.AtomicResult(old, True)
        if kind is ops.AtomicKind.SWAP:
            (new,) = operands
            old = self.store.swap(op.addr, new)
            return ops.AtomicResult(old, True)
        if kind is ops.AtomicKind.TDEC:
            old = self.store.read(op.addr)
            if old != 0:
                self.store.write(op.addr, old - 1)
                return ops.AtomicResult(old, True)
            return ops.AtomicResult(old, False)
        if kind is ops.AtomicKind.CAS:
            expect, new = operands
            old, wrote = self.store.compare_and_swap(op.addr, expect, new)
            return ops.AtomicResult(old, wrote)
        raise ValueError(f"unknown atomic kind: {kind}")

    def parked_cores(self) -> int:
        """How many hardware threads are blocked waiting for a wakeup
        right now — callback waiters or MESI spin watches. The telemetry
        layer samples this as the ``cores_parked`` gauge; the base
        protocol has no parking mechanism."""
        return 0

    def ckpt_state(self) -> Dict[str, object]:
        """Canonical capture of the memory-system state below the cores
        (the snapshottability contract, :mod:`repro.ckpt.state`).

        Subclasses MUST call ``super().ckpt_state()`` and extend the
        dict with every piece of mutable protocol state — L1 contents,
        directory records, parked-waiter tables — so that two machines
        with equal captures behave identically from here on. Bank port
        occupancy is trimmed to ports still busy now-or-later, mirroring
        :meth:`~repro.noc.network.Network.ckpt_state`."""
        now = self.engine.now
        return {
            "kind": type(self).__name__,
            "banks": [max(port.busy_until, now) for port in self.banks],
            "llc_present": sorted(self._llc_present),
            "classifier": self.classifier.ckpt_state(),
        }

    def resolve_later(self, done: Done, delay: int,
                      value: object = None) -> None:
        """Call ``done(value)`` after ``delay`` cycles (always via the
        engine, so completions never recurse into the core synchronously)."""
        self.engine.schedule(max(1, delay), partial(done, value))


class _Burst:
    """One ``DataBurst`` in flight: its bound :meth:`step` is the
    continuation of every access, so no op or partial is built per
    access."""

    __slots__ = ("protocol", "core", "op", "next", "done")

    def __init__(self, protocol: CoherenceProtocol, core: int,
                 op: ops.DataBurst, done: Done) -> None:
        self.protocol = protocol
        self.core = core
        self.op = op
        self.next = 0
        self.done = done

    def step(self, _value: object = None) -> None:
        """Start the next access, or finish with the bulk hits."""
        index = self.next
        protocol = self.protocol
        accesses = self.op.accesses
        if index == len(accesses):
            extra_hits = self.op.extra_hits
            if extra_hits:
                protocol.stats.l1_accesses += extra_hits
                protocol.stats.l1_hits += extra_hits
            protocol.resolve_later(self.done, max(1, extra_hits))
            return
        self.next = index + 1
        access = accesses[index]
        if access.write:
            protocol._store(self.core, access.addr, None, self.step)
        else:
            protocol._load(self.core, access.addr, self.step)


# Dispatch table shared by all subclasses: op type -> method name, the
# source from which _resolve_handlers builds each class's handler map.
_DISPATCH: Dict[type, str] = {
    ops.Load: "_op_load",
    ops.Store: "_op_store",
    ops.LoadThrough: "_op_load_through",
    ops.LoadCB: "_op_load_cb",
    ops.StoreThrough: "_op_write_through",
    ops.StoreCB1: "_op_write_through",
    ops.StoreCB0: "_op_write_through",
    ops.Atomic: "_op_atomic",
    ops.Fence: "_op_fence",
    ops.SpinUntil: "_op_spin_until",
    ops.DataBurst: "_op_data_burst",
}
