"""Network timing + traffic accounting over the mesh.

``Network.send`` computes the delivery latency of one message and
schedules its handler on the engine; it also books the message's traffic
(flit-hops, byte-hops, per-kind counts) on the stats object. Local
deliveries (same tile) cost one cycle and zero traffic — the L1 talking to
its co-located LLC bank still crosses the cache hierarchy but not the
network, matching how GEMS/GARNET accounts local bank hits.

Every quantity a send needs is fixed for the machine's lifetime, so it is
looked up rather than recomputed: hop counts come from a per-(src, dst)
table built once per process for each ``(topology, side)`` from
``Mesh.hops``, and wire sizes, flit counts and uncontended latencies come
from a per-kind table each ``Network`` builds from ``message_bytes`` and
``SystemConfig.flits_for``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

from repro.config import SystemConfig
from repro.noc.mesh import Mesh, make_topology
from repro.noc.messages import MsgKind, message_bytes
from repro.sim.engine import Engine
from repro.sim.stats import Stats

LOCAL_DELIVERY_LATENCY = 1

#: One message kind's wire facts: (bytes, flits, latency by hop count),
#: where ``latency_by_hops[h]`` is the uncontended delivery time over
#: ``h`` hops.
WireEntry = Tuple[int, int, Tuple[int, ...]]


@lru_cache(maxsize=None)
def hop_table(topology: str,
              side: int) -> Tuple[Dict[int, Dict[int, int]], int]:
    """``(table, diameter)``: ``table[src][dst]`` is ``Mesh.hops(src, dst)``
    for every node pair, ``diameter`` its largest entry.

    Built once per process per ``(topology, side)`` and shared by every
    ``Network`` on that topology, so the table must never be mutated.
    Node ids are dict keys, so an out-of-range (or negative) id misses
    instead of wrapping around.
    """
    mesh = make_topology(topology, side)
    nodes = range(mesh.num_nodes)
    table = {src: {dst: mesh.hops(src, dst) for dst in nodes}
             for src in nodes}
    return table, max(max(row.values()) for row in table.values())


def _drop_duplicate() -> None:
    """Delivery of a fault-injected duplicate message: dropped on arrival."""


class Network:
    """Latency/traffic model of the 2-D mesh interconnect.

    With ``config.model_link_contention`` enabled, each directed link
    tracks its occupancy: a message claims every link on its X-Y route
    for ``flits`` cycles in sequence, waiting behind earlier traffic.
    Without it, delivery time is the uncontended head latency plus
    serialization (the default — hop/flit counting, as in DESIGN.md).
    """

    def __init__(self, config: SystemConfig, engine: Engine, stats: Stats) -> None:
        self.config = config
        self.engine = engine
        self.stats = stats
        self.mesh = make_topology(config.topology,
                                  config.mesh_side)
        self._hops, diameter = hop_table(config.topology, config.mesh_side)
        self._wire = self._wire_table(diameter)
        self._contention = config.model_link_contention
        # (src_tile, dst_tile) directed link -> busy-until cycle.
        self._link_busy: dict = {}
        #: Telemetry probe bus (set when a Telemetry attaches), else None.
        self.obs = None
        #: When telemetry is attached, delivery handlers are wrapped to
        #: maintain the flits-in-flight gauge. The wrapping changes only
        #: handler identity, never (time, seq) ordering.
        self.track_inflight = False
        self.inflight_flits = 0
        #: Fault-injection hook (repro.resilience): when set, called as
        #: ``hook(src, dst, kind, latency) -> (extra_latency, duplicates)``
        #: for every message. ``extra_latency`` delays delivery (a slow
        #: NoC path); ``duplicates`` re-sends the message's flits that
        #: many times — the payload handler still runs exactly once (the
        #: receiver drops duplicates), but the copies are charged as
        #: traffic. Left None (the default), sends are untouched.
        self.fault_hook: Optional[
            Callable[[int, int, MsgKind, int], Tuple[int, int]]] = None

    def _wire_table(self, diameter: int) -> Dict[str, WireEntry]:
        """Per-kind wire facts, keyed by the member's ``_value_``.

        Keying by the value string rather than the member skips the
        Python-level ``Enum.__hash__`` on every lookup. This is the one
        place message size, flit count and uncontended latency are
        computed; every send and latency query reads it.
        """
        config = self.config
        table: Dict[str, WireEntry] = {}
        for kind in MsgKind:
            size = message_bytes(kind, config.line_bytes, config.word_bytes,
                                 config.header_bytes)
            flits = config.flits_for(size)
            latency_by_hops = (LOCAL_DELIVERY_LATENCY,) + tuple(
                hops * config.switch_latency + (flits - 1)
                for hops in range(1, diameter + 1))
            table[kind._value_] = (size, flits, latency_by_hops)
        return table

    def message_latency(self, src: int, dst: int, kind: MsgKind) -> int:
        """Cycles from injection at ``src`` to delivery at ``dst``."""
        try:
            hops = self._hops[src][dst]
        except KeyError:
            self.mesh.hops(src, dst)  # raises the range error for the bad id
            raise
        return self._wire[kind._value_][2][hops]

    def send(
        self,
        src: int,
        dst: int,
        kind: MsgKind,
        handler: Callable[[], None],
        sync: bool = False,
    ) -> int:
        """Deliver a message: account traffic, schedule ``handler``.

        ``sync`` tags the message as synchronization traffic (used by the
        Figure 20 LLC-sync-access metric upstream; the tag itself is only
        recorded in per-kind counters here). Returns the latency charged.
        """
        try:
            hops = self._hops[src][dst]
        except KeyError:
            self.mesh.hops(src, dst)  # raises the range error for the bad id
            raise
        value = kind._value_
        size, flits, latency_by_hops = self._wire[value]
        if self._contention:
            latency = self._contended_latency(src, dst, kind)
        else:
            latency = latency_by_hops[hops]
        duplicates = 0
        if self.fault_hook is not None:
            extra, duplicates = self.fault_hook(src, dst, kind, latency)
            latency += extra
        # A local delivery (hops == 0) is still counted, for protocol-level
        # message-count assertions, but contributes no traffic.
        self.stats.record_message(value, flits, hops, size)
        if self.track_inflight and hops > 0:
            self.inflight_flits += flits
            inner = handler

            def handler() -> None:
                self.inflight_flits -= flits
                inner()

        if self.obs is not None:
            self.obs.emit("noc.send", src=src, dst=dst, kind=value,
                          flits=flits, hops=hops, latency=latency,
                          sync=sync)
        self.engine.schedule(latency, handler)
        for copy in range(duplicates):
            # The duplicate crosses the network (charged as traffic) but
            # the receiver discards it: a daemon no-op one cycle behind
            # each copy, so duplication never extends the run's liveness.
            self.stats.record_message(value, flits, hops, size)
            self.stats.msgs_duplicated += 1
            self.engine.schedule(latency + 1 + copy, _drop_duplicate,
                                 daemon=True)
        return latency

    def ckpt_state(self) -> dict:
        """Link occupancy as canonical data (checkpoint capture).

        Only links still busy at or after ``now`` matter — already-idle
        entries can never influence a future send — so stale rows are
        dropped, making the capture identical whether a dict entry was
        left behind or never created. The in-flight flit gauge is a
        telemetry artifact and deliberately excluded."""
        now = self.engine.now
        busy = {f"{src}>{dst}": until
                for (src, dst), until in sorted(self._link_busy.items())
                if until >= now}
        return {"link_busy": busy}

    def round_trip(self, a: int, b: int, req: MsgKind, resp: MsgKind) -> int:
        """Latency of a request/response pair without scheduling anything."""
        return self.message_latency(a, b, req) + self.message_latency(b, a, resp)

    def _contended_latency(self, src: int, dst: int, kind: MsgKind) -> int:
        """Wormhole-ish delivery over the X-Y route with link occupancy.

        The head waits for each link in turn (queuing behind earlier
        messages), each link takes ``switch_latency`` to traverse and is
        then held for ``flits`` cycles of serialization.
        """
        if src == dst:
            return LOCAL_DELIVERY_LATENCY
        flits = self._wire[kind._value_][1]
        route = self.mesh.route(src, dst)
        time = self.engine.now
        for a, b in zip(route, route[1:]):
            link = (a, b)
            start = max(time, self._link_busy.get(link, 0))
            self._link_busy[link] = start + flits
            time = start + self.config.switch_latency
        time += flits - 1
        return time - self.engine.now

    def _size(self, kind: MsgKind) -> int:
        """Wire size in bytes of one message of ``kind``."""
        return self._wire[kind._value_][0]
