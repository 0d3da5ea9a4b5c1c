"""Network timing and traffic accounting."""

import pytest

from repro.config import SystemConfig, config_for
from repro.core.machine import Machine
from repro.noc.mesh import make_topology
from repro.noc.messages import MsgKind, message_bytes
from repro.noc.network import LOCAL_DELIVERY_LATENCY, Network
from repro.sim.engine import Engine
from repro.sim.stats import Stats


def make_network(cores=16):
    cfg = SystemConfig(num_cores=cores)
    engine = Engine()
    stats = Stats()
    return cfg, engine, stats, Network(cfg, engine, stats)


class TestMessageBytes:
    def test_control_messages_are_header_only(self):
        assert message_bytes(MsgKind.GETS, 64, 8, 8) == 8
        assert message_bytes(MsgKind.INV, 64, 8, 8) == 8
        assert message_bytes(MsgKind.ACK, 64, 8, 8) == 8

    def test_line_data_carries_line(self):
        assert message_bytes(MsgKind.DATA, 64, 8, 8) == 72
        assert message_bytes(MsgKind.PUTM, 64, 8, 8) == 72

    def test_word_data_carries_word(self):
        for kind in (MsgKind.DATA_WORD, MsgKind.WAKEUP,
                     MsgKind.STORE_THROUGH, MsgKind.ATOMIC):
            assert message_bytes(kind, 64, 8, 8) == 16


class TestLatency:
    def test_local_delivery_is_one_cycle(self):
        _cfg, _e, _s, net = make_network()
        assert net.message_latency(3, 3, MsgKind.DATA) == 1

    def test_remote_control_latency(self):
        cfg, _e, _s, net = make_network()
        hops = net.mesh.hops(0, 5)
        assert net.message_latency(0, 5, MsgKind.GETS) == hops * cfg.switch_latency

    def test_data_message_adds_serialization(self):
        cfg, _e, _s, net = make_network()
        hops = net.mesh.hops(0, 5)
        flits = cfg.flits_for(cfg.line_msg_bytes)
        assert (net.message_latency(0, 5, MsgKind.DATA)
                == hops * cfg.switch_latency + flits - 1)

    def test_round_trip(self):
        _cfg, _e, _s, net = make_network()
        rt = net.round_trip(0, 5, MsgKind.GETS, MsgKind.DATA)
        assert rt == (net.message_latency(0, 5, MsgKind.GETS)
                      + net.message_latency(5, 0, MsgKind.DATA))


class TestTrafficAccounting:
    def test_send_books_flit_hops(self):
        cfg, engine, stats, net = make_network()
        hops = net.mesh.hops(0, 5)
        net.send(0, 5, MsgKind.DATA, lambda: None)
        flits = cfg.flits_for(cfg.line_msg_bytes)
        assert stats.flit_hops == flits * hops
        assert stats.byte_hops == cfg.line_msg_bytes * hops
        assert stats.messages == 1
        assert stats.msg_kinds["Data"] == 1

    def test_local_send_counts_message_but_no_traffic(self):
        _cfg, engine, stats, net = make_network()
        net.send(2, 2, MsgKind.GETS, lambda: None)
        assert stats.messages == 1
        assert stats.flit_hops == 0

    def test_handler_scheduled_at_latency(self):
        _cfg, engine, stats, net = make_network()
        seen = []
        latency = net.send(0, 5, MsgKind.GETS, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [latency]


def formula(cfg, src, dst, kind):
    """(hops, size, flits, latency) straight from the tables' sources."""
    hops = make_topology(cfg.topology, cfg.mesh_side).hops(src, dst)
    size = message_bytes(kind, cfg.line_bytes, cfg.word_bytes,
                         cfg.header_bytes)
    flits = cfg.flits_for(size)
    latency = (LOCAL_DELIVERY_LATENCY if hops == 0
               else hops * cfg.switch_latency + flits - 1)
    return hops, size, flits, latency


class TestLookupTables:
    @pytest.mark.parametrize("topology", ["mesh", "torus"])
    @pytest.mark.parametrize("cores", [16, 64])
    def test_every_pair_and_kind_matches_the_formula(self, cores, topology):
        cfg = SystemConfig(num_cores=cores, topology=topology)
        stats = Stats()
        net = Network(cfg, Engine(), stats)
        mesh = make_topology(topology, cfg.mesh_side)
        for src in range(mesh.num_nodes):
            for dst in range(mesh.num_nodes):
                for kind in MsgKind:
                    hops, size, flits, latency = formula(cfg, src, dst, kind)
                    before = (stats.messages, stats.flits, stats.flit_hops,
                              stats.byte_hops, stats.msg_kinds[kind.value])
                    assert net.message_latency(src, dst, kind) == latency
                    assert net.send(src, dst, kind, lambda: None) == latency
                    after = (stats.messages, stats.flits, stats.flit_hops,
                             stats.byte_hops, stats.msg_kinds[kind.value])
                    assert [b - a for a, b in zip(before, after)] == [
                        1, flits, flits * hops, size * hops, 1]

    @pytest.mark.parametrize("topology", ["mesh", "torus"])
    def test_round_trip_agrees_with_send(self, topology):
        cfg = SystemConfig(num_cores=64, topology=topology)
        net = Network(cfg, Engine(), Stats())
        for a, b in ((0, 63), (9, 54), (7, 7), (56, 7)):
            for req, resp in ((MsgKind.GETS, MsgKind.DATA),
                              (MsgKind.LOAD_CB, MsgKind.WAKEUP),
                              (MsgKind.ATOMIC, MsgKind.DATA_WORD)):
                expected = (net.send(a, b, req, lambda: None)
                            + net.send(b, a, resp, lambda: None))
                assert net.round_trip(a, b, req, resp) == expected

    def test_hop_table_is_shared_per_topology_and_side(self):
        mesh_a = Machine(config_for("CB-One", num_cores=16))
        mesh_b = Machine(config_for("Invalidation", num_cores=16))
        torus = Machine(config_for("CB-One", num_cores=16,
                                   topology="torus"))
        bigger = Machine(config_for("CB-One", num_cores=64))
        assert mesh_a.network._hops is mesh_b.network._hops
        assert torus.network._hops is not mesh_a.network._hops
        assert bigger.network._hops is not mesh_a.network._hops

    @pytest.mark.parametrize("src, dst", [(-1, 0), (0, -1), (16, 0),
                                          (0, 16), (99, 99)])
    def test_out_of_range_node_raises_value_error(self, src, dst):
        _cfg, engine, stats, net = make_network(cores=16)
        with pytest.raises(ValueError, match="node id out of range"):
            net.send(src, dst, MsgKind.GETS, lambda: None)
        with pytest.raises(ValueError, match="node id out of range"):
            net.message_latency(src, dst, MsgKind.DATA)
        assert stats.messages == 0
        assert engine.pending == 0


class TestLinkContentionPinned:
    """Contended latencies pinned from the arithmetic implementation the
    lookup tables replaced: a short burst over shared links."""

    BURST = [(0, 15, MsgKind.DATA), (1, 15, MsgKind.GETS),
             (0, 3, MsgKind.DATA_WORD), (4, 7, MsgKind.PUTM),
             (0, 15, MsgKind.ACK), (5, 5, MsgKind.DATA),
             (12, 3, MsgKind.WAKEUP), (3, 12, MsgKind.DATA)]

    @pytest.mark.parametrize("topology, latencies, flit_hops", [
        ("mesh", [40, 41, 24, 22, 43, 1, 36, 40], 95),
        ("torus", [16, 18, 11, 10, 19, 1, 12, 16], 33),
    ])
    def test_burst_latencies(self, topology, latencies, flit_hops):
        cfg = SystemConfig(num_cores=16, topology=topology,
                           model_link_contention=True)
        stats = Stats()
        net = Network(cfg, Engine(), stats)
        got = [net.send(src, dst, kind, lambda: None)
               for src, dst, kind in self.BURST]
        assert got == latencies
        assert stats.flit_hops == flit_hops
