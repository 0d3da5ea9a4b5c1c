"""Optional link-contention NoC mode."""

import pytest

from repro.config import SystemConfig, config_for
from repro.core.machine import Machine
from repro.noc.messages import MsgKind
from repro.noc.network import Network
from repro.sim.engine import Engine
from repro.sim.stats import Stats
from repro.sync import make_lock, style_for
from repro.protocols.ops import Compute
from repro.workloads.microbench import BarrierMicrobench
from repro.harness.runner import run_workload


def make_network(contention: bool):
    cfg = SystemConfig(num_cores=16, model_link_contention=contention)
    engine = Engine()
    return cfg, engine, Network(cfg, engine, Stats())


class TestContentionModel:
    def test_uncontended_matches_baseline(self):
        base_net = make_network(False)[2]
        for dst in (1, 5, 15):
            net = make_network(True)[2]  # fresh links per probe
            assert (net._contended_latency(0, dst, MsgKind.GETS)
                    == base_net.message_latency(0, dst, MsgKind.GETS))

    def test_back_to_back_messages_queue(self):
        _cfg, _engine, net = make_network(True)
        first = net._contended_latency(0, 1, MsgKind.DATA)
        second = net._contended_latency(0, 1, MsgKind.DATA)
        assert second > first  # the shared link serializes

    def test_disjoint_routes_do_not_interact(self):
        _cfg, _engine, net = make_network(True)
        a = net._contended_latency(0, 1, MsgKind.DATA)
        b = net._contended_latency(8, 9, MsgKind.DATA)  # different row
        assert a == b

    def test_local_delivery_untouched(self):
        _cfg, _engine, net = make_network(True)
        assert net._contended_latency(3, 3, MsgKind.DATA) == 1

    def test_time_advances_drain_links(self):
        cfg, engine, net = make_network(True)
        net._contended_latency(0, 1, MsgKind.DATA)
        engine.schedule(10_000, lambda: None, "event")
        engine.run()
        later = net._contended_latency(0, 1, MsgKind.DATA)
        assert later == net.message_latency(0, 1, MsgKind.DATA)


class TestEndToEnd:
    def test_contention_only_slows_things_down(self):
        """Same workload, contention on vs off: identical work, slower
        (or equal) finish with contention enabled."""
        results = {}
        for contention in (False, True):
            cfg = config_for("BackOff-0", num_cores=16,
                             model_link_contention=contention)
            results[contention] = run_workload(
                cfg, BarrierMicrobench("sr", episodes=4))
        assert results[True].cycles >= results[False].cycles
        # Traffic (flit-hops) is a function of messages, not timing.
        assert results[True].traffic == pytest.approx(
            results[False].traffic, rel=0.15)

    def test_correctness_preserved_under_contention(self):
        cfg = config_for("CB-One", num_cores=16,
                         model_link_contention=True)
        machine = Machine(cfg)
        lock = make_lock("ttas", style_for(cfg))
        lock.setup(machine.layout, 16)
        for addr, value in lock.initial_values().items():
            machine.store.write(addr, value)
        counter = machine.layout.alloc_sync_word()

        def body(ctx):
            for _ in range(3):
                yield from lock.acquire(ctx)
                machine.store.write(counter,
                                    machine.store.read(counter) + 1)
                yield Compute(10)
                yield from lock.release(ctx)

        machine.spawn([body] * 16)
        machine.run()
        assert machine.store.read(counter) == 48
