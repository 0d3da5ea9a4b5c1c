"""Core trampoline and machine assembly/run loop."""

import gc
import weakref

import pytest

from repro.config import config_for
from repro.core.machine import Machine, run_threads
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.protocols import ops
from repro.resilience.resilience import Resilience, ResilienceConfig
from repro.sim.engine import DeadlockError
from repro.workloads.suite import get_workload


def cfg(label="CB-One", cores=4, **overrides):
    return config_for(label, num_cores=cores, **overrides)


class TestThreadExecution:
    def test_compute_advances_clock(self):
        done_at = {}

        def body(ctx):
            yield ops.Compute(100)
            done_at[ctx.tid] = ctx.now

        stats = run_threads(cfg(), [body])
        assert done_at[0] == 100
        assert stats.cycles == 100

    def test_op_results_flow_back(self):
        seen = {}

        def body(ctx):
            yield ops.StoreThrough(0x4000, 13)
            seen["value"] = yield ops.LoadThrough(0x4000)

        run_threads(cfg(), [body])
        assert seen["value"] == 13

    def test_backoff_wait_uses_config_policy(self):
        machine = Machine(cfg("BackOff-5", cores=4, backoff_base=4))

        def body(ctx):
            yield ops.BackoffWait(0)
            yield ops.BackoffWait(1)

        machine.spawn([body])
        stats = machine.run()
        assert stats.backoff_cycles == 4 + 8
        assert stats.cycles == 12

    def test_threads_run_concurrently(self):
        def body(ctx):
            yield ops.Compute(100)

        stats = run_threads(cfg(), [body, body, body])
        assert stats.cycles == 100  # not 300

    def test_per_thread_rng_deterministic(self):
        def draws():
            values = {}

            def body(ctx):
                values[ctx.tid] = ctx.rng.randrange(10**9)
                yield ops.Compute(1)

            run_threads(cfg(), [body, body])
            return values

        a, b = draws(), draws()
        assert a == b
        assert a[0] != a[1]  # different streams per thread


def _complete_twice(protocol, core, op, done):
    """A buggy handler: completes its op twice."""
    protocol.resolve_later(done, 1, 7)
    protocol.resolve_later(done, 2, 7)


class TestCompletionCheck:
    """Ops complete through the core's continuation, not a future; a
    completion with no op outstanding is still a protocol bug."""

    def _machine(self):
        machine = Machine(cfg())
        protocol = machine.protocol
        protocol._handlers = {**protocol._handlers,
                              ops.Load: _complete_twice}
        return machine

    def test_an_op_completed_twice_raises(self):
        machine = self._machine()

        def body(ctx):
            yield ops.Load(0x4000)

        machine.spawn([body])
        with pytest.raises(RuntimeError, match="no op outstanding"):
            machine.run()

    def test_an_issued_future_completed_twice_raises(self):
        machine = self._machine()
        machine.protocol.issue(0, ops.Load(0x4000))
        with pytest.raises(RuntimeError, match="resolved twice"):
            machine.engine.run()

    def test_a_finished_core_resumed_raises(self):
        machine = Machine(cfg())

        def body(ctx):
            yield ops.Load(0x4000)

        machine.spawn([body])
        machine.run()
        core = machine._cores[0]
        assert core.done
        with pytest.raises(RuntimeError, match="no op outstanding"):
            core._resume(None)

    def test_an_idle_core_resumed_raises(self):
        core = Machine(cfg())._cores[1]
        with pytest.raises(RuntimeError, match="no op outstanding"):
            core._resume(None)


class TestMachineLifecycle:
    def test_spawn_twice_rejected(self):
        machine = Machine(cfg())

        def body(ctx):
            yield ops.Compute(1)

        machine.spawn([body])
        with pytest.raises(RuntimeError, match="already started"):
            machine.spawn([body])

    def test_run_before_spawn_rejected(self):
        with pytest.raises(RuntimeError, match="spawn"):
            Machine(cfg()).run()

    def test_too_many_threads_rejected(self):
        machine = Machine(cfg(cores=4))

        def body(ctx):
            yield ops.Compute(1)

        with pytest.raises(ValueError, match="> 4 hardware threads"):
            machine.spawn([body] * 5)

    def test_fewer_threads_than_cores_ok(self):
        def body(ctx):
            yield ops.Compute(10)

        stats = run_threads(cfg(cores=16), [body] * 3)
        assert stats.cycles == 10

    def test_deadlock_detected(self):
        """A ld_cb with no matching write must be flagged, not hang."""
        machine = Machine(cfg())

        def body(ctx):
            yield ops.LoadCB(0x4000)   # consumes the initial full state
            yield ops.LoadCB(0x4000)   # blocks forever

        machine.spawn([body])
        with pytest.raises(DeadlockError, match="blocked cores"):
            machine.run()

    def test_watchdog_bounds_runaway(self):
        machine = Machine(cfg(max_events=50))

        def body(ctx):
            while True:
                yield ops.Compute(1)

        machine.spawn([body])
        with pytest.raises(Exception, match="watchdog"):
            machine.run()

    def test_stats_cycles_is_finish_time(self):
        def short(ctx):
            yield ops.Compute(10)

        def long(ctx):
            yield ops.Compute(500)

        stats = run_threads(cfg(), [short, long])
        assert stats.cycles == 500

    @pytest.mark.parametrize("label,observer", [
        pytest.param("Invalidation", None, id="Invalidation"),
        pytest.param("BackOff-0", None, id="BackOff-0"),
        pytest.param("CB-One", None, id="CB-One"),
        pytest.param("CB-One", "telemetry", id="CB-One-telemetry"),
        pytest.param("CB-One", "watchdog", id="CB-One-watchdog"),
        pytest.param("CB-One", "audit_every", id="CB-One-audit_every"),
        pytest.param("BackOff-0", "telemetry", id="BackOff-0-telemetry"),
    ])
    def test_finished_machine_is_freed_without_the_collector(self, label,
                                                            observer):
        """No reference cycle survives a run (core completion, spin
        records, data bursts, and the daemon ticks and bus subscribers
        of telemetry, the liveness watchdog and periodic audits), so
        dropping a finished machine frees it and its memory system at
        once instead of at the next cyclic collection."""
        observers = {
            None: {},
            "telemetry": {"telemetry": Telemetry(
                TelemetryConfig(sample_every=500, spans=True))},
            "watchdog": {"resilience": Resilience(ResilienceConfig(
                watchdog_stall=10**6, watchdog_check_every=5000))},
            "audit_every": {"resilience": Resilience(
                ResilienceConfig(audit_every=5000))},
        }[observer]
        machine = Machine(cfg(label, cores=16), **observers)
        get_workload("swaptions", "clh", "treesr", 0.25).install(machine)
        machine.run()
        refs = [weakref.ref(machine), weakref.ref(machine.protocol),
                weakref.ref(machine.engine)]
        del observers
        enabled = gc.isenabled()
        gc.disable()
        try:
            del machine
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            if enabled:
                gc.enable()
