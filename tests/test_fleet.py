"""repro.fleet unit and integration tests: restart-budget math (the
seeded backoff schedule must be byte-identical across supervisor
lives), the quarantine taxonomy, autoscaler hysteresis, the client-side
circuit breaker FSM, the on-disk fleet registry, supervisor journal
replay + the sole-supervisor lock, and the ``repro_fleet_*`` gauges the
queue renders from the supervisor snapshot.

Everything here is process-free and clock-injected except the last two
classes: a real supervisor over a real service (a handful of jobs), and
a scaled-down partition drill. The full-size drill is CI's
``fleet-smoke`` job (``python -m repro.fleet.drill``).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.fleet import paths
from repro.fleet.autoscale import (AutoscaleConfig, Autoscaler,
                                   FleetSample, sample_of_metrics)
from repro.fleet.budget import RestartBudget, kind_of_exit
from repro.fleet.supervisor import (FLEET_DURABLE_OPS, Supervisor,
                                    SupervisorConfig)
from repro.ioutil import read_events
from repro.obs.promtext import parse_prometheus
from repro.orchestrate.jobspec import JobSpec
from repro.serve.breaker import (BREAKER_CLOSED, BREAKER_HALF_OPEN,
                                 BREAKER_OPEN, CircuitBreaker,
                                 CircuitOpenError)
from repro.serve.client import ServeClient, ServeHTTPError
from repro.serve.journal import Journal


# --------------------------------------------------------------- taxonomy


class TestKindOfExit:
    @pytest.mark.parametrize("rc,kind", [
        (0, "ok"),
        (None, "error"),        # adopted corpse: exact code unknowable
        (-9, "crash"),          # Popen signal-death convention
        (-15, "crash"),
        (137, "crash"),         # shell 128+SIGKILL convention
        (1, "error"),
        (2, "invariant"),       # the resilience taxonomy's exit codes
        (3, "liveness"),
        (4, "timeout"),
        (5, "crash"),
        (99, "error"),          # unmapped codes degrade to generic
    ])
    def test_mapping(self, rc, kind):
        assert kind_of_exit(rc) == kind


# --------------------------------------------------------- restart budget


class TestBackoffSchedule:
    def test_schedule_is_a_pure_function_of_slot_seed_ordinal(self):
        a = RestartBudget(seed=7)
        b = RestartBudget(seed=7)
        sched_a = [a.backoff_s("w0", i) for i in range(1, 7)]
        sched_b = [b.backoff_s("w0", i) for i in range(1, 7)]
        assert sched_a == sched_b  # byte-identical across lives
        # Query order must not matter either (fast-forwarded RNG).
        c = RestartBudget(seed=7)
        assert c.backoff_s("w0", 4) == sched_a[3]

    def test_seed_and_slot_decorrelate_the_jitter(self):
        budget = RestartBudget(seed=7)
        other_seed = RestartBudget(seed=8)
        assert budget.backoff_s("w0", 1) != other_seed.backoff_s("w0", 1)
        assert budget.backoff_s("w0", 1) != budget.backoff_s("w1", 1)

    def test_ordinal_zero_is_immediate(self):
        assert RestartBudget(seed=1).backoff_s("w0", 0) == 0.0

    def test_backoff_grows_and_caps(self):
        budget = RestartBudget(seed=3, backoff_base_s=0.25,
                               backoff_max_s=4.0)
        delays = [budget.backoff_s("w2", i) for i in range(1, 12)]
        # Jitter scales each delay into [base/2, base]; the cap bounds
        # all of them.
        assert all(0 < d <= 4.0 for d in delays)
        assert max(delays[6:]) > max(delays[:2])  # exponent bites


class TestQuarantine:
    def test_flap_threshold_in_window_quarantines(self):
        budget = RestartBudget(seed=0, flap_threshold=3,
                               flap_window_s=60.0)
        budget.note_crash("w0", 100.0, kind="crash")
        budget.note_crash("w0", 101.0, kind="crash")
        assert budget.quarantined == []
        slot = budget.note_crash("w0", 102.0, kind="timeout")
        assert slot.quarantined
        assert "3 crashes in 60s" in slot.quarantine_reason
        assert "dominant kind: crash" in slot.quarantine_reason
        assert budget.decide("w0", 103.0).action == "quarantine"

    def test_crashes_outside_window_never_quarantine(self):
        budget = RestartBudget(seed=0, flap_threshold=3,
                               flap_window_s=60.0)
        for t in (0.0, 100.0, 200.0, 300.0):
            budget.note_crash("w0", t, kind="crash")
        assert budget.quarantined == []

    def test_clear_quarantine_restores_service(self):
        budget = RestartBudget(seed=0, flap_threshold=2,
                               flap_window_s=60.0)
        budget.note_crash("w0", 0.0, kind="crash")
        budget.note_crash("w0", 1.0, kind="crash")
        assert budget.quarantined == ["w0"]
        budget.clear_quarantine("w0")
        assert budget.quarantined == []
        assert budget.decide("w0", 2.0).action == "restart"


class TestRestartDecisions:
    def test_backoff_gates_the_respawn(self):
        budget = RestartBudget(seed=5, backoff_base_s=10.0,
                               backoff_max_s=100.0)
        slot = budget.note_crash("w0", 1000.0, returncode=-9)
        decision = budget.decide("w0", 1000.0)
        assert decision.action == "wait"
        assert decision.delay_s == pytest.approx(
            slot.next_eligible_t - 1000.0)
        assert "backoff" in decision.reason
        assert budget.decide("w0", slot.next_eligible_t).action == "restart"

    def test_fleet_rate_limit_brakes_distinct_slots(self):
        budget = RestartBudget(seed=0, fleet_rate=2, fleet_window_s=10.0)
        budget.note_restart("w0", 100.0)
        budget.note_restart("w1", 100.0)
        decision = budget.decide("w9", 100.0)  # never crashed, still held
        assert decision.action == "wait"
        assert "fleet rate limit" in decision.reason
        assert budget.decide("w9", 110.1).action == "restart"

    def test_replaying_crashes_rebuilds_identical_state(self):
        live = RestartBudget(seed=7, flap_threshold=3, flap_window_s=60.0)
        crashes = [("w0", 10.0, "crash"), ("w1", 11.0, "timeout"),
                   ("w0", 12.0, "crash"), ("w0", 13.0, "error")]
        for slot, t, kind in crashes:
            live.note_crash(slot, t, kind=kind)
        replayed = RestartBudget(seed=7, flap_threshold=3,
                                 flap_window_s=60.0)
        for slot, t, kind in crashes:
            replayed.note_crash(slot, t, kind=kind)
        assert live.snapshot() == replayed.snapshot()
        # And the schedules continue identically from here.
        assert live.backoff_s("w0", 4) == replayed.backoff_s("w0", 4)


# -------------------------------------------------------- circuit breaker


class FakeClock:
    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t


class TestCircuitBreakerFSM:
    def make(self, **kwargs):
        clock = FakeClock()
        kwargs.setdefault("threshold", 3)
        kwargs.setdefault("cooldown_s", 1.0)
        kwargs.setdefault("cooldown_max_s", 8.0)
        return CircuitBreaker(now_fn=clock, **kwargs), clock

    def test_trips_after_threshold_consecutive_failures(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.allow()  # still flows
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        with pytest.raises(CircuitOpenError) as err:
            breaker.allow()
        assert isinstance(err.value, OSError)  # callers reuse except arms
        assert err.value.retry_in_s == pytest.approx(1.0)
        assert breaker.snapshot()["refusals"] == 1

    def test_success_resets_the_streak(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_one_probe_per_cooldown(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.t += 1.0
        breaker.allow()  # the probe slot
        assert breaker.state == BREAKER_HALF_OPEN
        with pytest.raises(CircuitOpenError):
            breaker.allow()  # second caller waits for the probe verdict

    def test_failed_probe_doubles_cooldown_capped(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        cooldowns = []
        for _ in range(5):
            clock.t += breaker.snapshot()["cooldown_s"]
            breaker.allow()                  # probe admitted
            breaker.record_failure()         # ...and fails
            assert breaker.state == BREAKER_OPEN
            cooldowns.append(breaker.snapshot()["cooldown_s"])
        assert cooldowns == [2.0, 4.0, 8.0, 8.0, 8.0]  # doubles, capped

    def test_successful_probe_closes_and_resets_cooldown(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.t += 1.0
        breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.snapshot()["streak"] == 0
        assert breaker.snapshot()["cooldown_s"] == pytest.approx(1.0)


class TestClientBreakerWiring:
    """The breaker in front of ServeClient's transport: what counts as
    a failure is transport-shaped, and an open breaker refuses locally
    without touching the wire."""

    def test_oserror_streak_opens_and_stops_touching_the_wire(self):
        calls = []

        def refusing_transport(method, url, data, timeout, headers):
            calls.append(url)
            raise ConnectionRefusedError("nobody home")

        clock = FakeClock()
        client = ServeClient(
            "http://127.0.0.1:1", transport=refusing_transport,
            breaker=CircuitBreaker(threshold=3, cooldown_s=60.0,
                                   now_fn=clock))
        for _ in range(3):
            with pytest.raises(OSError):
                client.health()
        assert len(calls) == 3
        with pytest.raises(CircuitOpenError):
            client.health()
        assert len(calls) == 3  # refused locally, wire untouched

    def test_5xx_counts_as_failure_4xx_as_success(self):
        responses = [(500, b"{}", {}), (500, b"{}", {}),
                     (404, b'{"error": "nope"}', {}),
                     (500, b"{}", {}), (500, b"{}", {})]

        def scripted_transport(method, url, data, timeout, headers):
            return responses.pop(0)

        client = ServeClient(
            "http://127.0.0.1:1", transport=scripted_transport,
            breaker=CircuitBreaker(threshold=3, cooldown_s=60.0,
                                   now_fn=FakeClock()))
        for _ in range(2):
            with pytest.raises(ServeHTTPError):
                client.health()
        assert client.breaker.snapshot()["streak"] == 2
        # The 404 is the service *answering*: proof the wire works.
        with pytest.raises(ServeHTTPError):
            client.health()
        assert client.breaker.snapshot()["streak"] == 0
        for _ in range(2):
            with pytest.raises(ServeHTTPError):
                client.health()
        assert client.breaker.state == BREAKER_CLOSED  # streak restarted


# ------------------------------------------------------------- autoscaler


class TestAutoscaler:
    def make(self, **kwargs):
        kwargs.setdefault("min_workers", 1)
        kwargs.setdefault("max_workers", 4)
        kwargs.setdefault("backlog_per_worker", 2)
        kwargs.setdefault("up_ticks", 2)
        kwargs.setdefault("down_ticks", 3)
        return Autoscaler(AutoscaleConfig(**kwargs))

    def test_one_hot_sample_does_not_scale(self):
        scaler = self.make()
        hot = FleetSample(queued=10, leased=1)
        assert scaler.desired(1, hot) == 1
        calm = FleetSample(queued=1, leased=1)
        assert scaler.desired(1, calm) == 1
        assert scaler.desired(1, hot) == 1  # streak was broken

    def test_sustained_pressure_scales_up_one_step(self):
        scaler = self.make()
        hot = FleetSample(queued=10, leased=2)
        assert scaler.desired(1, hot) == 1
        assert scaler.desired(1, hot) == 2
        assert scaler.snapshot()["decisions"]["up"] == 1

    def test_scale_down_is_deliberately_slower(self):
        scaler = self.make()
        idle = FleetSample(queued=0, leased=0)
        assert scaler.desired(3, idle) == 3
        assert scaler.desired(3, idle) == 3
        assert scaler.desired(3, idle) == 2  # only after down_ticks
        assert scaler.snapshot()["decisions"]["down"] == 1

    def test_failed_scrape_freezes_and_resets_hysteresis(self):
        scaler = self.make()
        hot = FleetSample(queued=10, leased=0)
        assert scaler.desired(1, hot) == 1
        assert scaler.desired(1, None) == 1   # hold position
        # The pre-partition streak must not fire the moment it heals.
        assert scaler.desired(1, hot) == 1
        assert scaler.desired(1, hot) == 2

    def test_desired_is_clamped(self):
        scaler = self.make(min_workers=2, max_workers=3)
        assert scaler.clamp(0) == 2
        assert scaler.clamp(99) == 3
        idle = FleetSample(queued=0, leased=0)
        for _ in range(10):
            assert scaler.desired(2, idle) == 2  # never below min

    def test_demand_counts_leased_work_against_scale_down(self):
        scaler = self.make()
        busy = FleetSample(queued=0, leased=3)
        for _ in range(10):
            assert scaler.desired(3, busy) == 3


class TestSampleOfMetrics:
    def test_reduces_a_real_metrics_body(self, tmp_path):
        from repro.serve.queue import JobQueue
        queue = JobQueue(str(tmp_path / "serve"), lease_s=5.0,
                         checkpoint_every=0)
        for seed in range(3):
            spec = JobSpec(config_label="CB-All", workload="lock",
                           workload_params={"lock_name": "ttas",
                                            "iterations": 2},
                           config_overrides={"num_cores": 4}, seed=seed)
            queue.submit("alice", spec.to_dict())
        queue.lease("w1")
        sample = sample_of_metrics(queue.prometheus_text())
        queue.close()
        assert sample.queued == 2
        assert sample.leased == 1
        assert sample.demand == 3
        assert sample.oldest_lease_age_s >= 0.0

    def test_missing_families_default_to_zero(self):
        assert sample_of_metrics("") == FleetSample(queued=0, leased=0)


# ---------------------------------------------------------- fleet registry


class TestFleetPaths:
    def test_worker_meta_round_trip(self, tmp_path):
        fleet_root = paths.fleet_dir(str(tmp_path))
        path = paths.write_worker_meta(fleet_root, "fleet-w0",
                                       os.getpid(), "http://x:1",
                                       slot="w0")
        assert os.path.exists(path)
        meta = paths.read_worker_meta(fleet_root, "fleet-w0")
        assert meta["pid"] == os.getpid()
        assert meta["slot"] == "w0"
        paths.remove_worker_meta(fleet_root, "fleet-w0")
        assert paths.read_worker_meta(fleet_root, "fleet-w0") is None
        paths.remove_worker_meta(fleet_root, "fleet-w0")  # idempotent

    def test_live_only_skips_corpses(self, tmp_path):
        fleet_root = paths.fleet_dir(str(tmp_path))
        corpse = subprocess.Popen([sys.executable, "-c", "pass"])
        corpse.wait()
        paths.write_worker_meta(fleet_root, "fleet-w0", corpse.pid,
                                "http://x:1")
        paths.write_worker_meta(fleet_root, "fleet-w1", os.getpid(),
                                "http://x:1")
        every = paths.read_worker_metas(fleet_root)
        assert {m["worker_id"]: m["alive"] for m in every} == \
            {"fleet-w0": False, "fleet-w1": True}
        live = paths.read_worker_metas(fleet_root, live_only=True)
        assert [m["worker_id"] for m in live] == ["fleet-w1"]
        # Corpse files are left in place for the supervisor to reap.
        assert paths.read_worker_meta(fleet_root, "fleet-w0") is not None

    def test_pid_alive_edges(self):
        assert paths.pid_alive(os.getpid())
        assert not paths.pid_alive(0)
        assert not paths.pid_alive(-1)

    def test_journal_accepts_custom_durable_ops(self, tmp_path):
        path = str(tmp_path / "fleet.jsonl")
        journal = Journal(path, durable_ops=FLEET_DURABLE_OPS)
        journal.append("scale", desired=3)
        journal.append("spawn", slot="w0")
        journal.close()
        assert [e["op"] for e in read_events(path)] == \
            ["scale", "spawn"]


# ----------------------------------------------- supervisor (process-free)


def supervisor_config(tmp_path, **kwargs):
    kwargs.setdefault("server_url", "http://127.0.0.1:1")
    kwargs.setdefault("root", str(tmp_path / "serve"))
    kwargs.setdefault("min_workers", 1)
    kwargs.setdefault("max_workers", 4)
    return SupervisorConfig(**kwargs)


class TestSupervisorReplay:
    """Constructing a Supervisor replays fleet.jsonl and adopts
    pidfiles but spawns nothing until the first tick — so these tests
    never fork a worker."""

    def write_journal(self, tmp_path, entries):
        fleet_root = paths.fleet_dir(str(tmp_path / "serve"))
        os.makedirs(fleet_root, exist_ok=True)
        journal = Journal(paths.fleet_journal_path(fleet_root),
                          durable_ops=FLEET_DURABLE_OPS)
        for op, fields in entries:
            journal.append(op, **fields)
        journal.close()

    def test_replay_restores_desired_and_quarantine(self, tmp_path):
        self.write_journal(tmp_path, [
            ("scale", {"desired": 3, "reason": "operator"}),
            ("crash", {"slot": "w0", "t": 1000.0, "kind": "crash"}),
            ("crash", {"slot": "w0", "t": 1001.0, "kind": "crash"}),
            ("crash", {"slot": "w0", "t": 1002.0, "kind": "timeout"}),
        ])
        supervisor = Supervisor(supervisor_config(
            tmp_path, flap_threshold=3, flap_window_s=60.0))
        try:
            assert supervisor.desired == 3
            assert supervisor.budget.quarantined == ["w0"]
            assert "dominant kind: crash" in \
                supervisor.budget.slot_budget("w0").quarantine_reason
        finally:
            supervisor.shutdown(kill_workers=False)

    def test_replay_resumes_the_backoff_schedule(self, tmp_path):
        self.write_journal(tmp_path, [
            ("crash", {"slot": "w0", "t": 1000.0, "kind": "crash"}),
            ("crash", {"slot": "w0", "t": 1001.0, "kind": "crash"}),
        ])
        supervisor = Supervisor(supervisor_config(tmp_path, seed=7))
        try:
            assert supervisor.budget.slot_budget("w0").restarts == 2
            # The next delay equals what an uninterrupted budget with
            # the same seed would compute: the schedule survived.
            assert supervisor.budget.backoff_s("w0", 3) == \
                RestartBudget(seed=7).backoff_s("w0", 3)
        finally:
            supervisor.shutdown(kill_workers=False)

    def test_cleared_quarantine_stays_cleared_across_lives(self, tmp_path):
        self.write_journal(tmp_path, [
            ("crash", {"slot": "w0", "t": 1000.0, "kind": "crash"}),
            ("crash", {"slot": "w0", "t": 1001.0, "kind": "crash"}),
            ("clear", {"slot": "w0"}),
        ])
        supervisor = Supervisor(supervisor_config(
            tmp_path, flap_threshold=2, flap_window_s=60.0))
        try:
            assert supervisor.budget.quarantined == []
        finally:
            supervisor.shutdown(kill_workers=False)

    def test_adoption_reaps_orphan_corpses_as_crashes(self, tmp_path):
        root = str(tmp_path / "serve")
        fleet_root = paths.fleet_dir(root)
        corpse = subprocess.Popen([sys.executable, "-c", "pass"])
        corpse.wait()
        paths.write_worker_meta(fleet_root, "fleet-w0", corpse.pid,
                                "http://x:1")
        supervisor = Supervisor(supervisor_config(tmp_path))
        try:
            assert supervisor.crashes == 1
            assert supervisor.adoptions == 0
            assert supervisor.budget.slot_budget("w0").restarts == 1
            assert paths.read_worker_meta(fleet_root, "fleet-w0") is None
        finally:
            supervisor.shutdown(kill_workers=False)

    def test_foreign_prefix_pidfiles_are_ignored(self, tmp_path):
        root = str(tmp_path / "serve")
        paths.write_worker_meta(paths.fleet_dir(root), "hand-w0",
                                os.getpid(), "http://x:1")
        supervisor = Supervisor(supervisor_config(tmp_path))
        try:
            assert supervisor.slots == {}
            assert supervisor.crashes == 0
        finally:
            supervisor.shutdown(kill_workers=False)


class TestSoleSupervisorLock:
    def test_live_foreign_supervisor_is_refused(self, tmp_path):
        root = str(tmp_path / "serve")
        fleet_root = paths.fleet_dir(root)
        os.makedirs(fleet_root, exist_ok=True)
        holder = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            from repro.ioutil import atomic_write_json
            atomic_write_json(paths.supervisor_state_path(fleet_root),
                              {"pid": holder.pid}, durable=False)
            with pytest.raises(RuntimeError, match="already owns"):
                Supervisor(supervisor_config(tmp_path))
        finally:
            holder.kill()
            holder.wait()

    def test_dead_pid_is_stale_state_not_a_lock(self, tmp_path):
        root = str(tmp_path / "serve")
        fleet_root = paths.fleet_dir(root)
        os.makedirs(fleet_root, exist_ok=True)
        corpse = subprocess.Popen([sys.executable, "-c", "pass"])
        corpse.wait()
        from repro.ioutil import atomic_write_json
        atomic_write_json(paths.supervisor_state_path(fleet_root),
                          {"pid": corpse.pid}, durable=False)
        supervisor = Supervisor(supervisor_config(tmp_path))
        supervisor.shutdown(kill_workers=False)


class TestControlMailbox:
    def test_operator_scale_is_clamped_and_journaled(self, tmp_path):
        supervisor = Supervisor(supervisor_config(tmp_path,
                                                  max_workers=4))
        try:
            from repro.ioutil import atomic_write_json
            control = paths.control_path(supervisor.fleet_root)
            atomic_write_json(control, {"desired": 99}, durable=False)
            supervisor._apply_control()
            assert supervisor.desired == 4
            assert not os.path.exists(control)  # consumed
        finally:
            supervisor.shutdown(kill_workers=False)
        ops = [e for e in read_events(
            paths.fleet_journal_path(supervisor.fleet_root))
            if e["op"] == "scale"]
        assert ops and ops[-1]["desired"] == 4
        assert ops[-1]["reason"] == "operator"

    def test_drain_and_clear_quarantine(self, tmp_path):
        supervisor = Supervisor(supervisor_config(
            tmp_path, flap_threshold=2, flap_window_s=60.0))
        try:
            supervisor.budget.note_crash("w0", 0.0, kind="crash")
            supervisor.budget.note_crash("w0", 1.0, kind="crash")
            assert supervisor.budget.quarantined == ["w0"]
            from repro.ioutil import atomic_write_json
            atomic_write_json(paths.control_path(supervisor.fleet_root),
                              {"drain": True,
                               "clear_quarantine": ["w0"]},
                              durable=False)
            supervisor._apply_control()
            assert supervisor.desired == 0
            assert supervisor.budget.quarantined == []
        finally:
            supervisor.shutdown(kill_workers=False)

    def test_quarantined_slots_keep_their_names(self, tmp_path):
        supervisor = Supervisor(supervisor_config(
            tmp_path, max_workers=2, flap_threshold=1,
            flap_window_s=60.0))
        try:
            supervisor.budget.note_crash("w0", 0.0, kind="crash")
            # The replacement gets a fresh index above the benched slot.
            assert supervisor._pick_vacant_slot() == "w1"
            supervisor.budget.note_crash("w1", 1.0, kind="crash")
            assert supervisor._pick_vacant_slot() == "w2"
        finally:
            supervisor.shutdown(kill_workers=False)


# ----------------------------------------------------------- fleet gauges


class TestFleetGauges:
    def render(self, tmp_path, snapshot):
        from repro.ioutil import atomic_write_json
        from repro.serve.queue import JobQueue
        root = str(tmp_path / "serve")
        queue = JobQueue(root, lease_s=5.0, checkpoint_every=0)
        fleet_root = paths.fleet_dir(root)
        os.makedirs(fleet_root, exist_ok=True)
        atomic_write_json(paths.supervisor_state_path(fleet_root),
                          snapshot, durable=False)
        text = queue.prometheus_text()
        queue.close()
        return parse_prometheus(text)

    def snapshot_doc(self, **overrides):
        doc = {"pid": os.getpid(), "t": time.time(), "tick_s": 0.1,
               "desired": 3,
               "states": {"running": 2, "draining": 1},
               "quarantined": {"w0": "5 crashes in 60s"},
               "counters": {"spawns": 7, "crashes": 4, "adoptions": 2,
                            "clean_exits": 1},
               "breaker": {"state": "open"}}
        doc.update(overrides)
        return doc

    def sample(self, families, name, **labels):
        samples = families[name]["samples"]
        key = (name, tuple(sorted(labels.items())))
        return samples[key]

    def test_fresh_snapshot_renders_the_fleet_shape(self, tmp_path):
        fams = self.render(tmp_path, self.snapshot_doc())
        assert self.sample(fams, "repro_fleet_supervisor_up") == 1
        assert self.sample(fams, "repro_fleet_desired_workers") == 3
        assert self.sample(fams, "repro_fleet_workers",
                           state="running") == 2
        assert self.sample(fams, "repro_fleet_workers",
                           state="draining") == 1
        assert self.sample(fams, "repro_fleet_workers",
                           state="quarantined") == 1
        assert self.sample(fams, "repro_fleet_events_total",
                           kind="spawns") == 7
        assert self.sample(fams, "repro_fleet_breaker_state",
                           state="open") == 1
        assert self.sample(fams, "repro_fleet_breaker_state",
                           state="closed") == 0

    def test_dead_supervisor_zeroes_up_but_keeps_shape(self, tmp_path):
        corpse = subprocess.Popen([sys.executable, "-c", "pass"])
        corpse.wait()
        fams = self.render(tmp_path, self.snapshot_doc(pid=corpse.pid))
        assert self.sample(fams, "repro_fleet_supervisor_up") == 0
        assert self.sample(fams, "repro_fleet_desired_workers") == 3

    def test_stale_snapshot_zeroes_up(self, tmp_path):
        fams = self.render(tmp_path,
                           self.snapshot_doc(t=time.time() - 3600))
        assert self.sample(fams, "repro_fleet_supervisor_up") == 0
        assert self.sample(fams,
                           "repro_fleet_snapshot_age_seconds") > 100

    def test_no_snapshot_no_fleet_families(self, tmp_path):
        from repro.serve.queue import JobQueue
        queue = JobQueue(str(tmp_path / "serve"), lease_s=5.0,
                         checkpoint_every=0)
        fams = parse_prometheus(queue.prometheus_text())
        queue.close()
        assert "repro_fleet_supervisor_up" not in fams


# ----------------------------------------------- integration (real fleet)


def drill_spec(seed):
    return JobSpec(config_label="CB-All", workload="lock",
                   workload_params={"lock_name": "ttas",
                                    "iterations": 2},
                   config_overrides={"num_cores": 4},
                   seed=seed).to_dict()


class TestSupervisedFleetSmoke:
    def test_supervisor_runs_a_small_flood_end_to_end(self, tmp_path):
        from repro.serve.api import ServeService
        from repro.serve.queue import JobQueue
        root = str(tmp_path / "serve")
        queue = JobQueue(root, lease_s=5.0, checkpoint_every=0)
        service = ServeService(queue, housekeeping_s=0.1).start()
        client = ServeClient(service.url)
        supervisor = Supervisor(SupervisorConfig(
            server_url=service.url, root=root,
            min_workers=2, max_workers=2, initial_workers=2,
            tick_s=0.1, poll_s=0.05, seed=3))
        try:
            client.submit_many("alice",
                               [drill_spec(s) for s in range(6)])
            deadline = time.time() + 60
            while time.time() < deadline:
                supervisor.tick()
                status = client.status()
                if status["runs"].get("done", 0) == 6:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("fleet never finished the flood")
            snap = supervisor.snapshot()
            assert snap["states"]["running"] == 2
            assert snap["counters"]["spawns"] == 2
            assert snap["counters"]["crashes"] == 0
            # The snapshot feeds /metrics: the service sees its fleet.
            fams = parse_prometheus(client.metrics())
            key = ("repro_fleet_supervisor_up", ())
            assert fams["repro_fleet_supervisor_up"]["samples"][key] == 1
        finally:
            supervisor.shutdown(kill_workers=True)
            service.stop()
        # Graceful shutdown drained both workers; no orphans remain.
        assert paths.read_worker_metas(paths.fleet_dir(root),
                                       live_only=True) == []


class TestPartitionDrill:
    def test_drill_holds_every_invariant(self, tmp_path):
        # Default parameters on purpose: a scaled-down flood can starve
        # the respawned kamikaze of the job it must die on, making the
        # quarantine verdict timing-dependent. CI's fleet-smoke job runs
        # this same configuration via the CLI.
        from repro.fleet.drill import run_drill
        manifest = run_drill(str(tmp_path / "drill"))
        assert manifest["ok"], manifest["problems"]
        assert manifest["acked"] == 300
        assert manifest["unique_runs"] == 100
        assert manifest["quarantined"] == ["w0", "w1"]
        assert manifest["duplicate_commits"] == 0
        assert manifest["adoptions"] >= 1
