"""repro.resilience: fault plans, injection, liveness, campaigns, CLI."""

import json
import pickle

import pytest

from repro.config import config_for
from repro.core.machine import Machine
from repro.harness.runner import run_config
from repro.harness.sweeps import Sweep
from repro.obs.export import validate_chrome_trace
from repro.protocols.ops import (BackoffWait, Compute, Load, LoadThrough,
                                 StKind)
from repro.resilience import (FAILURE_EXIT_CODES, Fault, FaultKind, FaultPlan,
                              Resilience, ResilienceConfig, classify_failure,
                              execute_plan, exit_code_for, load_plan_by_key,
                              make_fault_plan, minimize_plan, run_campaign)
from repro.resilience.cli import main as cli_main
from repro.sim.engine import (DeadlockError, LivenessError, SimulationError,
                              SimulationTimeout)
from repro.sync import make_lock, style_for
from repro.sync.ticket import TicketLock
from repro.validation import InvariantViolation
from repro.workloads.microbench import LockMicrobench
from repro.workloads.suite import get_workload

WORKLOAD = {"lock_name": "ttas", "iterations": 2}
OVERRIDES = {"num_cores": 4}


def plan_for(label, count=0, kinds=(FaultKind.CB_EVICT,), fault_seed=0,
             horizon=1500, seed=1, **extra_overrides):
    return make_fault_plan(label, "lock", WORKLOAD,
                           {**OVERRIDES, **extra_overrides}, seed=seed,
                           fault_seed=fault_seed, kinds=kinds, count=count,
                           horizon=horizon)


def contended_machine(label, resilience=None, threads=4, iterations=3):
    """A 4-core TTAS-contention machine, ready to run."""
    cfg = config_for(label, num_cores=4)
    machine = Machine(cfg, resilience=resilience)
    lock = make_lock("ttas", style_for(cfg))
    lock.setup(machine.layout, threads)
    for addr, value in lock.initial_values().items():
        machine.store.write(addr, value)

    def body(ctx):
        for _ in range(iterations):
            yield from lock.acquire(ctx)
            yield Compute(20)
            yield from lock.release(ctx)
            yield Compute(1 + ctx.rng.randrange(30))

    machine.spawn([body] * threads)
    return machine


# --------------------------------------------------------------- fault plans


class TestFaultPlans:
    def test_key_is_content_addressed(self):
        a = plan_for("CB-One", count=4)
        b = plan_for("CB-One", count=4)
        assert a.plan_key() == b.plan_key()
        assert len(a.plan_key()) == 64
        assert plan_for("CB-One", count=4, fault_seed=1).plan_key() \
            != a.plan_key()
        assert plan_for("CB-All", count=4).plan_key() != a.plan_key()
        assert plan_for("CB-One", count=4, seed=2).plan_key() != a.plan_key()
        assert a.subset(a.faults[:2]).plan_key() != a.plan_key()

    def test_schedule_is_a_pure_function_of_its_seed(self):
        a = plan_for("CB-One", count=6, fault_seed=9)
        b = plan_for("CB-One", count=6, fault_seed=9)
        assert a.faults == b.faults

    def test_roundtrip_and_load_by_key(self, tmp_path):
        plan = plan_for("CB-One", count=5,
                        kinds=(FaultKind.CB_EVICT, FaultKind.WAKEUP_DELAY))
        path = plan.save(str(tmp_path))
        assert FaultPlan.load(path).plan_key() == plan.plan_key()
        loaded = load_plan_by_key(str(tmp_path), plan.plan_key()[:10])
        assert loaded.faults == plan.faults

    def test_tampered_plan_is_refused(self, tmp_path):
        plan = plan_for("CB-One", count=3, kinds=(FaultKind.WAKEUP_DELAY,))
        path = plan.save(str(tmp_path))
        with open(path) as handle:
            doc = json.load(handle)
        doc["faults"][0]["magnitude"] += 1
        with open(path, "w") as handle:
            json.dump(doc, handle)
        with pytest.raises(ValueError, match="hashes to"):
            FaultPlan.load(path)
        with pytest.raises(ValueError, match="hashes to"):
            load_plan_by_key(str(tmp_path), plan.plan_key()[:10])

    def test_plan_under_a_free_name_loads_unchecked(self, tmp_path):
        plan = plan_for("CB-One", count=2)
        path = str(tmp_path / "hand-written.json")
        with open(path, "w") as handle:
            json.dump(plan.to_dict(), handle)
        assert FaultPlan.load(path).plan_key() == plan.plan_key()

    def test_key_is_pinned(self):
        # Recorded before plans moved onto the shared ioutil base.
        assert make_fault_plan("CB-One", "lock", count=4).plan_key() == \
            "29486528f85fad9cce067a096a678f4c79965434ba25795208f4b8f199d277dd"

    def test_edited_plan_under_a_new_name_is_refused(self, tmp_path):
        plan = plan_for("CB-One", count=2)
        with open(plan.save(str(tmp_path))) as handle:
            doc = json.load(handle)
        doc["seed"] = 99
        edited = str(tmp_path / "edited.json")
        with open(edited, "w") as handle:
            json.dump(doc, handle)
        with pytest.raises(ValueError, match="hashes to"):
            FaultPlan.load(edited)

    def test_legacy_bare_plan_under_its_key_loads(self, tmp_path):
        plan = plan_for("CB-One", count=3)
        path = tmp_path / f"{plan.plan_key()}.json"
        with open(path, "w") as handle:
            json.dump(plan.to_dict(), handle)
        assert FaultPlan.load(str(path)).plan_key() == plan.plan_key()
        loaded = load_plan_by_key(str(tmp_path), plan.plan_key()[:10])
        assert loaded.faults == plan.faults

    def test_prefix_lookup_rejects_missing_and_ambiguous(self, tmp_path):
        plan_for("CB-One", count=1).save(str(tmp_path))
        plan_for("CB-One", count=2).save(str(tmp_path))
        with pytest.raises(FileNotFoundError):
            load_plan_by_key(str(tmp_path), "not-a-hash")
        with pytest.raises(ValueError, match="ambiguous"):
            load_plan_by_key(str(tmp_path), "")

    def test_requested_kinds_all_appear(self):
        plan = plan_for("CB-One", count=4,
                        kinds=(FaultKind.CB_EVICT, FaultKind.L1_DROP))
        assert plan.kinds() == ["cb_evict", "l1_drop"]


# ----------------------------------------------------- inertness / identity


class TestInertResilience:
    """An attached-but-empty resilience layer must change nothing."""

    @pytest.mark.parametrize("label",
                             ["Invalidation", "BackOff-10", "CB-One",
                              "CB-All"])
    def test_empty_plan_is_bit_identical(self, label):
        plain = run_config(label, LockMicrobench("ttas", iterations=3),
                           num_cores=4)
        armed = run_config(
            label, LockMicrobench("ttas", iterations=3),
            resilience=Resilience(ResilienceConfig(
                plan=plan_for(label, count=0), watchdog_stall=100_000)),
            num_cores=4)
        assert armed.stats.cycles == plain.stats.cycles
        assert armed.stats.counters() == plain.stats.counters()
        # An empty plan installs no hooks at all.
        assert armed.resilience.injector is None

    def test_config_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            ResilienceConfig(audit_every=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(watchdog_stall=-5)
        with pytest.raises(TypeError):
            Resilience(ResilienceConfig(), audit_every=100)


# ------------------------------------------------------------- injection


class TestInjector:
    def test_forced_evictions_are_survived_and_counted(self):
        faults = [Fault(kind=FaultKind.CB_EVICT, cycle=cycle, selector=s)
                  for s, cycle in enumerate(range(150, 1200, 150))]
        plan = plan_for("CB-One").subset(faults)
        resilience = Resilience(ResilienceConfig(plan=plan))
        machine = contended_machine("CB-One", resilience=resilience)
        stats = machine.run()
        assert stats.cb_forced_evictions >= 1
        assert stats.faults_injected >= stats.cb_forced_evictions
        summary = resilience.injector.summary()
        # Faults scheduled past the end of the run never fire (daemon
        # events do not keep the simulation alive).
        assert 1 <= summary["events_fired"] <= len(faults)
        assert summary["events_applied"] == stats.cb_forced_evictions

    def test_wakeup_windows_are_charged_to_stats(self):
        faults = [
            Fault(kind=FaultKind.WAKEUP_DELAY, cycle=0, duration=50_000,
                  magnitude=25),
            Fault(kind=FaultKind.WAKEUP_DUP, cycle=0, duration=50_000,
                  magnitude=1),
        ]
        plan = plan_for("CB-One").subset(faults)
        machine = contended_machine(
            "CB-One", resilience=Resilience(ResilienceConfig(plan=plan)))
        stats = machine.run()
        assert stats.msgs_delayed > 0
        assert stats.msgs_duplicated > 0

    def test_backoff_perturb_on_vips(self):
        faults = [Fault(kind=FaultKind.BACKOFF_PERTURB, cycle=0,
                        duration=50_000, magnitude=7)]
        plan = plan_for("BackOff-10").subset(faults)
        machine = contended_machine(
            "BackOff-10", resilience=Resilience(ResilienceConfig(plan=plan)))
        stats = machine.run()
        assert stats.backoff_perturbations > 0

    def test_l1_drop_hits_a_clean_line(self):
        # Clean (read-only) lines are the only droppable ones, so give
        # core 0 a read-heavy body instead of a write-heavy lock loop.
        faults = [Fault(kind=FaultKind.L1_DROP, cycle=cycle, selector=0)
                  for cycle in range(100, 2_000, 100)]
        plan = plan_for("BackOff-10").subset(faults)
        machine = Machine(config_for("BackOff-10", num_cores=4),
                          resilience=Resilience(ResilienceConfig(plan=plan)))
        addrs = machine.layout.alloc_sync_words(8)

        def reader(ctx):
            for _ in range(20):
                for addr in addrs:
                    yield Load(addr)
                    yield Compute(10)

        machine.spawn([reader])
        stats = machine.run()
        assert stats.l1_fault_drops >= 1
        assert stats.faults_injected >= stats.l1_fault_drops


# -------------------------------------------------------------- campaigns


class TestCampaign:
    def test_forced_evictions_preserve_function(self, tmp_path):
        out = tmp_path / "out"
        result = run_campaign(
            ["CB-One", "CB-All"], "lock", WORKLOAD, OVERRIDES,
            seeds=(1,), kinds=(FaultKind.CB_EVICT,), fault_seeds=(0, 1),
            count=6, horizon=1500, out_dir=str(out))
        assert result.ok, result.manifest()
        assert len(result.outcomes) == 4
        for outcome in result.outcomes:
            assert outcome.fingerprint == outcome.baseline_fingerprint
        assert sum(o.faults_applied for o in result.outcomes) > 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["total"] == 4
        assert manifest["by_status"] == {"ok": 4}
        assert manifest["failures"] == []

    def test_mixed_kind_campaign_is_functionally_clean(self):
        result = run_campaign(
            ["CB-One"], "lock", WORKLOAD, OVERRIDES, seeds=(1,),
            kinds=(FaultKind.CB_EVICT, FaultKind.WAKEUP_DELAY,
                   FaultKind.WAKEUP_DUP, FaultKind.BACKOFF_PERTURB),
            fault_seeds=(0,), count=8, horizon=1500)
        assert result.ok, result.manifest()
        assert result.summary() == "1 plan(s): 1 ok"


# --------------------------------------------------- failing-plan lifecycle


def timeout_plan():
    """A genuinely failing plan: one huge wakeup delay pushes a TTAS run
    past a cycle budget the fault-free run comfortably meets."""
    base = execute_plan(plan_for("CB-One"), baseline="")
    assert base.status == "ok"
    budget = base.cycles + 300
    delay = Fault(kind=FaultKind.WAKEUP_DELAY, cycle=0,
                  duration=budget + 10_000, magnitude=4_000)
    return FaultPlan(config_label="CB-One", workload="lock",
                     workload_params=dict(WORKLOAD),
                     config_overrides={**OVERRIDES, "max_cycles": budget},
                     seed=1, fault_seed=3, faults=[delay])


class TestFailingPlans:
    def test_failure_replays_deterministically_by_hash(self, tmp_path):
        plan = timeout_plan()
        first = execute_plan(plan)
        second = execute_plan(plan)
        assert first.status == "timeout"
        assert (second.status, second.cycles) == (first.status, first.cycles)
        plans_dir = str(tmp_path / "plans")
        plan.save(plans_dir)
        loaded = load_plan_by_key(plans_dir, plan.plan_key()[:12])
        replay = execute_plan(loaded)
        assert (replay.status, replay.cycles) == (first.status, first.cycles)

    def test_cli_replay_exit_code_names_the_class(self, tmp_path, capsys):
        plan = timeout_plan()
        plans_dir = str(tmp_path / "plans")
        plan.save(plans_dir)
        rc = cli_main(["replay", plan.plan_key()[:12], "--plans", plans_dir])
        assert rc == FAILURE_EXIT_CODES["timeout"] == 4
        assert "status=timeout" in capsys.readouterr().out

    def test_minimize_isolates_the_culprit(self):
        plan = timeout_plan()
        decoys = [Fault(kind=FaultKind.BACKOFF_PERTURB, cycle=10 + i,
                        duration=5, selector=i, magnitude=1)
                  for i in range(3)]
        fat = plan.subset(list(plan.faults) + decoys)
        assert execute_plan(fat).status == "timeout"
        minimal = minimize_plan(fat)
        assert len(minimal) < len(fat)
        assert execute_plan(minimal).status == "timeout"
        assert any(f.kind is FaultKind.WAKEUP_DELAY for f in minimal.faults)


# ------------------------------------------------------ liveness watchdog


class TestWatchdog:
    def test_livelock_raises_with_structured_diagnosis(self):
        cfg = config_for("BackOff-10", num_cores=4)
        resilience = Resilience(ResilienceConfig(watchdog_stall=3_000))
        machine = Machine(cfg, resilience=resilience)
        flag = machine.layout.alloc_sync_word()

        def spinner(ctx):
            attempt = 0
            while True:
                value = yield LoadThrough(flag)
                if value:   # never: nobody stores to flag
                    break
                yield BackoffWait(min(attempt, 6))
                attempt += 1

        machine.spawn([spinner])
        with pytest.raises(LivenessError) as excinfo:
            machine.run()
        diag = excinfo.value.diagnosis
        assert diag is not None
        assert diag.kind == "livelock"
        assert 0 in diag.blocked_cores()
        assert validate_chrome_trace(diag.to_trace()) == []

    def test_quiet_watchdog_does_not_fire_on_progress(self):
        machine = contended_machine(
            "CB-One",
            resilience=Resilience(ResilienceConfig(watchdog_stall=100_000)))
        machine.run()   # completes without LivenessError

    def test_a_long_compute_is_progress(self):
        """swaptions computes for longer than the stall window between
        retired ops; every core is computing, not livelocked."""
        machine = Machine(
            config_for("CB-One", num_cores=16, seed=1),
            resilience=Resilience(ResilienceConfig(watchdog_stall=50_000)))
        get_workload("swaptions", "clh", "treesr", 0.25).install(machine)
        assert machine.run().cycles == 353_826


# ------------------------------------------------- deadlock post-mortems


def deadlocked_ticket_machine():
    """The st_cb1 lost-wakeup scenario from the sync test suite: waking
    one arbitrary waiter of a value-matched spin parks everyone."""
    cfg = config_for("CB-One", num_cores=4)
    machine = Machine(cfg)
    lock = TicketLock(style_for(cfg), release_kind=StKind.CB1)
    lock.setup(machine.layout, 4)
    for addr, value in lock.initial_values().items():
        machine.store.write(addr, value)

    def body(ctx):
        yield Compute(1 + (3 - ctx.tid) * 60)
        yield from lock.acquire(ctx)
        yield Compute(500)
        yield from lock.release(ctx)

    machine.spawn([body] * 4)
    return machine


class TestDeadlockDiagnosis:
    def test_lost_wakeup_names_the_parked_waiters(self):
        machine = deadlocked_ticket_machine()
        with pytest.raises(DeadlockError) as excinfo:
            machine.run()
        diag = excinfo.value.diagnosis
        assert diag is not None
        assert diag.kind == "deadlock"
        parked = diag.parked_waiter_cores()
        assert parked, "diagnosis must name the parked waiters"
        assert set(parked) <= set(diag.blocked_cores())
        assert {w["core"] for w in diag.waiters} == set(parked)
        for waiter in diag.waiters:
            assert waiter["since"] <= diag.cycle

    def test_diagnosis_trace_is_perfetto_loadable(self, tmp_path):
        machine = deadlocked_ticket_machine()
        with pytest.raises(DeadlockError) as excinfo:
            machine.run()
        diag = excinfo.value.diagnosis
        assert validate_chrome_trace(diag.to_trace()) == []
        path = tmp_path / "deadlock.trace.json"
        diag.write_trace(str(path))
        data = json.loads(path.read_text())
        assert data["traceEvents"]
        phases = {event["ph"] for event in data["traceEvents"]}
        assert "X" in phases   # parked-waiter spans
        assert "i" in phases   # the verdict instant


# ----------------------------------------------------- simulation budgets


class TestCycleDeadline:
    def test_machine_max_cycles_reports_progress(self):
        cfg = config_for("CB-One", num_cores=4, max_cycles=200)
        machine = Machine(cfg)
        lock = make_lock("ttas", style_for(cfg))
        lock.setup(machine.layout, 4)
        for addr, value in lock.initial_values().items():
            machine.store.write(addr, value)

        def body(ctx):
            for _ in range(50):
                yield from lock.acquire(ctx)
                yield Compute(100)
                yield from lock.release(ctx)

        machine.spawn([body] * 4)
        with pytest.raises(SimulationTimeout) as excinfo:
            machine.run()
        exc = excinfo.value
        assert exc.reason == "max_cycles"
        assert exc.cycle <= 200
        assert sorted(exc.progress) == [0, 1, 2, 3]
        assert isinstance(exc, SimulationError)

    def test_timeout_pickles_with_structure(self):
        exc = SimulationTimeout("m", reason="max_cycles", cycle=7, events=3,
                                progress={0: 2, 1: 5})
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.reason == "max_cycles"
        assert (clone.cycle, clone.events) == (7, 3)
        assert clone.progress == {0: 2, 1: 5}


# ------------------------------------------------------- periodic audits


class TestPeriodicAudits:
    def test_clean_run_passes_audits(self):
        result = run_config("CB-One", LockMicrobench("ttas", iterations=3),
                            resilience=Resilience(
                                ResilienceConfig(audit_every=400)),
                            num_cores=4)
        summary = result.resilience.summary()
        assert summary["audits_run"] > 0
        assert "callback_directory" in summary["audit_checks"]

    @pytest.mark.parametrize("cores", [4, 16])
    @pytest.mark.parametrize("lock", ["ttas", "tas", "clh", "mcs"])
    def test_contended_mesi_runs_pass_audits(self, lock, cores):
        """Audits land mid-transaction: the directory has adopted the
        new owner while the forward is still in flight. A busy line is
        exempt from directory agreement, never from SWMR itself."""
        result = run_config("Invalidation",
                            LockMicrobench(lock, iterations=3),
                            resilience=Resilience(
                                ResilienceConfig(audit_every=100)),
                            num_cores=cores)
        summary = result.resilience.summary()
        assert summary["audits_run"] > 0
        assert summary["audit_checks"] == ["mesi_swmr"]

    def test_mesi_app_passes_audits(self):
        result = run_config("Invalidation",
                            get_workload("barnes", scale=0.05),
                            resilience=Resilience(
                                ResilienceConfig(audit_every=100)),
                            num_cores=16)
        assert result.resilience.summary()["audits_run"] > 0

    def test_serial_sweep_audits_every_point(self):
        sweep = Sweep(configs=["CB-One", "BackOff-10"],
                      workload_spec="lock", spec_params=dict(WORKLOAD),
                      metrics={"audits": lambda r:
                               r.resilience.summary()["audits_run"]})
        rows = sweep.run(audit_every=100, num_cores=4)
        assert all(row["audits"] > 0 for row in rows)

    def test_audited_sweeps_are_serial_only(self):
        sweep = Sweep(configs=["CB-One"], workload_spec="lock",
                      spec_params=dict(WORKLOAD),
                      metrics={"cycles": lambda r: r.cycles})
        with pytest.raises(ValueError, match="serial-only"):
            sweep.run(jobs=2, audit_every=100, num_cores=4)


# ------------------------------------------------------ failure taxonomy


class TestClassification:
    def test_exceptions_map_to_kinds(self):
        assert classify_failure(SimulationTimeout("t")) == "timeout"
        assert classify_failure(DeadlockError("d")) == "liveness"
        assert classify_failure(LivenessError("l")) == "liveness"
        assert classify_failure(InvariantViolation("i")) == "invariant"
        assert classify_failure(TimeoutError()) == "timeout"
        assert classify_failure(ValueError("v")) == "error"

    def test_exit_code_picks_the_most_severe(self):
        assert exit_code_for([]) == 0
        assert exit_code_for(["ok", "ok"]) == 0
        assert exit_code_for(["ok", "timeout"]) == 4
        assert exit_code_for(["timeout", "invariant"]) == 2
        assert exit_code_for(["quarantined", "liveness"]) == 3
        assert exit_code_for(["mismatch", "error"]) == 7


# ------------------------------------------------------------------- CLI


class TestCampaignCLI:
    def test_campaign_smoke(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli_main(["campaign", "--configs", "CB-One",
                       "--workload", "lock:ttas", "--param", "iterations=2",
                       "--cores", "4", "--count", "4", "--horizon", "1500",
                       "--out", str(out)])
        assert rc == 0
        assert (out / "manifest.json").exists()
        assert "1 ok" in capsys.readouterr().out
