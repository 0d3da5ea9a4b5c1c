"""The orchestration subsystem: specs, cache, scheduler, CLI."""

import functools
import json
import os
import subprocess
import sys
import time

import pytest

from repro.harness.replication import replicate
from repro.harness.sweeps import Sweep
from repro.orchestrate import (JobSpec, Orchestrator, RecordResult,
                               ResultCache, build_workload, execute_job,
                               run_batch)
from repro.orchestrate.cli import build_specs, main
from repro.orchestrate.registry import parse_run_spec, parse_value
from repro.workloads.microbench import BarrierMicrobench, LockMicrobench
from tests.test_appendlog import needs_proc_fds, open_handles


def spec_for(seed=1, iterations=2, label="CB-One", **overrides):
    overrides.setdefault("num_cores", 4)
    return JobSpec(config_label=label, workload="lock",
                   workload_params={"lock_name": "ttas",
                                    "iterations": iterations},
                   config_overrides=overrides, seed=seed)


# Injectable run functions. Top-level (picklable) so the parallel paths
# can ship them to pool workers.

def fake_run(spec_dict):
    spec = JobSpec.from_dict(spec_dict)
    return {
        "job_key": spec.job_key(),
        "spec": spec.to_dict(),
        "result": {"workload": spec.workload,
                   "config": spec.config_label,
                   "cycles": 100 + spec.seed, "traffic": 7, "llc_sync": 1,
                   "energy": {"total_pj": 1.0},
                   "stats": {"cycles": 100 + spec.seed,
                             "episodes": {"lock_acquire": {"n": 1,
                                                           "mean": 5.0}}}},
        "meta": {"wall_s": 0.0},
    }


def crash_once_run(spec_dict, sentinel):
    """Hard-kills the worker process on the first call ever (sentinel
    file marks that the crash already happened)."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os._exit(3)
    return fake_run(spec_dict)


def sleepy_run(spec_dict, seconds):
    time.sleep(seconds)
    return fake_run(spec_dict)


def bad_label_run(spec_dict):
    raise ValueError("unknown configuration label: 'CB-Two'")


def slow_first_two_run(spec_dict):
    """Seeds 1-2 outlive a short batch timeout; seed 3 is quick."""
    time.sleep(1.2 if JobSpec.from_dict(spec_dict).seed < 3 else 0.05)
    return fake_run(spec_dict)


def slow_once_run(spec_dict, sentinel):
    """Sleeps 0.3 s on the first call ever (the sentinel file marks that
    it already did), then runs fast."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        time.sleep(0.3)
    return fake_run(spec_dict)


class TestJobSpec:
    def test_key_is_stable_and_order_insensitive(self):
        a = JobSpec("CB-One", "lock",
                    workload_params={"a": 1, "b": 2},
                    config_overrides={"x": 1, "y": 2}, seed=3)
        b = JobSpec("CB-One", "lock",
                    workload_params={"b": 2, "a": 1},
                    config_overrides={"y": 2, "x": 1}, seed=3)
        assert a.job_key() == b.job_key()
        assert len(a.job_key()) == 64

    def test_key_depends_on_every_field(self):
        base = spec_for()
        assert base.job_key() != spec_for(seed=2).job_key()
        assert base.job_key() != spec_for(iterations=3).job_key()
        assert base.job_key() != spec_for(label="CB-All").job_key()
        assert base.job_key() != spec_for(num_cores=16).job_key()

    def test_roundtrip(self):
        spec = spec_for(seed=4)
        again = JobSpec.from_dict(json.loads(
            json.dumps(spec.to_dict())))
        assert again.job_key() == spec.job_key()

    def test_seed_override_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            JobSpec("CB-One", "lock", config_overrides={"seed": 2})


class TestRegistry:
    def test_builds_registered_specs(self):
        lock = build_workload("lock", {"lock_name": "clh",
                                       "iterations": 3})
        assert isinstance(lock, LockMicrobench)
        assert lock.lock_name == "clh" and lock.iterations == 3
        barrier = build_workload("barrier", {"barrier_name": "sr"})
        assert isinstance(barrier, BarrierMicrobench)
        app = build_workload("app", {"name": "barnes", "scale": 0.25})
        assert app.name == "barnes"

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError, match="unknown workload spec"):
            build_workload("nope", {})

    @pytest.mark.parametrize("workload,name,detail", [
        ("app:barnes", "app", {"name": "barnes"}),
        ("lock:ttas", "lock", {"lock_name": "ttas"}),
        ("barrier:sr", "barrier", {"barrier_name": "sr"}),
        ("signal-wait", "signal_wait", {}),
        ("task_queue", "task_queue", {}),
    ])
    def test_run_spec_parser_matches_build_specs(self, workload, name,
                                                 detail):
        import argparse
        parsed = parse_run_spec(workload, ["iterations=3"],
                                ["cb_entries_per_bank=8"], cores=16)
        # The name, params and overrides build_specs produced before
        # every CLI moved onto the registry parser.
        assert parsed == (name, {"iterations": 3, **detail},
                          {"cb_entries_per_bank": 8, "num_cores": 16})
        (spec,) = build_specs(argparse.Namespace(
            workload=workload, param=["iterations=3"],
            override=["cb_entries_per_bank=8"], cores=16,
            configs="CB-One", seeds="1"))
        assert (spec.workload, spec.workload_params,
                spec.config_overrides) == parsed


class TestCache:
    def test_round_trip_and_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        spec = spec_for()
        assert cache.get(spec) is None
        record = fake_run(spec.to_dict())
        path = cache.put(spec, record)
        assert os.path.exists(path)
        assert cache.get(spec) == record
        assert cache.get(spec_for(seed=9)) is None
        assert cache.keys() == [spec.job_key()]

    def test_corrupt_record_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = spec_for()
        cache.put(spec, fake_run(spec.to_dict()))
        with open(cache.path_for(spec.job_key()), "w") as handle:
            handle.write("{not json")
        assert cache.get(spec) is None

    def test_spec_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec, other = spec_for(), spec_for(seed=2)
        # Simulate a collision/hand-edit: other's record under spec's key.
        record = fake_run(other.to_dict())
        cache.put(spec, record)
        assert cache.get(spec) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for seed in (1, 2, 3):
            spec = spec_for(seed=seed)
            cache.put(spec, fake_run(spec.to_dict()))
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0


class TestExecuteJob:
    def test_real_simulation_record(self):
        record = execute_job(spec_for().to_dict())
        assert record["job_key"] == spec_for().job_key()
        result = record["result"]
        assert result["cycles"] > 0 and result["config"] == "CB-One"
        view = RecordResult(record)
        assert view.cycles == result["cycles"]
        assert view.episode_mean("lock_acquire") > 0
        assert view.energy.total > 0


class SchedulingModeCases:
    """Tests whose ``run_fn`` is module-level (picklable), so they run
    unchanged under both scheduling modes: subclasses pick ``jobs``."""

    jobs = 1

    def test_deterministic_errors_fail_fast(self):
        batch = Orchestrator(jobs=self.jobs, retries=2,
                             run_fn=bad_label_run).run([spec_for()])
        (job,) = batch.results
        assert job.status == "failed" and job.attempts == 1
        assert batch.events.counts["retried"] == 0

    def test_timeout_recorded_and_not_cached(self, tmp_path):
        batch = Orchestrator(
            jobs=self.jobs, cache=str(tmp_path), timeout=0.01,
            run_fn=functools.partial(sleepy_run, seconds=0.05),
        ).run([spec_for()])
        (job,) = batch.results
        assert job.status == "timeout" and not job.ok
        assert batch.events.counts["timeout"] == 1
        assert len(ResultCache(str(tmp_path))) == 0

    def test_duplicate_specs_simulate_once(self):
        batch = run_batch([spec_for(), spec_for()], jobs=self.jobs,
                          run_fn=fake_run)
        assert batch.simulations_executed == 1
        assert batch.results[0].record is batch.results[1].record


class TestOrchestratorSerial(SchedulingModeCases):
    def test_cache_hit_miss_round_trip(self, tmp_path):
        specs = [spec_for(seed=s) for s in (1, 2, 3)]
        first = run_batch(specs, cache_dir=str(tmp_path), run_fn=fake_run)
        assert first.ok and first.simulations_executed == 3
        # Second run: everything from cache, zero simulations executed.
        second = run_batch(specs, cache_dir=str(tmp_path),
                           run_fn=fake_run)
        assert second.ok and second.simulations_executed == 0
        assert second.events.counts["cache_hit"] == 3
        assert [r.record["result"] for r in second.results] \
            == [r.record["result"] for r in first.results]
        # A new seed is the only miss on a third, extended run.
        third = run_batch(specs + [spec_for(seed=4)],
                          cache_dir=str(tmp_path), run_fn=fake_run)
        assert third.simulations_executed == 1

    @needs_proc_fds
    def test_run_releases_the_event_log_and_a_second_run_appends(
            self, tmp_path):
        from repro.ioutil import read_events
        orchestrator = Orchestrator(cache=str(tmp_path), run_fn=fake_run)
        path = tmp_path / "events.jsonl"
        orchestrator.run([spec_for(seed=1)])
        assert open_handles(path) == 0
        first = read_events(str(path))
        orchestrator.run([spec_for(seed=2)])
        assert open_handles(path) == 0
        kinds = [e["kind"] for e in read_events(str(path))[len(first):]]
        assert kinds == ["queued", "started", "finished", "cache_stats"]

    def test_retry_after_injected_failure(self):
        calls = []

        def flaky(spec_dict):
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("injected crash")
            return fake_run(spec_dict)

        batch = Orchestrator(retries=2, backoff_s=0.001,
                             run_fn=flaky).run([spec_for()])
        (job,) = batch.results
        assert job.ok and job.attempts == 3
        assert batch.events.counts["retried"] == 2

    def test_exhausted_retries_do_not_sink_the_batch(self):
        def doomed(spec_dict):
            spec = JobSpec.from_dict(spec_dict)
            if spec.seed == 2:
                raise RuntimeError("always fails")
            return fake_run(spec_dict)

        batch = Orchestrator(retries=1, backoff_s=0.001,
                             run_fn=doomed).run(
            [spec_for(seed=s) for s in (1, 2, 3)])
        assert [r.status for r in batch.results] \
            == ["finished", "failed", "finished"]
        assert not batch.ok
        (failed,) = batch.failed
        assert failed.attempts == 2 and "always fails" in failed.error
        with pytest.raises(RuntimeError, match="always fails"):
            failed.result()

    def test_events_narrate_the_batch(self, tmp_path):
        run_batch([spec_for()], cache_dir=str(tmp_path), run_fn=fake_run)
        sink = tmp_path / "events.jsonl"
        kinds = [json.loads(line)["kind"]
                 for line in sink.read_text().splitlines()]
        assert kinds == ["queued", "started", "finished",
                         "cache_stats"]

    def test_checkpointed_timeout_is_retried(self, tmp_path):
        batch = Orchestrator(
            timeout=0.1, checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_every=1000,
            run_fn=functools.partial(slow_once_run,
                                     sentinel=str(tmp_path / "slow")),
        ).run([spec_for()])
        (job,) = batch.results
        assert job.status == "finished" and job.attempts == 2


class TestOrchestratorTwoJobs(SchedulingModeCases):
    jobs = 2


class TestOrchestratorParallel:
    def test_worker_crash_is_retried(self, tmp_path):
        sentinel = str(tmp_path / "crashed")
        batch = Orchestrator(
            jobs=2, retries=2, backoff_s=0.001,
            run_fn=functools.partial(crash_once_run, sentinel=sentinel),
        ).run([spec_for(seed=s) for s in (1, 2, 3)])
        assert batch.ok, [r.error for r in batch.failed]
        assert os.path.exists(sentinel)
        assert batch.events.counts["retried"] >= 1

    def test_parallel_timeout(self):
        batch = Orchestrator(
            jobs=2, timeout=0.2,
            run_fn=functools.partial(sleepy_run, seconds=0.8),
        ).run([spec_for()])
        (job,) = batch.results
        assert job.status == "timeout"

    def test_abandoned_jobs_hold_their_slots(self):
        # Seeds 1-2 time out at 0.4 s but keep both pool workers busy
        # until 1.2 s; seed 3 must not start its deadline clock before
        # a worker is free to run it.
        batch = Orchestrator(jobs=2, timeout=0.4, retries=0,
                             run_fn=slow_first_two_run).run(
            [spec_for(seed=s) for s in (1, 2, 3)])
        assert [r.status for r in batch.results] \
            == ["timeout", "timeout", "finished"]

    def test_parallel_matches_serial_bit_for_bit(self, tmp_path):
        """jobs=4 must produce bit-identical records to serial runs."""
        specs = [spec_for(seed=s, label=label)
                 for s in (1, 2) for label in ("CB-One", "Invalidation")]
        serial = run_batch(specs)
        parallel = run_batch(specs, jobs=4,
                             cache_dir=str(tmp_path / "cache"))
        assert serial.ok and parallel.ok
        for left, right in zip(serial.results, parallel.results):
            assert left.record["result"] == right.record["result"]


class TestLazyPackage:
    def test_checkpoint_import_leaves_scheduler_unloaded(self):
        # repro.ckpt needs only the spec and machine builder; the
        # package init must not drag in the scheduler, the harness or
        # the resilience campaign behind them.
        code = ("import sys, repro.ckpt; "
                "loaded = [m for m in ('repro.orchestrate.scheduler', "
                "'repro.harness.runner', 'repro.resilience.campaign') "
                "if m in sys.modules]; "
                "assert not loaded, loaded; "
                "from repro.orchestrate import JobSpec, build_machine, "
                "run_batch; "
                "assert run_batch.__module__ == 'repro.orchestrate.scheduler'")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestSweepIntegration:
    def make_sweep(self, **kwargs):
        defaults = dict(
            configs=["CB-One", "Invalidation"],
            workload_spec="lock",
            spec_params={"lock_name": "ttas"},
            params={"iterations": [1, 2]},
            metrics={"cycles": lambda r: r.cycles,
                     "traffic": lambda r: r.traffic},
        )
        defaults.update(kwargs)
        return Sweep(**defaults)

    def test_overlapping_keys_raise(self):
        sweep = self.make_sweep(overrides={"iterations": [1]})
        with pytest.raises(ValueError, match="iterations"):
            sweep.grid()

    def test_seed_plumbs_through_and_lands_in_rows(self):
        sweep = self.make_sweep(params={"iterations": [2]})
        rows3 = sweep.run(seed=3, num_cores=4)
        rows4 = sweep.run(seed=4, num_cores=4)
        assert all(row["seed"] == 3 for row in rows3)
        assert all(row["seed"] == 4 for row in rows4)
        # The seed genuinely reaches the simulation.
        assert [r["cycles"] for r in rows3] != [r["cycles"] for r in rows4]

    def test_parallel_sweep_matches_serial(self, tmp_path):
        sweep = self.make_sweep()
        serial = sweep.run(seed=2, num_cores=4)
        parallel = sweep.run(seed=2, num_cores=4, jobs=4,
                             cache_dir=str(tmp_path))
        assert serial == parallel
        # And the cached re-run is also identical.
        assert sweep.run(seed=2, num_cores=4,
                         cache_dir=str(tmp_path)) == serial


class TestReplicateIntegration:
    def test_serial_matches_orchestrated(self, tmp_path):
        spec = JobSpec("CB-One", "lock",
                       {"lock_name": "ttas", "iterations": 2},
                       {"num_cores": 4})
        serial = replicate(spec, lambda r: float(r.cycles), seeds=(1, 2, 3))
        parallel = replicate(spec, lambda r: float(r.cycles),
                             seeds=(1, 2, 3), jobs=2,
                             cache_dir=str(tmp_path))
        assert serial.values == parallel.values
        # The cached re-run is identical too.
        assert replicate(spec, lambda r: float(r.cycles), seeds=(1, 2, 3),
                         cache_dir=str(tmp_path)).values == serial.values


class TestCLI:
    def test_parse_value(self):
        assert parse_value("3") == 3
        assert parse_value("0.5") == 0.5
        assert parse_value("true") is True
        assert parse_value("ttas") == "ttas"

    def run_args(self, tmp_path, *extra):
        return ["run", "--workload", "lock:ttas", "--configs",
                "CB-One,Invalidation", "--seeds", "1,2", "--cores", "4",
                "--param", "iterations=2", "--jobs", "4",
                "--cache-dir", str(tmp_path / "cache"), *extra]

    def test_build_specs_cartesian(self, tmp_path):
        import argparse
        args = argparse.Namespace(
            workload="lock:ttas", configs="CB-One,Invalidation",
            seeds="1,2", cores=4, param=["iterations=2"],
            override=["cb_entries_per_bank=1,4"])
        specs = build_specs(args)
        assert len(specs) == 8  # 2 configs x 2 seeds x 2 override values
        assert {s.config_overrides["cb_entries_per_bank"]
                for s in specs} == {1, 4}
        assert all(s.workload_params == {"lock_name": "ttas",
                                         "iterations": 2} for s in specs)

    def test_run_then_resume_from_cache(self, tmp_path, capsys):
        batch_file = str(tmp_path / "batch.json")
        json_out = str(tmp_path / "records.json")
        assert main(self.run_args(tmp_path, "--batch-out", batch_file,
                                  "--json", json_out)) == 0
        first = capsys.readouterr().out
        assert "4 simulated" in first
        with open(json_out) as handle:
            assert len(json.load(handle)) == 4
        # Second invocation: the whole batch completes from cache.
        assert main(["resume", batch_file, "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        second = capsys.readouterr().out
        assert "4 from cache, 0 simulated" in second
        # Inspect reports full coverage.
        assert main(["inspect", batch_file, "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        assert "4/4 jobs cached" in capsys.readouterr().out


# Classified failure injectors (top-level so pool workers can import
# them, matching the run fns above).

def invariant_run(spec_dict):
    from repro.validation import InvariantViolation
    raise InvariantViolation("SWMR broken in worker")


def deadlock_run(spec_dict):
    from repro.sim.engine import DeadlockError
    raise DeadlockError("threads parked forever")


def sim_timeout_run(spec_dict):
    from repro.sim.engine import SimulationTimeout
    raise SimulationTimeout("cycle budget", reason="max_cycles", cycle=9,
                            events=2, progress={0: 1})


def severity_run(spec_dict):
    from repro.sim.engine import SimulationTimeout
    from repro.validation import InvariantViolation
    if JobSpec.from_dict(spec_dict).seed == 1:
        raise SimulationTimeout("slow")
    raise InvariantViolation("bad state")


class TestFailureTaxonomy:
    jobs = 1

    def test_deterministic_kinds_classified_and_not_retried(self):
        batch = Orchestrator(jobs=self.jobs, retries=3,
                             run_fn=invariant_run).run([spec_for()])
        (result,) = batch.results
        assert result.status == "failed"
        assert result.kind == "invariant"
        assert result.attempts == 1   # deterministic: never retried
        assert dict(batch.failure_kinds()) == {"invariant": 1}
        assert batch.exit_code() == 2

    def test_liveness_and_timeout_kinds(self):
        batch = Orchestrator(jobs=self.jobs,
                             run_fn=deadlock_run).run([spec_for()])
        assert batch.results[0].kind == "liveness"
        assert batch.exit_code() == 3
        batch = Orchestrator(jobs=self.jobs,
                             run_fn=sim_timeout_run).run([spec_for(seed=2)])
        assert batch.results[0].kind == "timeout"
        assert batch.exit_code() == 4

    def test_exit_code_reports_the_most_severe_class(self):
        batch = Orchestrator(jobs=self.jobs, run_fn=severity_run).run(
            [spec_for(seed=1), spec_for(seed=2)])
        kinds = sorted(r.kind for r in batch.results)
        assert kinds == ["invariant", "timeout"]
        assert batch.exit_code() == 2   # invariant outranks timeout

    def test_failure_manifest_names_every_failure(self):
        batch = Orchestrator(jobs=self.jobs,
                             run_fn=invariant_run).run([spec_for()])
        manifest = batch.failure_manifest()
        assert manifest["total"] == 1
        assert manifest["failed"] == 1
        assert manifest["by_kind"] == {"invariant": 1}
        (entry,) = manifest["failures"]
        assert entry["kind"] == "invariant"
        assert entry["job_key"] and entry["error"]

    def test_events_and_inspect_summarize_failure_classes(self, tmp_path,
                                                          capsys):
        cache = str(tmp_path)
        run_batch([spec_for()], jobs=self.jobs, cache_dir=cache,
                  run_fn=invariant_run)
        with open(os.path.join(cache, "events.jsonl")) as handle:
            events = [json.loads(line) for line in handle]
        failed = [e for e in events if e["kind"] == "failed"]
        assert failed and failed[-1]["failure_kind"] == "invariant"
        assert main(["inspect", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "failure classes" in out
        assert "invariant" in out


class TestFailureTaxonomyTwoJobs(TestFailureTaxonomy):
    jobs = 2


class TestQuarantine:
    def test_family_quarantined_after_repeat_failures(self):
        specs = [spec_for(seed=s) for s in range(1, 6)]   # one family
        batch = Orchestrator(run_fn=invariant_run,
                             quarantine_after=2).run(specs)
        kinds = [r.kind for r in batch.results]
        assert kinds.count("invariant") == 2
        assert kinds.count("quarantined") == 3
        for result in batch.results:
            if result.kind == "quarantined":
                assert result.status == "quarantined"
                assert "quarantined" in result.error
        assert batch.failure_kinds()["quarantined"] == 3
        assert batch.exit_code() == 2   # root cause outranks quarantine

    def test_other_families_are_unaffected(self):
        specs = [spec_for(seed=s) for s in (1, 2, 3)]
        specs.append(spec_for(seed=1, label="CB-All"))
        batch = Orchestrator(run_fn=invariant_run,
                             quarantine_after=2).run(specs)
        by_label = {(r.spec.config_label, r.spec.seed): r.kind
                    for r in batch.results}
        assert by_label[("CB-One", 3)] == "quarantined"
        assert by_label[("CB-All", 1)] == "invariant"   # fresh family

    def test_transient_errors_never_quarantine(self):
        def flaky(spec_dict):
            raise ValueError("not a deterministic simulation failure")
        specs = [spec_for(seed=s) for s in (1, 2, 3)]
        batch = Orchestrator(run_fn=flaky, retries=0,
                             quarantine_after=1).run(specs)
        assert [r.kind for r in batch.results] == ["error"] * 3

    def test_quarantine_threshold_validated(self):
        with pytest.raises(ValueError):
            Orchestrator(quarantine_after=-1)

    def test_zero_disables_quarantine(self):
        specs = [spec_for(seed=s) for s in (1, 2, 3)]
        batch = Orchestrator(run_fn=invariant_run,
                             quarantine_after=0).run(specs)
        assert [r.kind for r in batch.results] == ["invariant"] * 3


class TestEventLogReader:
    """tail_events/read_events: the torn-tail-tolerant JSONL reader."""

    def _log(self, tmp_path, lines, torn=None):
        path = tmp_path / "events.jsonl"
        text = "".join(json.dumps(line) + "\n" for line in lines)
        if torn is not None:
            text += torn  # no trailing newline: a crash mid-append
        path.write_text(text)
        return str(path)

    def test_torn_final_line_is_skipped_not_raised(self, tmp_path):
        from repro.ioutil import read_events, tail_events
        path = self._log(tmp_path,
                         [{"kind": "queued", "job_key": "a"},
                          {"kind": "started", "job_key": "a"}],
                         torn='{"kind": "finis')
        events = read_events(path)
        assert [e["kind"] for e in events] == ["queued", "started"]
        # The torn fragment is not consumed: once its newline lands the
        # next tail call returns it.
        events, offset, skipped = tail_events(path)
        assert skipped == 0
        with open(path, "a") as handle:
            handle.write('hed", "job_key": "a"}\n')
        more, offset2, skipped = tail_events(path, offset)
        assert [e["kind"] for e in more] == ["finished"]
        assert offset2 > offset and skipped == 0

    def test_interleaved_garbage_line_is_counted_not_raised(self, tmp_path):
        from repro.ioutil import tail_events
        # A crash-torn fragment that a *restarted* writer appended
        # after: the merged line is complete but unparseable.
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "que{"kind": "started", "job_key": "a"}\n'
                        '{"kind": "finished", "job_key": "a"}\n')
        events, _, skipped = tail_events(str(path))
        assert [e["kind"] for e in events] == ["finished"]
        assert skipped == 1

    def test_ckpt_manifest_and_host_span_log_skip_bad_lines(self,
                                                           tmp_path):
        from repro.ckpt import CheckpointStore
        from repro.obs.tracectx import HostSpan, HostSpanLog
        store = CheckpointStore(str(tmp_path / "ckpt"))
        entry = {"event": "saved", "job_key": "a", "boundary": 300}
        with open(store.manifest_path, "w") as handle:
            handle.write(json.dumps(entry) + "\n"
                         + '{"event": "sav{"event": "gc"}\n'
                         + '{"event": "gc", "job_key": "a"}')
        assert store.manifest() == [entry]
        span = HostSpan(name="queue.wait", trace_id="t1", start=1.0,
                        end=2.0)
        path = str(tmp_path / "spans.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps(span.as_dict()) + "\n" + "not json\n"
                         + '{"name": "sim.run", "trace_id": "t1", '
                           '"start": 2.0}')
        assert HostSpanLog.read(path) == [span]

    def test_missing_file_reads_empty(self, tmp_path):
        from repro.ioutil import tail_events
        assert tail_events(str(tmp_path / "nope.jsonl")) == ([], 0, 0)

    def test_incremental_offsets_resume_across_calls(self, tmp_path):
        from repro.ioutil import tail_events
        path = self._log(tmp_path, [{"n": i} for i in range(5)])
        first, offset, _ = tail_events(path)
        assert len(first) == 5
        again, offset2, _ = tail_events(path, offset)
        assert again == [] and offset2 == offset
        with open(path, "a") as handle:
            handle.write(json.dumps({"n": 5}) + "\n")
        more, _, _ = tail_events(path, offset)
        assert more == [{"n": 5}]


class TestEventLogDerivedViews:
    """EventLog keeps counters, not events: its views must equal what
    the full event list would give."""

    def test_views_match_the_list_derived_values(self, tmp_path):
        from collections import Counter

        from repro.ioutil import read_events
        from repro.orchestrate.events import EventLog
        sink = str(tmp_path / "events.jsonl")
        log = EventLog(sink_path=sink)
        batch = [("queued", {}), ("started", {}),
                 ("failed", {"failure_kind": "invariant"}),
                 ("retried", {"attempt": 2}),
                 ("timeout", {"failure_kind": "timeout"}),
                 ("finished", {"cycles": 40}),
                 ("quarantined", {}),
                 ("failed", {"failure_kind": "invariant"}),
                 ("cache_hit", {"cycles": 7}),
                 ("cache_stats", {"hit": 1}),
                 ("failed", {"failure_kind": "deadlock"}),
                 ("finished", {"cycles": 2}),
                 ("cache_stats", {"hit": 2})]
        history = [log.record(kind, f"job{i % 3}", **detail)
                   for i, (kind, detail) in enumerate(batch)]
        log.close()

        assert not hasattr(log, "events")
        failures: Counter = Counter()
        for event in history:
            if event.kind in ("failed", "timeout", "quarantined"):
                failures[event.detail.get("failure_kind", "error")] += 1
        assert log.failure_kinds() == dict(failures) == {
            "invariant": 2, "timeout": 1, "error": 1, "deadlock": 1}
        for kind in {kind for kind, _ in batch}:
            of_kind = [e for e in history if e.kind == kind]
            assert log.last(kind) is of_kind[-1]
            assert log.counts[kind] == len(of_kind)
        assert log.last("cancelled") is None
        assert log.sim_cycles == 42 and log.cached_cycles == 7
        assert read_events(sink) == [e.as_dict() for e in history]


class TestCacheCounters:
    """Hit/miss/quarantine counters: dedup observability (satellite)."""

    def test_counters_track_lookups(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = spec_for()
        assert cache.get(spec) is None
        assert cache.counters["miss"] == 1
        cache.put(spec, fake_run(spec.to_dict()))
        assert cache.counters["put"] == 1
        assert cache.get(spec) is not None
        assert cache.counters["hit"] == 1

    def test_quarantine_counted(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = spec_for()
        cache.put(spec, fake_run(spec.to_dict()))
        path = cache.path_for(spec.job_key())
        with open(path, "w") as handle:
            handle.write("{ torn")
        assert cache.get(spec) is None
        assert cache.counters["quarantined"] == 1
        assert cache.counters["miss"] == 1

    def test_scheduler_emits_cache_stats_event(self, tmp_path):
        batch = run_batch([spec_for()], cache_dir=str(tmp_path),
                          run_fn=fake_run)
        assert batch.events.counts["cache_stats"] == 1
        stats = batch.events.last("cache_stats")
        assert stats.detail["miss"] == 1 and stats.detail["put"] == 1
        second = run_batch([spec_for()], cache_dir=str(tmp_path),
                           run_fn=fake_run)
        assert second.events.counts["cache_stats"] == 1
        stats = second.events.last("cache_stats")
        assert stats.detail["hit"] == 1


class TestInspectJson:
    """inspect --json shares its formatter with the serve status API."""

    def test_inspect_json_matches_shared_formatter(self, tmp_path, capsys):
        from repro.orchestrate.status import job_status_entry
        cache_dir = str(tmp_path / "cache")
        batch_path = str(tmp_path / "batch.json")
        spec = spec_for()
        run_batch([spec], cache_dir=cache_dir, run_fn=fake_run)
        from repro.orchestrate.cli import save_batch
        save_batch(batch_path, [spec, spec_for(seed=9)])
        assert main(["inspect", batch_path, "--cache-dir", cache_dir,
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == 2 and doc["cached"] == 1
        assert doc["cache_counters"]["hit"] == 1
        cached = [j for j in doc["jobs"] if j["cached"]]
        missing = [j for j in doc["jobs"] if not j["cached"]]
        assert len(cached) == 1 and len(missing) == 1
        # Byte-for-byte the shared formatter's output for the hit...
        expected = job_status_entry(spec, ResultCache(cache_dir).get(spec))
        assert cached[0] == expected
        assert cached[0]["result"]["cycles"] == 101
        # ...and the failure histogram came through the tolerant reader.
        assert "failure_classes" in doc

    def test_inspect_json_whole_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path)
        run_batch([spec_for(), spec_for(seed=2)], cache_dir=cache_dir,
                  run_fn=fake_run)
        assert main(["inspect", "--cache-dir", cache_dir, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == 2
        assert {j["spec"]["seed"] for j in doc["jobs"]} == {1, 2}

    def test_inspect_json_to_file(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        out = str(tmp_path / "status.json")
        run_batch([spec_for()], cache_dir=cache_dir, run_fn=fake_run)
        assert main(["inspect", "--cache-dir", cache_dir,
                     "--json", out]) == 0
        with open(out) as handle:
            doc = json.load(handle)
        assert doc["total"] == 1
