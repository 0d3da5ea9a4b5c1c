"""Crash injection: SIGKILL a checkpointing run mid-flight and prove the
resume path — Checkpointer, orchestrator, and CLI — recovers from the
newest durable checkpoint to a bit-identical result.

The kill lands in the ``boundary_hook``, which fires *before* that
boundary's blob is written, so the process dies strictly between durable
checkpoints — the worst honest crash point (an atomic-rename tear is
covered separately by corrupting blobs on disk).
"""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.ckpt import (Checkpointer, CheckpointStore, capture_state,
                        state_fingerprint)
from repro.orchestrate import JobSpec, build_machine
from repro.orchestrate.scheduler import run_batch

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

STYLES = ["Invalidation", "BackOff-5", "CB-All", "CB-One"]


def spec_for(label="CB-One", seed=1, **overrides):
    overrides.setdefault("num_cores", 4)
    return JobSpec(config_label=label, workload="lock",
                   workload_params={"lock_name": "ttas", "iterations": 2},
                   config_overrides=overrides, seed=seed)


def spec_flags(spec):
    flags = ["--workload", "lock:ttas", "--config", spec.config_label,
             "--seed", str(spec.seed), "--cores",
             str(spec.config_overrides["num_cores"]),
             "--param", "iterations=2"]
    for key, value in spec.config_overrides.items():
        if key != "num_cores":
            flags += ["--override", f"{key}={value}"]
    return flags


def run_cli(args):
    """``repro-ckpt`` in a genuinely fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.ckpt.cli", *args],
        capture_output=True, text=True, env=env, timeout=120)


def baseline_fingerprint(spec):
    machine = build_machine(spec)
    stats = machine.run()
    return state_fingerprint(capture_state(machine)), stats.cycles


class TestSigkillResume:
    @pytest.mark.parametrize("label", STYLES)
    def test_killed_run_resumes_to_identical_result(self, label, tmp_path):
        spec = spec_for(label)
        store_dir = str(tmp_path)
        expected_fp, expected_cycles = baseline_fingerprint(spec)

        killed = run_cli(["save", "--dir", store_dir, "--every", "300",
                          "--sigkill-at", "500", *spec_flags(spec)])
        assert killed.returncode == -signal.SIGKILL, killed.stderr

        store = CheckpointStore(store_dir)
        key = spec.job_key()
        partial = store.boundaries(key)
        assert partial, "must have checkpointed before dying"
        assert max(partial) < 600, "the kill boundary was never saved"

        resumed = Checkpointer(spec, store, every=300)
        stats = resumed.run()
        assert resumed.resumed_from == max(partial)
        assert stats.cycles == expected_cycles
        actual = state_fingerprint(capture_state(resumed.machine))
        assert actual == expected_fp

    def test_cli_resume_after_kill(self, tmp_path):
        spec = spec_for()
        store_dir = str(tmp_path)
        expected_fp, _ = baseline_fingerprint(spec)

        killed = run_cli(["save", "--dir", store_dir, "--every", "300",
                          "--sigkill-at", "500", *spec_flags(spec)])
        assert killed.returncode == -signal.SIGKILL

        finished = run_cli(["save", "--dir", store_dir, "--every", "300",
                            *spec_flags(spec)])
        assert finished.returncode == 0, finished.stderr
        assert "resumed from cycle 300" in finished.stdout
        assert f"fingerprint={expected_fp[:16]}" in finished.stdout

        audit = run_cli(["verify", "--dir", store_dir])
        assert audit.returncode == 0
        assert "0 corrupt" in audit.stdout

    def test_fresh_process_restore_proves_bit_parity(self, tmp_path):
        """The determinism claim that matters: a checkpoint written by
        one process restores (full verification) in another."""
        spec = spec_for()
        store_dir = str(tmp_path)
        Checkpointer(spec, CheckpointStore(store_dir), every=300).run()

        restored = run_cli(["restore", spec.job_key()[:12],
                            "--dir", store_dir, "--at", "300",
                            "--verify", "full", "--finish"])
        assert restored.returncode == 0, restored.stderr
        assert "verified (full) at boundary 300" in restored.stdout
        expected_fp, _ = baseline_fingerprint(spec)
        assert f"fingerprint={expected_fp[:16]}" in restored.stdout


class TestOrchestratorResume:
    def test_orchestrator_resumes_killed_job(self, tmp_path):
        spec = spec_for()
        store_dir = str(tmp_path / "ckpts")
        cache_dir = str(tmp_path / "cache")
        expected_fp, expected_cycles = baseline_fingerprint(spec)

        killed = run_cli(["save", "--dir", store_dir, "--every", "300",
                          "--sigkill-at", "500", *spec_flags(spec)])
        assert killed.returncode == -signal.SIGKILL

        batch = run_batch([spec], jobs=1, cache_dir=cache_dir,
                          checkpoint_dir=store_dir, checkpoint_every=300)
        assert batch.ok
        result = batch.results[0]
        assert result.status == "finished"
        assert result.resumed_from == 300
        assert result.record["meta"]["resumed_from"] == 300
        assert result.record["result"]["cycles"] == expected_cycles

        final = CheckpointStore(store_dir).latest(spec.job_key())
        assert final.final and final.fingerprint == expected_fp

    def test_checkpoint_routing_stays_out_of_job_key(self, tmp_path):
        """The cache record a checkpointed run produces must be a cache
        hit for the identical spec run without checkpointing — the
        ``_checkpoint`` payload is routing, not job content."""
        spec = spec_for(seed=3)
        cache_dir = str(tmp_path / "cache")
        with_ckpt = run_batch([spec], jobs=1, cache_dir=cache_dir,
                              checkpoint_dir=str(tmp_path / "ckpts"),
                              checkpoint_every=300)
        assert with_ckpt.results[0].status == "finished"
        without = run_batch([spec], jobs=1, cache_dir=cache_dir)
        assert without.results[0].status == "cache_hit"
        assert (without.results[0].record["result"]
                == with_ckpt.results[0].record["result"])

    def test_parallel_jobs_checkpoint_too(self, tmp_path):
        specs = [spec_for(seed=s) for s in (1, 2)]
        batch = run_batch(specs, jobs=2,
                          checkpoint_dir=str(tmp_path),
                          checkpoint_every=300)
        assert batch.ok
        store = CheckpointStore(str(tmp_path))
        for spec in specs:
            assert store.latest(spec.job_key()).final


class TestCorruptionRecovery:
    def test_resume_survives_corrupted_newest_blob(self, tmp_path):
        """SIGKILL plus a torn newest blob: resume quarantines the
        damage and restarts from the next older checkpoint."""
        spec = spec_for("Invalidation")          # longest run: 4 boundaries
        store_dir = str(tmp_path)
        expected_fp, expected_cycles = baseline_fingerprint(spec)

        killed = run_cli(["save", "--dir", store_dir, "--every", "300",
                          "--sigkill-at", "800", *spec_flags(spec)])
        assert killed.returncode == -signal.SIGKILL
        store = CheckpointStore(store_dir)
        key = spec.job_key()
        saved = store.boundaries(key)
        assert len(saved) >= 2
        newest = saved[-1]
        path = store._blob_path(key, newest)
        with open(path, "r+") as handle:       # simulate a torn write
            handle.truncate(100)

        resumed = Checkpointer(spec, store, every=300)
        stats = resumed.run()
        assert resumed.resumed_from == saved[-2]
        assert os.path.exists(path + ".corrupt")
        assert stats.cycles == expected_cycles
        fp = state_fingerprint(capture_state(resumed.machine))
        assert fp == expected_fp

    def test_all_blobs_corrupt_falls_back_to_fresh_run(self, tmp_path):
        spec = spec_for()
        store_dir = str(tmp_path)
        killed = run_cli(["save", "--dir", store_dir, "--every", "300",
                          "--sigkill-at", "500", *spec_flags(spec)])
        assert killed.returncode == -signal.SIGKILL
        store = CheckpointStore(store_dir)
        key = spec.job_key()
        for boundary in store.boundaries(key):
            with open(store._blob_path(key, boundary), "w") as handle:
                handle.write("not json at all")

        resumed = Checkpointer(spec, store, every=300)
        resumed.run()
        assert resumed.resumed_from is None    # fresh, not poisoned
        assert store.latest(key).final


class TestBlackBox:
    def failing_spec(self):
        # A tight event budget fails the run with SimulationTimeout —
        # the same persist path a deadlock/livelock takes, reachable
        # from a registry spec.
        return spec_for(max_events=120)

    def test_failure_persists_blackbox(self, tmp_path):
        from repro.sim.engine import SimulationTimeout
        spec = self.failing_spec()
        store = CheckpointStore(str(tmp_path))
        checkpointer = Checkpointer(spec, store, every=100)
        with pytest.raises(SimulationTimeout):
            checkpointer.run()
        payload = store.load_blackbox(spec.job_key())
        assert payload is not None
        assert payload["error"]["kind"] == "timeout"
        assert payload["error"]["type"] == "SimulationTimeout"
        ring = payload["ring"]
        assert ring and ring[-1]["boundary"] <= payload["checkpoint"]["boundary"]
        assert payload["checkpoint"]["spec"] == spec.to_dict()

    def test_replay_reproduces_the_failure(self, tmp_path):
        from repro.ckpt.cli import main as ckpt_main
        from repro.sim.engine import SimulationTimeout
        spec = self.failing_spec()
        store = CheckpointStore(str(tmp_path))
        checkpointer = Checkpointer(spec, store, every=100)
        with pytest.raises(SimulationTimeout):
            checkpointer.run()

        rc = ckpt_main(["replay", spec.job_key()[:12],
                        "--dir", str(tmp_path), "--quiet"])
        assert rc == 0

    def test_replay_output_names_the_error(self, tmp_path, capsys):
        from repro.ckpt.cli import main as ckpt_main
        from repro.sim.engine import SimulationTimeout
        spec = self.failing_spec()
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(SimulationTimeout):
            Checkpointer(spec, store, every=100).run()
        ckpt_main(["replay", spec.job_key()[:12], "--dir", str(tmp_path),
                   "--quiet"])
        out = capsys.readouterr().out
        assert "[timeout] SimulationTimeout" in out
        assert "reproduced: SimulationTimeout" in out
