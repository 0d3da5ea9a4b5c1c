"""Deterministic checkpoint/restore: capture parity, crash-safe storage,
verified resume, and the hardened result/cache IO that rides along.

The load-bearing property throughout: a run restored from a checkpoint
at cycle C is *bit-identical* — same state fingerprint, same stats — to
the same run executed uninterrupted. Every test that slices, restores,
corrupts, or resumes ultimately asserts that equivalence.
"""

import json
import os

import pytest

from repro.ckpt import (Checkpoint, CheckpointMismatchError, Checkpointer,
                        CheckpointStore, capture_state, restore_checkpoint,
                        state_fingerprint, take_checkpoint)
from repro.ioutil import (CorruptArtifactError, atomic_write_json,
                          atomic_write_text, canonical_json, quarantine,
                          read_checked_json, sha256_of)
from repro.mem.store import functional_fingerprint
from repro.orchestrate import JobSpec, build_machine

#: One label per protocol style: write-invalidate MESI, MESI with
#: exponential back-off, and the two callback flavors from the paper.
STYLES = ["Invalidation", "BackOff-5", "CB-All", "CB-One"]


def spec_for(label="CB-One", seed=1, iterations=2, **overrides):
    overrides.setdefault("num_cores", 4)
    return JobSpec(config_label=label, workload="lock",
                   workload_params={"lock_name": "ttas",
                                    "iterations": iterations},
                   config_overrides=overrides, seed=seed)


def finished_fingerprints(machine):
    """(full, functional) fingerprints of a completed machine."""
    return (state_fingerprint(capture_state(machine)),
            functional_fingerprint(machine.store))


# ------------------------------------------------------------- ioutil


class TestAtomicIO:
    def test_atomic_json_round_trip(self, tmp_path):
        path = str(tmp_path / "a" / "b.json")
        atomic_write_json(path, {"x": [1, 2], "y": None})
        with open(path) as handle:
            assert json.load(handle) == {"x": [1, 2], "y": None}
        # No temp-file droppings next to the published file.
        assert os.listdir(os.path.dirname(path)) == ["b.json"]

    def test_atomic_write_replaces_whole_file(self, tmp_path):
        path = str(tmp_path / "f.json")
        atomic_write_json(path, {"v": 1})
        atomic_write_json(path, {"v": 2})
        assert read_checked_json(path) == {"v": 2}

    def test_canonical_json_is_key_order_invariant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1})
        assert sha256_of({"b": 1, "a": 2}) == sha256_of({"a": 2, "b": 1})

    def test_digest_stable_under_json_round_trip(self):
        """Int keys sort numerically pre-serialization but lexically
        once re-read as strings; the digest must not care (a checkpoint
        is checksummed before hitting disk and verified after)."""
        live = {"store": {2: "a", 10: "b", 100: "c"}}
        parsed = json.loads(canonical_json(live))
        assert sha256_of(live) == sha256_of(parsed)
        assert canonical_json(live) == canonical_json(parsed)

    def test_blob_with_multidigit_int_keys_verifies_after_reread(
            self, tmp_path):
        path = str(tmp_path / "blob.json")
        body = {"state": {9: 1, 10: 2, 11: 3, 100: 4}}
        atomic_write_json(path, {**body, "checksum": sha256_of(body)})
        reread = read_checked_json(path, checksum_field="checksum")
        assert reread["state"] == {"9": 1, "10": 2, "11": 3, "100": 4}

    def test_checksum_field_verified_and_stripped(self, tmp_path):
        path = str(tmp_path / "blob.json")
        body = {"payload": [1, 2, 3]}
        atomic_write_json(path, {**body, "checksum": sha256_of(body)})
        assert read_checked_json(path, checksum_field="checksum") == body

    def test_checksum_mismatch_raises(self, tmp_path):
        path = str(tmp_path / "blob.json")
        atomic_write_json(path, {"payload": 1, "checksum": "0" * 64})
        with pytest.raises(CorruptArtifactError):
            read_checked_json(path, checksum_field="checksum")

    def test_torn_write_detected_and_quarantined(self, tmp_path):
        path = str(tmp_path / "torn.json")
        atomic_write_text(path, '{"payload": 1, "che')   # truncated
        with pytest.raises(CorruptArtifactError) as excinfo:
            read_checked_json(path)
        target = quarantine(excinfo.value)
        assert target == path + ".corrupt"
        assert os.path.exists(target) and not os.path.exists(path)


# --------------------------------------------- sliced-vs-unsliced parity


class TestCheckpointParity:
    @pytest.mark.parametrize("label", STYLES)
    def test_sliced_run_is_bit_identical(self, label, tmp_path):
        spec = spec_for(label)
        baseline = build_machine(spec)
        base_stats = baseline.run()
        base_full, base_functional = finished_fingerprints(baseline)

        store = CheckpointStore(str(tmp_path))
        checkpointer = Checkpointer(spec, store, every=300)
        stats = checkpointer.run()

        assert checkpointer.resumed_from is None
        assert len(checkpointer.saved) >= 2, "run too short to slice"
        assert stats.cycles == base_stats.cycles
        full, functional = finished_fingerprints(checkpointer.machine)
        assert full == base_full
        assert functional == base_functional
        final = store.latest(spec.job_key())
        assert final.final
        assert final.fingerprint == base_full

    @pytest.mark.parametrize("label", STYLES)
    def test_mid_restore_verifies_and_finishes_identically(
            self, label, tmp_path):
        spec = spec_for(label)
        store = CheckpointStore(str(tmp_path))
        checkpointer = Checkpointer(spec, store, every=300)
        stats = checkpointer.run()
        expected_full, _ = finished_fingerprints(checkpointer.machine)

        boundary = checkpointer.saved[0]
        ckpt = store.load(spec.job_key(), boundary)
        machine = restore_checkpoint(ckpt, verify="full")   # must not raise
        assert machine.engine.now < stats.cycles
        resumed_stats = machine.run()
        assert resumed_stats.cycles == stats.cycles
        assert finished_fingerprints(machine)[0] == expected_full

    def test_boundaries_advance_monotonically(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        checkpointer = Checkpointer(spec_for(), store, every=300)
        checkpointer.run()
        saved = checkpointer.saved
        assert saved == sorted(saved)
        assert len(set(saved)) == len(saved)
        for boundary in saved[:-1]:          # all but the final snapshot
            assert boundary % 300 == 0


# ---------------------------------------------------- observers attached


class TestObservedRuns:
    def test_telemetry_run_checkpoints_verify_in_full(self, tmp_path):
        """Telemetry is an observer: the blobs a telemetry run saves are
        the unobserved run's, boundary for boundary, and restore with
        full verification on a machine without it (and vice versa)."""
        from repro.obs.telemetry import Telemetry, TelemetryConfig
        spec = spec_for()
        plain_store = CheckpointStore(str(tmp_path / "plain"))
        plain = Checkpointer(spec, plain_store, every=300)
        plain.run()

        store = CheckpointStore(str(tmp_path / "observed"))
        checkpointer = Checkpointer(
            spec, store, every=300,
            telemetry=Telemetry(TelemetryConfig(sample_every=100,
                                                spans=True)))
        checkpointer.run()
        assert checkpointer.saved == plain.saved
        key = spec.job_key()
        for boundary in checkpointer.saved:
            observed = store.load(key, boundary)
            unobserved = plain_store.load(key, boundary)
            assert observed.fingerprint == unobserved.fingerprint
            assert observed.state == unobserved.state
        first = store.load(key, checkpointer.saved[0])
        machine = restore_checkpoint(first, verify="full")
        assert machine.telemetry is None
        assert machine.engine.now == first.boundary - 1
        restore_checkpoint(
            plain_store.load(key, plain.saved[0]), verify="full",
            telemetry=Telemetry(TelemetryConfig(sample_every=100)))

    def test_fault_plan_recorded_and_replayed(self, tmp_path):
        from repro.resilience.faults import FaultKind, make_fault_plan
        spec = spec_for()
        plan = make_fault_plan("CB-One", "lock", seed=1,
                               kinds=[FaultKind.CB_EVICT,
                                      FaultKind.WAKEUP_DELAY],
                               count=4, horizon=600)
        baseline = build_machine(spec, plan=plan)
        baseline.run()
        base_full, _ = finished_fingerprints(baseline)

        store = CheckpointStore(str(tmp_path))
        checkpointer = Checkpointer(spec, store, every=300, plan=plan)
        checkpointer.run()
        assert finished_fingerprints(checkpointer.machine)[0] == base_full

        # The blob records the schedule; restore re-injects it during
        # fast-forward, or verification would fail right here.
        ckpt = store.load(spec.job_key(), checkpointer.saved[0])
        assert ckpt.plan is not None
        assert ckpt.plan["faults"]
        restore_checkpoint(ckpt, verify="full")

    def test_checkpointer_adopts_resilience_plan(self, tmp_path):
        from repro.resilience import Resilience, ResilienceConfig
        from repro.resilience.faults import make_fault_plan
        plan = make_fault_plan("CB-One", "lock", seed=2, count=2,
                               horizon=400)
        checkpointer = Checkpointer(
            spec_for(), CheckpointStore(str(tmp_path)), every=300,
            resilience=Resilience(ResilienceConfig(plan=plan)))
        assert checkpointer.plan is plan


# --------------------------------------------------------------- storage


class TestCheckpointStore:
    def populated(self, tmp_path, **spec_kw):
        spec = spec_for(**spec_kw)
        store = CheckpointStore(str(tmp_path))
        checkpointer = Checkpointer(spec, store, every=300)
        checkpointer.run()
        return spec, store, checkpointer

    def corrupt_blob(self, store, job_key, boundary):
        path = store._blob_path(job_key, boundary)
        with open(path, "a") as handle:
            handle.write("GARBAGE")
        return path

    def test_manifest_journals_every_save(self, tmp_path):
        spec, store, checkpointer = self.populated(tmp_path)
        saved = [e for e in store.manifest() if e["event"] == "saved"]
        assert [e["boundary"] for e in saved] == checkpointer.saved
        assert all(e["job_key"] == spec.job_key() for e in saved)

    def test_corrupt_latest_falls_back_to_older(self, tmp_path):
        spec, store, checkpointer = self.populated(tmp_path)
        key = spec.job_key()
        newest = store.boundaries(key)[-1]
        path = self.corrupt_blob(store, key, newest)
        survivor = store.latest(key)
        assert survivor is not None
        assert survivor.boundary == store.boundaries(key)[-1] < newest
        assert os.path.exists(path + ".corrupt")
        assert any(e["event"] == "quarantined" for e in store.manifest())

    def test_load_of_corrupt_blob_raises_after_quarantine(self, tmp_path):
        spec, store, _ = self.populated(tmp_path)
        key = spec.job_key()
        boundary = store.boundaries(key)[0]
        self.corrupt_blob(store, key, boundary)
        with pytest.raises(CorruptArtifactError) as excinfo:
            store.load(key, boundary)
        assert excinfo.value.quarantined
        assert boundary not in store.boundaries(key)

    def test_verify_reports_without_quarantining(self, tmp_path):
        spec, store, _ = self.populated(tmp_path)
        key = spec.job_key()
        boundary = store.boundaries(key)[0]
        path = self.corrupt_blob(store, key, boundary)
        report = store.verify()
        assert report["corrupt"] == 1
        assert report["jobs"][key]["corrupt"] == [boundary]
        assert os.path.exists(path)          # audit only: still in place

    def test_gc_keeps_newest(self, tmp_path):
        spec, store, checkpointer = self.populated(tmp_path)
        key = spec.job_key()
        assert len(store.boundaries(key)) >= 3
        removed = store.gc(keep_last=2)
        assert removed >= 1
        assert store.boundaries(key) == sorted(checkpointer.saved)[-2:]
        assert any(e["event"] == "gc" for e in store.manifest())

    def test_resolve_prefix(self, tmp_path):
        spec, store, _ = self.populated(tmp_path)
        key = spec.job_key()
        assert store.resolve(key[:8]) == key
        with pytest.raises(KeyError):
            store.resolve("definitely-not-a-key")

    def test_resolve_ambiguous_prefix(self, tmp_path):
        spec, store, _ = self.populated(tmp_path)
        other = spec_for(seed=2)
        Checkpointer(other, store, every=300).run()
        with pytest.raises(KeyError, match="ambiguous"):
            store.resolve("")

    def test_wrong_but_wellformed_blob_is_quarantined_on_resume(
            self, tmp_path):
        """A blob whose checksum is valid but whose recorded state does
        not match re-execution (code drift, hand edit) must not poison a
        resume: prepare() quarantines it and falls back."""
        spec, store, checkpointer = self.populated(tmp_path)
        key = spec.job_key()
        newest = store.boundaries(key)[-1]
        path = store._blob_path(key, newest)
        body = read_checked_json(path, checksum_field="checksum")
        body["fingerprint"] = "0" * 64
        body["functional"] = "1" * 64
        atomic_write_json(path, {**body, "checksum": sha256_of(body)})

        resumed = Checkpointer(spec, store, every=300)
        resumed.prepare(resume=True)
        assert resumed.resumed_from is not None
        assert resumed.resumed_from < newest
        assert os.path.exists(path + ".corrupt")


# ------------------------------------------------------ restore contract


class TestRestoreVerification:
    def test_bad_verify_level_rejected(self, tmp_path):
        """Restores verify the full capture or nothing."""
        store = CheckpointStore(str(tmp_path))
        checkpointer = Checkpointer(spec_for(), store, every=300)
        checkpointer.run()
        ckpt = store.latest(checkpointer.job_key)
        for level in ("sometimes", "auto", "functional"):
            with pytest.raises(ValueError):
                restore_checkpoint(ckpt, verify=level)

    def test_tampered_fingerprint_raises_with_divergence(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        checkpointer = Checkpointer(spec_for(), store, every=300)
        checkpointer.run()
        ckpt = store.load(checkpointer.job_key, checkpointer.saved[0])
        ckpt.fingerprint = "0" * 64
        ckpt.state["stats"] = {"counters": {"bogus": 1}}
        with pytest.raises(CheckpointMismatchError) as excinfo:
            restore_checkpoint(ckpt, verify="full")
        assert "stats" in excinfo.value.divergence

    def test_verify_none_skips_the_check(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        checkpointer = Checkpointer(spec_for(), store, every=300)
        checkpointer.run()
        ckpt = store.load(checkpointer.job_key, checkpointer.saved[0])
        ckpt.fingerprint = "0" * 64
        machine = restore_checkpoint(ckpt, verify="none")
        assert machine.engine.now <= ckpt.boundary

    def test_take_checkpoint_round_trips_through_json(self, tmp_path):
        spec = spec_for()
        machine = build_machine(spec)
        machine.fast_forward(200)
        ckpt = take_checkpoint(machine, spec, boundary=200)
        clone = Checkpoint.from_dict(
            json.loads(json.dumps(ckpt.to_dict())))
        assert clone.fingerprint == ckpt.fingerprint
        assert clone.job_key == spec.job_key()
        restore_checkpoint(clone, verify="full")


# --------------------------------------------------- harness integration


class TestHarnessCheckpointing:
    def test_checkpointer_matches_plain_run_workload(self, tmp_path):
        from repro.config import config_for
        from repro.harness.runner import run_workload
        from repro.orchestrate.registry import build_workload
        spec = spec_for()
        plain = run_workload(config_for("CB-One", seed=1, num_cores=4),
                             build_workload("lock", spec.workload_params))
        checkpointer = Checkpointer(spec, CheckpointStore(str(tmp_path)),
                                    every=300)
        stats = checkpointer.run()
        assert stats.cycles == plain.cycles
        assert stats.flit_hops == plain.traffic
        store = CheckpointStore(str(tmp_path))
        assert store.boundaries(spec.job_key())


# ------------------------------------- hardened result cache (satellite)


class TestCacheIntegrity:
    def record_for(self, spec):
        return {"job_key": spec.job_key(), "spec": spec.to_dict(),
                "result": {"cycles": 123}, "meta": {}}

    def test_round_trip_returns_byte_equal_record(self, tmp_path):
        from repro.orchestrate.cache import ResultCache
        cache = ResultCache(str(tmp_path))
        spec = spec_for()
        record = self.record_for(spec)
        cache.put(spec, record)
        assert cache.get(spec) == record     # integrity field stripped

    def test_corrupt_record_quarantined_and_treated_as_miss(self, tmp_path):
        from repro.orchestrate.cache import ResultCache
        cache = ResultCache(str(tmp_path))
        spec = spec_for()
        cache.put(spec, self.record_for(spec))
        path = cache.path_for(spec.job_key())
        with open(path, "a") as handle:
            handle.write("TRAILING GARBAGE")
        assert cache.get(spec) is None
        assert os.path.exists(path + ".corrupt")
        assert not os.path.exists(path)
        # A re-put after the miss repopulates cleanly.
        cache.put(spec, self.record_for(spec))
        assert cache.get(spec) is not None

    def test_integrity_mismatch_quarantined(self, tmp_path):
        from repro.orchestrate.cache import ResultCache
        cache = ResultCache(str(tmp_path))
        spec = spec_for()
        cache.put(spec, self.record_for(spec))
        path = cache.path_for(spec.job_key())
        with open(path) as handle:
            record = json.load(handle)
        record["result"]["cycles"] = 999     # silent bit-flip
        with open(path, "w") as handle:
            json.dump(record, handle)
        assert cache.get(spec) is None
        assert os.path.exists(path + ".corrupt")

    def test_legacy_record_without_integrity_still_hits(self, tmp_path):
        from repro.orchestrate.cache import ResultCache
        cache = ResultCache(str(tmp_path))
        spec = spec_for()
        path = cache.path_for(spec.job_key())
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.record_for(spec), handle)
        assert cache.get(spec) is not None


# --------------------------------------- durable event log (satellite)


class TestEventLogDurability:
    def test_failure_events_hit_disk_before_close(self, tmp_path):
        from repro.orchestrate.events import EventLog
        sink = str(tmp_path / "events.jsonl")
        log = EventLog(sink_path=sink)
        log.record("started", "k1", "job-1")
        log.record("failed", "k1", "job-1", failure_kind="liveness")
        # Deliberately no close(): the failure line must already be
        # durable, buffered "started" and all.
        with open(sink) as handle:
            kinds = [json.loads(line)["kind"] for line in handle]
        assert "failed" in kinds
        log.close()
