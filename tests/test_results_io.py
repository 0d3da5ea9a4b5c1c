"""JSON results persistence."""

import json

from repro.harness.figures import main as figures_main
from repro.harness.results_io import (load_result, save_result, stats_dict,
                                      _jsonable)
from repro.harness.runner import run_config
from repro.sim.stats import Stats
from repro.workloads.microbench import LockMicrobench


class TestJsonable:
    def test_run_result_serializes(self):
        result = run_config("CB-One", LockMicrobench("ttas", iterations=2),
                            num_cores=4)
        data = _jsonable(result)
        assert data["config"] == "CB-One"
        assert data["cycles"] == result.cycles
        assert "lock_acquire" in data["stats"]["episodes"]
        json.dumps(data)  # round-trippable

    def test_nested_structures(self):
        data = _jsonable({"a": [1, 2.5, "x", None], "b": {"c": True}})
        assert data == {"a": [1, 2.5, "x", None], "b": {"c": True}}

    def test_stats_dict_includes_episode_summaries(self):
        stats = Stats()
        stats.record_episode("wait", 10)
        out = stats_dict(stats)
        assert out["episodes"]["wait"]["n"] == 1

    def test_enum_like_objects_stringified(self):
        from repro.config import WakePolicy
        assert isinstance(_jsonable(WakePolicy.FIFO), str)


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        data = {"rows": {"CB-One": 0.78, "Invalidation": 1.0}}
        path = save_result(data, str(tmp_path), "fig21")
        assert path.endswith("fig21.json")
        loaded = load_result(str(tmp_path), "fig21")
        assert loaded == data

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "nested" / "dir"
        save_result({"x": 1}, str(target), "out")
        assert (target / "out.json").exists()


class TestCLIIntegration:
    def test_save_json_flag(self, tmp_path, capsys):
        rc = figures_main(["ablation-policy", "--cores", "4",
                           "--iterations", "1", "--save-json",
                           str(tmp_path)])
        assert rc == 0
        loaded = load_result(str(tmp_path), "ablation_policy")
        assert "round_robin" in loaded
