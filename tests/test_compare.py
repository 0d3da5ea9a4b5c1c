"""Result-diffing tool."""

from repro.harness.results_io import save_result
from repro.tools.compare import diff_results, main as compare_main


class TestDiff:
    def test_identical(self):
        assert diff_results({"a": 1.0}, {"a": 1.0}, 0.01) == []

    def test_within_tolerance(self):
        assert diff_results({"a": 1.0}, {"a": 1.005}, 0.01) == []

    def test_numeric_divergence(self):
        out = diff_results({"a": 1.0}, {"a": 2.0}, 0.01)
        assert len(out) == 1 and "/a" in out[0]

    def test_missing_keys(self):
        out = diff_results({"a": 1}, {"b": 1}, 0.01)
        assert any("only in A" in line for line in out)
        assert any("only in B" in line for line in out)

    def test_nested(self):
        a = {"rows": {"x": [1.0, 2.0]}}
        b = {"rows": {"x": [1.0, 3.0]}}
        out = diff_results(a, b, 0.01)
        assert out and "[1]" in out[0]

    def test_list_length_mismatch(self):
        out = diff_results([1, 2], [1], 0.01)
        assert "length" in out[0]

    def test_string_mismatch(self):
        out = diff_results({"label": "mesh"}, {"label": "torus"}, 0.01)
        assert "mesh" in out[0]


class TestCLI:
    def test_identical_dirs_exit_zero(self, tmp_path, capsys):
        data = {"geomean": {"CB-One": 0.78}}
        save_result(data, str(tmp_path / "a"), "fig21")
        save_result(data, str(tmp_path / "b"), "fig21")
        rc = compare_main([str(tmp_path / "a"), str(tmp_path / "b"),
                           "--name", "fig21"])
        assert rc == 0
        assert "identical" in capsys.readouterr().out

    def test_divergent_dirs_exit_one(self, tmp_path, capsys):
        save_result({"x": 1.0}, str(tmp_path / "a"), "fig21")
        save_result({"x": 9.0}, str(tmp_path / "b"), "fig21")
        rc = compare_main([str(tmp_path / "a"), str(tmp_path / "b"),
                           "--name", "fig21"])
        assert rc == 1
        assert "divergence" in capsys.readouterr().out
