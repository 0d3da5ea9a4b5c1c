"""Declarative sweep engine."""

import pytest

from repro.harness.sweeps import Sweep, rows_to_table


def make_sweep(**kwargs):
    defaults = dict(
        configs=["CB-One"],
        workload_spec="lock",
        spec_params={"lock_name": "ttas", "iterations": 2},
        metrics={"cycles": lambda r: r.cycles},
    )
    defaults.update(kwargs)
    return Sweep(**defaults)


class TestGrid:
    def test_empty_grid_is_one_point(self):
        assert make_sweep().grid() == [{}]

    def test_cartesian_product(self):
        sweep = make_sweep(overrides={"cb_entries_per_bank": [1, 4]},
                           params={"iterations": [2, 3, 4]})
        grid = sweep.grid()
        assert len(grid) == 6
        assert {"cb_entries_per_bank": 1, "iterations": 2} in grid

    def test_rows_cover_configs_times_points(self):
        sweep = make_sweep(configs=["Invalidation", "CB-One"],
                           params={"iterations": [1, 2]})
        rows = sweep.run(num_cores=4)
        assert len(rows) == 4
        assert {row["config"] for row in rows} == {"Invalidation",
                                                   "CB-One"}

    def test_override_reaches_config(self):
        sweep = make_sweep(overrides={"cb_entries_per_bank": [1, 16]})
        rows = sweep.run(num_cores=4)
        assert len(rows) == 2
        assert all(row["cycles"] > 0 for row in rows)

    def test_metrics_computed(self):
        sweep = make_sweep(metrics={
            "cycles": lambda r: r.cycles,
            "traffic": lambda r: r.traffic,
        })
        (row,) = sweep.run(num_cores=4)
        assert row["cycles"] > 0 and row["traffic"] > 0


class TestDuplicateKeys:
    """A config key both swept (``overrides=``) and fixed (a ``run``
    keyword) is refused before anything simulates, serial or not."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_swept_and_fixed_key_raises(self, jobs, tmp_path, monkeypatch):
        import repro.harness.sweeps as sweeps

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the key check")

        monkeypatch.setattr(sweeps, "run_spec", no_simulation)
        monkeypatch.setattr(sweeps, "run_batch", no_simulation)
        sweep = Sweep(configs=["CB-One"], workload_spec="lock",
                      spec_params={"iterations": 1},
                      overrides={"num_cores": [4]})
        with pytest.raises(ValueError, match="num_cores"):
            sweep.run(num_cores=16, jobs=jobs,
                      cache_dir=str(tmp_path) if jobs > 1 else None)


class TestTable:
    def test_rows_to_table(self):
        rows = [
            {"config": "CB-One", "iters": 2, "cycles": 123.0},
            {"config": "CB-One", "iters": 3, "cycles": 456.0},
        ]
        table = rows_to_table(rows, ["cycles"], title="demo")
        assert "config=CB-One, iters=2" in table
        assert "123.0" in table and "456.0" in table
