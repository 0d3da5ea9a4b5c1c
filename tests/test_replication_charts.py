"""Multi-seed replication and ASCII chart rendering."""

import pytest

from repro.harness.charts import bar_chart, hbar
from repro.harness.replication import (Replicate, replicate,
                                       replicate_comparison)
from repro.orchestrate import JobSpec

TTAS = JobSpec("CB-One", "lock", {"lock_name": "ttas", "iterations": 3},
               {"num_cores": 4})


class TestReplicateStats:
    def test_mean_std(self):
        r = Replicate([1.0, 2.0, 3.0])
        assert r.mean == 2.0
        assert r.std == pytest.approx(1.0)
        assert (r.lo, r.hi) == (1.0, 3.0)
        assert r.n == 3

    def test_single_sample_std_zero(self):
        assert Replicate([5.0]).std == 0.0

    def test_empty(self):
        r = Replicate([])
        assert r.mean == 0.0 and r.cv == 0.0

    def test_separation(self):
        assert Replicate([1, 2]).separated_from(Replicate([3, 4]))
        assert not Replicate([1, 3]).separated_from(Replicate([2, 4]))


class TestReplicateRuns:
    def test_different_seeds_give_different_runs(self):
        r = replicate(TTAS, lambda res: float(res.cycles), seeds=(1, 2, 3))
        assert r.n == 3
        assert r.hi > 0
        # Seeds perturb the schedule, so not all runs are identical.
        assert len(set(r.values)) > 1

    def test_same_seed_reproduces(self):
        # Two separate calls: one batch would coalesce seeds=(7, 7) into
        # a single simulation.
        first = replicate(TTAS, lambda res: float(res.cycles), seeds=(7,))
        second = replicate(TTAS, lambda res: float(res.cycles), seeds=(7,))
        assert first.values == second.values

    def test_comparison_shape_is_seed_stable(self):
        """The Figure 1 conclusion holds on every seed: BackOff-0 touches
        the LLC more than CB-One."""
        out = replicate_comparison(
            ("BackOff-0", "CB-One"),
            JobSpec("CB-One", "lock", {"lock_name": "clh", "iterations": 4},
                    {"num_cores": 16}),
            lambda res: float(res.llc_sync),
            seeds=(1, 2, 3),
        )
        assert out["BackOff-0"].separated_from(out["CB-One"])
        assert out["BackOff-0"].lo > out["CB-One"].hi


class TestCharts:
    def test_hbar_scales(self):
        assert hbar(10, 10, width=10) == "█" * 10
        assert hbar(5, 10, width=10) == "█" * 5
        assert hbar(0, 10, width=10) == ""

    def test_hbar_half_cell(self):
        assert hbar(5.5, 10, width=10).endswith("▌")

    def test_bar_chart_contains_everything(self):
        chart = bar_chart("Fig", ["a", "b"],
                          {"row1": {"a": 1.0, "b": 0.5}})
        assert "Fig" in chart and "row1" in chart
        assert "1.000" in chart and "0.500" in chart
        assert "█" in chart

    def test_bar_chart_empty_safe(self):
        chart = bar_chart("Empty", ["a"], {})
        assert "Empty" in chart
