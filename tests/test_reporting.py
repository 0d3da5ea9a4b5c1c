"""Reporting helpers: geomean, normalization, table formatting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.reporting import (format_table, geomean, geomean_rows,
                                     normalize_to, normalize_to_max)


class TestGeomean:
    def test_basic(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert geomean([3, 3, 3]) == pytest.approx(3.0)

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_zero_clamped_not_fatal(self):
        assert geomean([0.0, 1.0]) > 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1,
                    max_size=20))
    def test_bounded_by_min_max(self, values):
        g = geomean(values)
        assert min(values) * 0.999 <= g <= max(values) * 1.001


class TestNormalization:
    def test_normalize_to_reference(self):
        row = {"a": 10.0, "b": 5.0, "c": 20.0}
        normed = normalize_to(row, "a")
        assert normed == {"a": 1.0, "b": 0.5, "c": 2.0}

    def test_normalize_to_zero_reference(self):
        assert normalize_to({"a": 0.0, "b": 5.0}, "a") == {"a": 0.0, "b": 0.0}

    def test_normalize_to_max(self):
        normed = normalize_to_max({"a": 2.0, "b": 8.0})
        assert normed == {"a": 0.25, "b": 1.0}
        assert max(normed.values()) == 1.0

    def test_normalize_to_max_all_zero(self):
        assert normalize_to_max({"a": 0.0}) == {"a": 0.0}


class TestGeomeanRows:
    def test_column_wise(self):
        rows = {"r1": {"a": 1.0, "b": 4.0}, "r2": {"a": 4.0, "b": 1.0}}
        means = geomean_rows(rows, ["a", "b"])
        assert means["a"] == pytest.approx(2.0)
        assert means["b"] == pytest.approx(2.0)


class TestFormatTable:
    def test_contains_all_cells(self):
        table = format_table("T", ["x", "y"],
                             {"row1": {"x": 1.5, "y": 2.25}})
        assert "row1" in table
        assert "1.500" in table and "2.250" in table

    def test_missing_cell_renders_nan(self):
        table = format_table("T", ["x", "y"], {"row": {"x": 1.0}})
        assert "nan" in table

    def test_alignment_consistent(self):
        table = format_table("T", ["col"], {"a": {"col": 1.0},
                                            "longer_name": {"col": 2.0}})
        lines = table.splitlines()
        pipes = [line.index("|") for line in lines if "|" in line]
        assert len(set(pipes)) == 1
