"""Tests for terminal plots, tables and exports."""

import csv

import numpy as np
import pytest

from repro.errors import EmptyDataError
from repro.viz import (
    bar_chart,
    format_table,
    line_plot,
    save_series_csv,
)


class TestLinePlot:
    def test_renders_markers_and_legend(self):
        x = np.linspace(0, 10, 50)
        out = line_plot({"up": (x, x), "down": (x, -x)}, width=40, height=10)
        assert "o up" in out
        assert "x down" in out
        assert "o" in out.splitlines()[0] or "o" in out

    def test_handles_nan(self):
        x = np.arange(10.0)
        y = x.copy()
        y[3] = np.nan
        out = line_plot({"s": (x, y)})
        assert isinstance(out, str)

    def test_empty_raises(self):
        with pytest.raises(EmptyDataError):
            line_plot({"s": (np.array([]), np.array([]))})

    def test_constant_series(self):
        x = np.arange(5.0)
        out = line_plot({"s": (x, np.ones(5))})
        assert "s" in out

    def test_y_range_override(self):
        x = np.arange(5.0)
        out = line_plot({"s": (x, x)}, y_range=(0.0, 100.0), height=5)
        assert out.splitlines()[0].strip().startswith("100")


class TestBarChart:
    def test_bars_scale(self):
        out = bar_chart({"a": 1.0, "b": 0.5})
        lines = out.splitlines()
        assert lines[0].count("#") > lines[1].count("#")

    def test_empty_raises(self):
        with pytest.raises(EmptyDataError):
            bar_chart({})


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["name", "value"], [["a", 1.5], ["bbbb", 22.125]])
        lines = out.splitlines()
        assert all(len(line) == len(lines[0]) for line in lines)
        assert "22.125" in out

    def test_none_renders_dash(self):
        out = format_table(["x"], [[None]])
        assert "-" in out

    def test_precision(self):
        out = format_table(["x"], [[1.23456]], precision=2)
        assert "1.23" in out
        assert "1.235" not in out


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        n = save_series_csv({"a": np.array([1.0, 2.0]),
                             "b": np.array([3.0, np.nan])}, path)
        assert n == 2
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["a", "b"]
        assert rows[2][1] == ""  # NaN -> empty cell

    def test_csv_length_mismatch(self, tmp_path):
        with pytest.raises(EmptyDataError):
            save_series_csv({"a": np.ones(2), "b": np.ones(3)},
                            tmp_path / "x.csv")

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(EmptyDataError):
            save_series_csv({}, tmp_path / "x.csv")
