"""Tests for the reporting helpers."""

import numpy as np
import pytest

from repro.analysis import ascii_plot, format_series, format_table
from repro.analysis.reporting import comparison, render


class TestFormatTable:
    def test_basic(self):
        out = format_table(["a", "bb"], [(1, 2.5), (30, 4.123456)])
        lines = out.splitlines()
        assert "a" in lines[0] and "bb" in lines[0]
        assert "4.123" in out

    def test_title(self):
        out = format_table(["x"], [(1,)], title="Table I")
        assert out.startswith("Table I")

    def test_column_alignment(self):
        out = format_table(["col"], [("xyz",), ("a",)])
        lines = out.splitlines()
        assert len(lines[-1]) == len(lines[-2])

    def test_floatfmt(self):
        out = format_table(["v"], [(0.123456789,)], floatfmt=".2e")
        assert "1.23e-01" in out


class TestSeriesAndPlot:
    def test_format_series(self):
        out = format_series([1, 2], [10.0, 20.0], "cores", "ms")
        assert "cores" in out and "ms" in out

    def test_ascii_plot_contains_marks(self):
        x = np.arange(10)
        out = ascii_plot(x, {"a": x * 1.0, "b": x * 2.0})
        assert "*" in out and "o" in out
        assert "a" in out and "b" in out

    def test_ascii_plot_log_scale(self):
        x = np.arange(1, 6)
        out = ascii_plot(x, {"s": 10.0 ** x}, logy=True)
        assert "1e" in out

    def test_ascii_plot_constant_series(self):
        out = ascii_plot([0, 1], {"c": [5.0, 5.0]})
        assert "*" in out


class TestPaperVsMeasured:
    def test_records_rendered(self):
        out = render([comparison([
            {"quantity": "PFLOPS", "paper": 0.86, "measured": 0.859},
            {"quantity": "iter time", "paper": "28.1 us", "measured": "28.1 us",
             "note": "calibrated"},
        ])])
        assert "PFLOPS" in out
        assert "calibrated" in out
