"""Tests for the text/JSON reporting helpers."""

import json

import numpy as np
import pytest

from repro.experiments.report import (
    dump_json,
    format_table,
    series_table,
    sparkline,
)


class TestFormatTable:
    def test_alignment_and_rule(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_float_formatting(self):
        text = format_table(["v"], [[0.000123], [12345.0], [float("nan")]])
        assert "0.000123" in text
        assert "nan" in text


class TestSparkline:
    def test_monotone_series_ramps(self):
        s = sparkline(np.array([1.0, 2.0, 3.0, 4.0]))
        assert s[0] == "▁"
        assert s[-1] == "█"

    def test_constant_series_flat(self):
        assert set(sparkline(np.ones(5))) == {"▁"}

    def test_log_mode(self):
        s = sparkline(np.array([1.0, 10.0, 100.0]), log=True)
        assert len(s) == 3

    def test_empty(self):
        assert sparkline(np.array([])) == ""


class TestSeriesTable:
    def test_contains_all_series_names(self):
        x = np.arange(20)
        series = {"pwu": np.linspace(1, 0, 20), "pbus": np.linspace(1, 0.5, 20)}
        text = series_table(x, series, "n")
        assert "pwu" in text and "pbus" in text
        assert "trend" in text

    def test_subsamples_long_series(self):
        x = np.arange(500)
        text = series_table(x, {"s": np.linspace(0, 1, 500)}, "n", max_rows=8)
        # 8 data rows + header + rule + trend
        assert len(text.splitlines()) <= 12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="points"):
            series_table(np.arange(5), {"s": np.arange(4)}, "n")


class TestDumpJson:
    def test_writes_valid_json(self, tmp_path):
        path = tmp_path / "out.json"
        dump_json({"b": 2, "a": [1, 2]}, str(path))
        assert json.loads(path.read_text()) == {"a": [1, 2], "b": 2}
