"""Tests for the terminal chart renderer."""

import pytest

from repro.harness.charts import (
    bar_chart,
    experiment_line_chart,
    grouped_bar_chart,
    line_chart,
)
from repro.harness.experiments.common import ExperimentResult


class TestBarChart:
    def test_longest_bar_is_the_max(self):
        out = bar_chart("T", {"a": 1.0, "b": 2.0}, width=10)
        lines = out.splitlines()
        bar_a = lines[2].split("|")[1]
        bar_b = lines[3].split("|")[1]
        assert bar_b.count("█") > bar_a.count("█")
        assert "2.000 ms" in lines[3]

    def test_fractional_bar_ends_in_a_partial_block(self):
        out = bar_chart("T", {"a": 1.0, "b": 2.0}, width=5)
        assert out.splitlines()[2].split("|")[1] == "██▌  "

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bar_chart("T", {})

    def test_zero_values_render(self):
        out = bar_chart("T", {"a": 0.0, "b": 0.0})
        assert "a" in out and "b" in out


class TestGroupedBarChart:
    def test_groups_and_shared_scale(self):
        out = grouped_bar_chart(
            "noise", {"lib1": {"0%": 1.0, "5%": 2.0}, "lib2": {"0%": 4.0}}
        )
        assert "lib1" in out and "lib2" in out
        # lib2's 4.0 is the global max: its bar is the longest.
        rows = [l for l in out.splitlines() if "|" in l]
        longest = max(rows, key=lambda l: l.count("█"))
        assert "4.000" in longest

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            grouped_bar_chart("T", {})


class TestLineChart:
    def test_markers_and_legend(self):
        out = line_chart(
            "sweep", [1, 10, 100],
            {"fast": [1.0, 2.0, 3.0], "slow": [10.0, 20.0, 30.0]},
        )
        assert "o=fast" in out and "x=slow" in out
        assert "o" in out and "x" in out

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            line_chart("T", [1, 2], {"s": [1.0]})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            line_chart("T", [], {})


class TestExperimentChart:
    def test_renders_figure9_style_result(self):
        res = ExperimentResult(
            "Figure 9x", "demo", ["library", "nbytes", "mean_ms"],
        )
        for lib, scale in (("A", 1.0), ("B", 3.0)):
            for nb in (1 << 16, 1 << 20, 1 << 22):
                res.add(lib, nb, scale * nb / 1e6)
        out = experiment_line_chart(res)
        assert "Figure 9x" in out
        assert "o=A" in out and "x=B" in out

    def test_incomplete_series_skipped(self):
        res = ExperimentResult("X", "t", ["library", "nbytes", "mean_ms"])
        res.add("A", 1, 1.0)
        res.add("A", 2, 2.0)
        res.add("B", 1, 5.0)  # B lacks x=2: dropped
        out = experiment_line_chart(res)
        assert "o=A" in out and "B" not in out.splitlines()[-1].replace("o=A", "")
