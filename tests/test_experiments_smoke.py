"""Smoke tests for the per-figure experiment drivers at tiny scale.

The full shape assertions live in ``benchmarks/``; these just verify every
driver runs end-to-end, produces the expected rows, and that the headline
orderings hold at the smallest scale where they are stable.
"""

import pytest

from repro.harness.experiments import (
    fig08_topo,
    fig09_msgsize,
    fig10_scaling,
    fig11_gpu,
    table1_asp,
)
from repro.harness.experiments.common import ExperimentResult, default_scale

TINY_SIZES = [256 << 10, 1 << 20]


class TestFig8:
    def test_bcast_rows_and_adapt_wins_large(self):
        res = fig08_topo.run("cori", "small", "bcast", sizes=TINY_SIZES)
        algos = {r[0] for r in res.rows}
        assert "OMPI-adapt" in algos and "Intel-topo-SHM-Knomial" in algos
        at_large = {r[0]: r[3] for r in res.lookup(nbytes=1 << 20)}
        assert at_large["OMPI-adapt"] <= min(at_large.values()) * 1.05

    def test_reduce_rows(self):
        res = fig08_topo.run("cori", "small", "reduce", sizes=[512 << 10])
        algos = {r[0] for r in res.rows}
        assert "Intel-topo-Shumilin" in algos and "Intel-topo-Rabenseifner" in algos


class TestFig9:
    def test_bcast_series(self):
        res = fig09_msgsize.run("cori", "small", "bcast", sizes=TINY_SIZES)
        assert len(res.rows) == len(TINY_SIZES) * 4
        at_large = {r[0]: r[3] for r in res.lookup(nbytes=1 << 20)}
        assert at_large["OMPI-adapt"] < at_large["OMPI-default"]

    def test_stampede2_uses_mvapich(self):
        res = fig09_msgsize.run("stampede2", "small", "bcast", sizes=[256 << 10])
        libs = {r[0] for r in res.rows}
        assert "MVAPICH" in libs and "Cray MPI" not in libs


class TestFig10:
    def test_adapt_near_flat(self):
        res = fig10_scaling.run("small", nodes=[1, 2])
        t1 = res.value("mean_ms", operation="bcast", library="OMPI-adapt", nodes=1)
        t2 = res.value("mean_ms", operation="bcast", library="OMPI-adapt", nodes=2)
        assert t2 < t1 * 2.0  # far sub-linear


class TestFig11:
    def test_gpu_msgsize_rows(self):
        res = fig11_gpu.run_msgsize("small", sizes=[2 << 20])
        reduce_ = {r[1]: r[4] for r in res.lookup(operation="reduce", nbytes=2 << 20)}
        assert reduce_["OMPI-adapt"] < reduce_["MVAPICH"]

    def test_gpu_scaling_rows(self):
        res = fig11_gpu.run_scaling("small", nodes=[1, 2])
        assert len(res.rows) == 2 * 2 * 3


class TestTable1:
    def test_asp_ordering(self):
        res = table1_asp.run("small", iterations=8)
        frac = {r[0]: r[3] for r in res.rows}
        assert frac["OMPI-adapt"] < frac["OMPI-default"]


class TestExperimentResult:
    def test_table_and_lookup(self):
        res = ExperimentResult("X", "t", ["a", "b"], [[1, 2], [3, 4]])
        assert res.column("b") == [2, 4]
        assert res.lookup(a=3) == [[3, 4]]
        assert res.value("b", a=1) == 2
        assert "X: t" in res.table()

    def test_value_requires_unique_match(self):
        res = ExperimentResult("X", "t", ["a", "b"], [[1, 2], [1, 4]])
        with pytest.raises(KeyError):
            res.value("b", a=1)


class TestDefaultScale:
    def test_bad_value_names_the_scales(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "medium")
        assert default_scale() == "medium"
        monkeypatch.setenv("REPRO_BENCH_SCALE", "huge")
        with pytest.raises(
            ValueError, match=r"'huge'; choose from \['medium', 'paper', 'small'\]"
        ):
            default_scale()
