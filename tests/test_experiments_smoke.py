"""Smoke tests for the per-figure experiment drivers at tiny scale.

The shape claims are registered beside each driver (``CLAIMS``) and checked
by the registry loop, ``benchmarks/bench_experiments.py``; these just verify
the drivers run end-to-end on reduced grids and produce the expected rows.
"""

import pytest

from repro.harness.experiments import fig08_topo, fig09_msgsize, fig11_gpu
from repro.harness.experiments.common import ExperimentResult, default_scale

TINY_SIZES = [256 << 10, 1 << 20]


class TestFig8:
    def test_bcast_rows(self):
        res = fig08_topo.run("cori", "small", "bcast", sizes=TINY_SIZES)
        algos = {r[0] for r in res.rows}
        assert "OMPI-adapt" in algos and "Intel-topo-SHM-Knomial" in algos

    def test_reduce_rows(self):
        res = fig08_topo.run("cori", "small", "reduce", sizes=[512 << 10])
        algos = {r[0] for r in res.rows}
        assert "Intel-topo-Shumilin" in algos and "Intel-topo-Rabenseifner" in algos


class TestFig9:
    def test_bcast_series(self):
        res = fig09_msgsize.run("cori", "small", "bcast", sizes=TINY_SIZES)
        assert len(res.rows) == len(TINY_SIZES) * 4

    def test_stampede2_uses_mvapich(self):
        res = fig09_msgsize.run("stampede2", "small", "bcast", sizes=[256 << 10])
        libs = {r[0] for r in res.rows}
        assert "MVAPICH" in libs and "Cray MPI" not in libs


class TestFig11:
    def test_gpu_msgsize_rows(self):
        res = fig11_gpu.run_msgsize("small", sizes=[2 << 20])
        assert len(res.rows) == 2 * 1 * 3

    def test_gpu_scaling_rows(self):
        res = fig11_gpu.run_scaling("small", nodes=[1, 2])
        assert len(res.rows) == 2 * 2 * 3


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
