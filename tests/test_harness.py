"""Tests for the IMB-style runner, report utilities and library presets."""

import gc
from importlib import import_module

import pytest

from repro.harness import RunResult, format_table, run_collective, slowdown_percent
from repro.libraries import library_by_name
from repro.libraries.presets import _LIBRARIES
from repro.machine import cori, psg_gpu, small_test_machine
from repro.mpi import MAX
from repro.parallel.worker import _KINDS


class TestRunner:
    def test_sequential_mode_runs_requested_iterations(self):
        r = run_collective(
            small_test_machine(), 24, "OMPI-adapt", "bcast", 64 << 10,
            iterations=3, mode="sequential",
        )
        assert len(r.times) == 3
        assert all(t > 0 for t in r.times)

    def test_imb_mode_reports_per_iteration_intervals(self):
        r = run_collective(
            small_test_machine(), 24, "OMPI-adapt", "bcast", 256 << 10,
            iterations=5, mode="imb",
        )
        assert len(r.times) == 5
        # First interval includes the pipeline fill; steady-state intervals
        # are cheaper or equal.
        assert r.times[0] >= min(r.times[1:]) * 0.99

    def test_imb_pipelining_beats_sequential(self):
        kw = dict(iterations=6, nbytes=1 << 20)
        seq = run_collective(
            small_test_machine(), 24, "OMPI-adapt", "bcast", mode="sequential", **kw
        )
        imb = run_collective(
            small_test_machine(), 24, "OMPI-adapt", "bcast", mode="imb", **kw
        )
        assert imb.mean_time < seq.mean_time

    @pytest.mark.parametrize("lib", sorted(_LIBRARIES))
    def test_every_library_completes_both_ops(self, lib):
        spec = cori(nodes=2)
        for op in ("bcast", "reduce"):
            r = run_collective(spec, 64, lib, op, 512 << 10, iterations=2)
            assert len(r.times) == 2
            assert r.mean_time > 0

    def test_gpu_run(self):
        r = run_collective(
            psg_gpu(nodes=2), 8, "OMPI-adapt", "reduce", 4 << 20,
            iterations=2, gpu=True,
        )
        assert r.mean_time > 0

    def test_reduce_op_parameter(self):
        r = run_collective(
            small_test_machine(), 24, "OMPI-adapt", "reduce", 64 << 10,
            iterations=2, op=MAX,
        )
        assert r.mean_time > 0

    def test_noise_increases_time(self):
        spec = cori(nodes=2)
        base = run_collective(spec, 64, "Cray MPI", "bcast", 4 << 20, iterations=8)
        noisy = run_collective(
            spec, 64, "Cray MPI", "bcast", 4 << 20, iterations=8,
            noise_percent=10, noise_ranks=[21], noise_frequency=200.0, seed=3,
        )
        assert noisy.mean_time > base.mean_time

    def test_invalid_operation_rejected(self):
        with pytest.raises(ValueError):
            run_collective(small_test_machine(), 8, "OMPI-adapt", "prefix_scan", 1024)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            run_collective(
                small_test_machine(), 8, "OMPI-adapt", "bcast", 1024, mode="warp"
            )

    def test_unknown_library_rejected(self):
        with pytest.raises(ValueError):
            library_by_name("OpenMPI 5")


#: Small-world keywords for each runner ``execute_job`` dispatches.
_SMALL_RUNS = {
    "collective": dict(library="OMPI-adapt", operation="allreduce",
                       nbytes=8 << 10, iterations=2),
    "asp": dict(library="OMPI-adapt", iterations=8, row_bytes=8 << 10),
    "sgd": dict(epochs=2, grad_bytes=8 << 10),
}


def _small_run(kind):
    module, name, _ = _KINDS[kind]
    run = getattr(import_module(module), name)
    spec = small_test_machine()
    return module, lambda: run(spec, 8, **_SMALL_RUNS[kind])


def _collections():
    return [s["collections"] for s in gc.get_stats()]


def test_collector_policy_covers_every_dispatched_kind():
    assert set(_SMALL_RUNS) == set(_KINDS)


@pytest.fixture
def eager_collector():
    """The collector on and at its most eager, restored afterwards.

    Thresholds of (100, 1, 1) cascade young collections into full ones
    within a few hundred allocations. Freezing the test process's heap
    empties the long-lived generation, so the full-collection gate (new
    long-lived objects must exceed a quarter of the old ones) opens on a
    small run too.
    """
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.freeze()
    gc.collect()
    gc.set_threshold(100, 1, 1)
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)
        gc.unfreeze()
        if not enabled:
            gc.disable()


@pytest.mark.parametrize("kind", sorted(_SMALL_RUNS))
class TestCollectorPolicy:
    """Each runner pauses the cyclic collector for its run and frees its
    world with one young collection after it returns."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("raises", [False, True])
    def test_restores_callers_state(self, kind, enabled, raises, monkeypatch):
        module, run = _small_run(kind)
        seen = []
        if raises:
            def broken_world(*args, **kwargs):
                seen.append(gc.isenabled())
                raise RuntimeError("world failed")

            monkeypatch.setattr(import_module(module), "_build_world",
                                broken_world)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if raises:
                with pytest.raises(RuntimeError, match="world failed"):
                    run()
                assert seen == [False]  # raised inside the paused region
            else:
                run()
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_one_young_collection_and_no_full_one(self, kind, eager_collector):
        _, run = _small_run(kind)
        before = _collections()
        run()
        # No full collection, nor any other, during the run.
        assert [a - b for a, b in zip(_collections(), before)] == [1, 0, 0]

    def test_leaves_no_cyclic_garbage(self, kind):
        _, run = _small_run(kind)
        was = gc.isenabled()
        gc.enable()
        try:
            gc.collect()
            run()
            assert gc.collect() == 0
        finally:
            if not was:
                gc.disable()


class TestReport:
    def test_slowdown_percent(self):
        assert slowdown_percent(1.5, 1.0) == pytest.approx(50.0)
        with pytest.raises(ValueError):
            slowdown_percent(1.0, 0.0)

    def test_format_table(self):
        text = format_table("T", ["a", "bb"], [[1, 2], [30, 4]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert "30" in lines[-1]

    def test_run_result_stats(self):
        r = RunResult("L", "bcast", "m", 4, 1024, 0.0, times=[1.0, 3.0])
        assert r.mean_time == pytest.approx(2.0)
        assert "L" in str(r)

    def test_run_result_line_flags_a_faulted_run(self):
        r = RunResult("L", "bcast", "m", 4, 1024, 0.0, times=[1.0, float("inf")],
                      transport={"dropped": 3, "retransmits": 5},
                      degraded=True, completed=False)
        assert str(r).endswith(" [drops=3 retransmits=5 degraded INCOMPLETE]")

    def test_byte_labels_and_profile_buckets(self):
        from repro.harness.experiments.common import fmt_bytes
        from repro.harness.profiling import _subsystem

        assert [fmt_bytes(n) for n in (512, 64 << 10, 4 << 20)] == ["512", "64K", "4M"]
        assert _subsystem("/src/repro/network/fairshare.py") == "repro.network"
        assert _subsystem("/src/repro/cli.py") == "repro.cli"
        assert _subsystem("/usr/lib/python3/json/decoder.py") == "stdlib/other"
        # A file named ``repro`` (a launcher script) has no package module.
        assert _subsystem("/usr/local/bin/repro") == "stdlib/other"
        assert _subsystem("<built-in>") == "builtins"

    def test_fig10_small_grid(self):
        from repro.harness.experiments import fig10_scaling

        cells = fig10_scaling.jobs("small")
        assert len(cells) == 2 * 3 * len(fig10_scaling.LIBRARIES)
        assert sorted({c.nodes for c in cells}) == [1, 2, 4]
