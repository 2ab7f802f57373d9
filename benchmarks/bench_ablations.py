"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper — these isolate the mechanisms the paper argues
with, and check the reproduction's conclusions are robust:

* segment size: the two pipeline criteria of Section 5.2.1 (too-small ->
  latency-dominated, too-large -> no pipeline) produce a sweet spot;
* in-flight send window N: N >= 2 hides the rendezvous handshake
  (Section 2.2.1's concurrency argument);
* GPU explicit CPU staging buffer on/off (Section 4.1);
* GPU reduction offload on/off (Section 4.2);
* parameter robustness: the ADAPT-vs-tuned verdict survives +/-2x changes
  of every machine bandwidth (DESIGN.md Section 5's calibration claim).
"""

import dataclasses
import pathlib

import pytest

from repro.collectives import bcast_adapt, reduce_adapt
from repro.collectives.base import CollectiveContext
from repro.config import CollectiveConfig
from repro.harness import run_collective
from repro.harness.experiments.common import ExperimentResult
from repro.libraries.presets import _staging_ranks
from repro.machine import cori, psg_gpu
from repro.machine.spec import LinkParams
from repro.mpi import SUM, Communicator, MpiWorld
from repro.trees import topology_aware_tree

MSG = 4 << 20
RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _record(res: ExperimentResult) -> None:
    """Print an ablation table and save it under ``benchmarks/results/``."""
    text = res.table()
    print("\n" + text)
    name = "ablation_" + res.title.split(",")[0].replace(" ", "_").replace("/", "-")
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def _adapt_time(spec, nranks, config, gpu=False, staging=None, reduce_on_gpu=False,
                op="bcast"):
    world = MpiWorld(spec, nranks, gpu_bound=gpu)
    comm = Communicator(world)
    tree = topology_aware_tree(world.topology, list(comm.ranks), 0)
    staged = set()
    if staging:
        staged = _staging_ranks(comm, tree, 0)
    ctx = CollectiveContext(
        comm, 0, MSG, config, tree=tree, host_staging=staged,
        op=SUM, reduce_on_gpu=reduce_on_gpu,
    )
    handle = bcast_adapt(ctx) if op == "bcast" else reduce_adapt(ctx)
    world.run()
    return handle.elapsed()


def test_ablation_segment_size(benchmark):
    """Pipeline criteria: mid-sized segments beat both extremes."""
    spec = cori(nodes=2)

    def sweep():
        res = ExperimentResult(
            "Ablation", "segment size, ADAPT bcast 4 MB, 64 ranks",
            ["segment", "mean_ms"],
        )
        for seg in [8 << 10, 32 << 10, 128 << 10, 1 << 20, MSG]:
            t = _adapt_time(spec, 64, CollectiveConfig(segment_size=seg))
            res.add(seg, round(t * 1e3, 3))
        return res

    res = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _record(res)
    times = dict(res.rows)
    best = min(times.values())
    # The sweet spot is an interior segment size (the paper's two criteria).
    assert times[128 << 10] <= min(times[8 << 10], times[MSG])
    assert best < times[MSG]


def test_ablation_inflight_window(benchmark):
    """N=1 leaves the rendezvous handshake exposed; N>=2 hides it."""
    spec = cori(nodes=2)

    def sweep():
        res = ExperimentResult(
            "Ablation", "in-flight sends per child (N), ADAPT bcast",
            ["N", "mean_ms"],
        )
        for n in (1, 2, 4):
            cfg = CollectiveConfig(inflight_sends=n, posted_recvs=n + 1)
            res.add(n, round(_adapt_time(spec, 64, cfg) * 1e3, 3))
        return res

    res = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _record(res)
    times = dict(res.rows)
    assert times[2] < times[1]


def test_ablation_gpu_staging(benchmark):
    """Section 4.1: the explicit CPU buffer relieves the leader's PCIe."""
    spec = psg_gpu(nodes=4)
    cfg = CollectiveConfig(segment_size=512 << 10)

    def sweep():
        res = ExperimentResult(
            "Ablation", "explicit CPU staging buffer, GPU bcast 4 MB, 16 GPUs",
            ["staging", "mean_ms"],
        )
        for staging in (False, True):
            t = _adapt_time(spec, 16, cfg, gpu=True, staging=staging)
            res.add(staging, round(t * 1e3, 3))
        return res

    res = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _record(res)
    times = dict(res.rows)
    assert times[True] < times[False]


def test_ablation_gpu_reduce_offload(benchmark):
    """Section 4.2: CUDA-stream reductions overlap with communication."""
    spec = psg_gpu(nodes=4)
    cfg = CollectiveConfig(segment_size=512 << 10)

    def sweep():
        res = ExperimentResult(
            "Ablation", "GPU reduction offload, reduce 4 MB, 16 GPUs",
            ["offload", "mean_ms"],
        )
        for offload in (False, True):
            t = _adapt_time(spec, 16, cfg, gpu=True, reduce_on_gpu=offload,
                            op="reduce")
            res.add(offload, round(t * 1e3, 3))
        return res

    res = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _record(res)
    times = dict(res.rows)
    assert times[True] < times[False] / 1.5


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_ablation_parameter_robustness(benchmark, factor):
    """The ADAPT-vs-tuned verdict survives +/-2x bandwidth changes."""

    def scaled(spec, f):
        def s(lp: LinkParams) -> LinkParams:
            return LinkParams(lp.alpha, lp.bandwidth * f)

        return dataclasses.replace(
            spec, shm=s(spec.shm), qpi=s(spec.qpi), fabric=s(spec.fabric)
        )

    def sweep():
        spec = scaled(cori(nodes=2), factor)
        res = ExperimentResult(
            "Ablation", f"bandwidths x{factor}, bcast 4 MB, 64 ranks",
            ["library", "mean_ms"],
        )
        for lib in ("OMPI-adapt", "OMPI-default"):
            r = run_collective(spec, 64, lib, "bcast", MSG, iterations=3)
            res.add(lib, round(r.mean_time * 1e3, 3))
        return res

    res = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _record(res)
    times = dict(res.rows)
    assert times["OMPI-adapt"] < times["OMPI-default"]
