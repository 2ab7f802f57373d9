"""Ablations — the mechanisms the paper argues with, one at a time.

Not a figure of the paper: each arm switches one mechanism of ADAPT off or
resizes it, and :data:`CLAIMS` checks the paper's reason for it:

* segment size: the two pipeline criteria of Section 5.2.1 (too small is
  latency-dominated, too large leaves no pipeline) put the best segment in
  the interior;
* in-flight sends per child N: N >= 2 hides the rendezvous handshake
  (Section 2.2.1's concurrency argument);
* the explicit CPU staging buffer on GPU node leaders (Section 4.1);
* reduction offload to the GPU's CUDA stream (Section 4.2);
* parameter robustness: the ADAPT-vs-tuned verdict survives halving or
  doubling every machine bandwidth (DESIGN.md Section 5's calibration
  claim).

Every cell runs in this process through :func:`run_collective`: the arms
carry a :class:`CollectiveConfig`, a custom algorithm or a rescaled machine
spec, none of which a :class:`~repro.parallel.SimJob` can hold. So
``n_jobs`` and ``cache`` are accepted for the registry's sake and unused.
"""

from __future__ import annotations

import dataclasses
from functools import partial

from repro.collectives import bcast_adapt, reduce_adapt
from repro.collectives.base import CollectiveContext
from repro.config import CollectiveConfig
from repro.harness.experiments.common import Claim, ExperimentResult, machine_spec
from repro.harness.runner import run_collective
from repro.libraries.presets import PreparedCollective
from repro.machine.spec import LinkParams
from repro.mpi import SUM
from repro.trees import topology_aware_tree

MSG = 4 << 20
SEGMENTS = (8 << 10, 32 << 10, 128 << 10, 1 << 20, MSG)
WINDOWS = (1, 2, 4)
GPU_CONFIG = CollectiveConfig(segment_size=512 << 10)
BANDWIDTH_FACTORS = (0.5, 2.0)
ROBUSTNESS_ITERS = 3


def _adapt_without(ctx_kw: dict, fn):
    """A custom algorithm: ``fn`` on ADAPT's topology-aware tree with the
    GPU-world extras of :func:`ompi_adapt` replaced by ``ctx_kw``."""

    def prepare(comm, root, nbytes, config, op=SUM, **kw):
        tree = topology_aware_tree(comm.world.topology, list(comm.ranks), root)
        ctx = CollectiveContext(comm, root, nbytes, config, tree=tree, op=op,
                                **ctx_kw)
        return PreparedCollective(
            lambda handle, ranks: fn(ctx, handle=handle, ranks=ranks))

    return prepare


#: GPU bcast with no rank staging through a CPU buffer.
_unstaged_bcast = _adapt_without({}, bcast_adapt)
#: GPU reduce with every reduction on the host CPU.
_host_reduce = _adapt_without({"reduce_on_gpu": False}, reduce_adapt)


def _scaled(spec, factor: float):
    def s(lp: LinkParams) -> LinkParams:
        return LinkParams(lp.alpha, lp.bandwidth * factor)

    return dataclasses.replace(spec, shm=s(spec.shm), qpi=s(spec.qpi),
                               fabric=s(spec.fabric))


def run(scale: str = "small", *, n_jobs: int | None = None, cache=None
        ) -> ExperimentResult:
    cori = machine_spec("cori", scale)
    psg = machine_spec("psg", scale)
    nranks, ngpus = cori.total_cores, psg.total_gpus
    result = ExperimentResult(
        experiment="Ablations",
        title=f"ADAPT mechanisms, 4 MB, cori {nranks} ranks, psg {ngpus} GPUs",
        headers=["ablation", "arm", "mean_ms"],
        notes=[
            f"segment size, window: ADAPT bcast on cori, {nranks} ranks, "
            "one iteration; the window arm posts N+1 receives",
            f"staging, offload: OMPI-adapt on psg, {ngpus} GPUs, 512 KB "
            "segments, one iteration; 'off' drops the CPU staging buffer "
            "or reduces on the host",
            f"bandwidths xF: every cori link bandwidth scaled by F, "
            f"{nranks} ranks, mean of {ROBUSTNESS_ITERS} iterations",
        ],
    )

    def ms(spec, n, library="OMPI-adapt", operation="bcast", iterations=1,
           **kw) -> float:
        r = run_collective(spec, n, library, operation, MSG,
                           iterations=iterations, **kw)
        return round(r.mean_time * 1e3, 3)

    for seg in SEGMENTS:
        result.add("segment size", seg,
                   ms(cori, nranks, config=CollectiveConfig(segment_size=seg)))
    for n in WINDOWS:
        cfg = CollectiveConfig(inflight_sends=n, posted_recvs=n + 1)
        result.add("in-flight sends (N)", n, ms(cori, nranks, config=cfg))
    for arm, algo in (("off", _unstaged_bcast), ("on", None)):
        result.add("CPU staging buffer", arm,
                   ms(psg, ngpus, gpu=True, config=GPU_CONFIG,
                      custom_algorithm=algo))
    for arm, algo in (("off", _host_reduce), ("on", None)):
        result.add("GPU reduction offload", arm,
                   ms(psg, ngpus, operation="reduce", gpu=True,
                      config=GPU_CONFIG, custom_algorithm=algo))
    for factor in BANDWIDTH_FACTORS:
        spec = _scaled(cori, factor)
        for lib in ("OMPI-adapt", "OMPI-default"):
            result.add(f"bandwidths x{factor}", lib,
                       ms(spec, nranks, lib, iterations=ROBUSTNESS_ITERS))
    return result


def _times(res: ExperimentResult, ablation: str) -> dict:
    return {arm: t for _, arm, t in res.lookup(ablation=ablation)}


def _interior_segment_beats_extremes(res: ExperimentResult) -> None:
    times = _times(res, "segment size")
    assert times[128 << 10] <= min(times[8 << 10], times[MSG]), times


def _best_segment_beats_one_segment(res: ExperimentResult) -> None:
    times = _times(res, "segment size")
    assert min(times.values()) < times[MSG], times


def _window_hides_handshake(res: ExperimentResult) -> None:
    times = _times(res, "in-flight sends (N)")
    assert times[2] < times[1], times


def _staging_helps(res: ExperimentResult) -> None:
    times = _times(res, "CPU staging buffer")
    assert times["on"] < times["off"], times


def _offload_over_1_5x(res: ExperimentResult) -> None:
    times = _times(res, "GPU reduction offload")
    assert times["on"] < times["off"] / 1.5, times


def _adapt_beats_tuned(res: ExperimentResult, factor: float) -> None:
    times = _times(res, f"bandwidths x{factor}")
    assert times["OMPI-adapt"] < times["OMPI-default"], times


CLAIMS = (
    Claim("ablations: a 128K segment beats both extreme segment sizes",
          _interior_segment_beats_extremes),
    Claim("ablations: the best segment beats one whole-message segment",
          _best_segment_beats_one_segment),
    Claim("ablations: N=2 in-flight sends beat N=1",
          _window_hides_handshake),
    Claim("ablations: the CPU staging buffer speeds up the GPU bcast",
          _staging_helps),
    Claim("ablations: GPU reduction offload over 1.5x faster",
          _offload_over_1_5x),
    *(Claim(f"ablations: ADAPT beats OMPI-default at bandwidths x{f}",
            partial(_adapt_beats_tuned, factor=f))
      for f in BANDWIDTH_FACTORS),
)
