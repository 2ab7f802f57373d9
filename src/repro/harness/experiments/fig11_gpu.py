"""Figure 11 — broadcast/reduce with GPU data on the PSG cluster (Section 5.2.2).

One rank per GPU (4 GPUs/node). Figure 11a sweeps 1-32 MB at 8 nodes
(32 GPUs); Figure 11b is strong scaling at 32 MB from 1 to 8 nodes.
Libraries: {MVAPICH, OMPI-default, OMPI-adapt}.

Shape claims (:data:`MSGSIZE_CLAIMS`, :data:`SCALING_CLAIMS`): ADAPT's
broadcast beats MVAPICH and OMPI-default by the explicit CPU-buffer staging
(paper: 2-3x), ADAPT's reduce wins by much more thanks to GPU-offloaded
reduction (paper: ~10x), and ADAPT's strong scaling is near-flat while
OMPI-default's decision tree picks a poor algorithm at one node.
"""

from __future__ import annotations

from repro.harness.experiments.common import (
    SCALES,
    Claim,
    ExperimentResult,
    adapt_fastest_at_largest,
    fmt_bytes,
    sweep,
)
from repro.machine import psg_gpu
from repro.parallel import SimJob

LIBRARIES = ["MVAPICH", "OMPI-default", "OMPI-adapt"]
SIZES_A = [1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20]


def jobs_msgsize(scale: str = "small", sizes: list[int] | None = None) -> list[SimJob]:
    cfg = SCALES[scale]
    iters = max(3, cfg["iters"] // 4)
    sizes = sizes or (SIZES_A if scale != "small" else SIZES_A[:4])
    return [
        SimJob(
            machine="psg",
            nodes=cfg["psg_nodes"],
            library=lib,
            operation=operation,
            nbytes=nbytes,
            iterations=iters,
            gpu=True,
        )
        for operation in ("bcast", "reduce")
        for nbytes in sizes
        for lib in LIBRARIES
    ]


def run_msgsize(
    scale: str = "small",
    sizes: list[int] | None = None,
    *,
    n_jobs: int | None = None,
    cache=None,
) -> ExperimentResult:
    spec = psg_gpu(nodes=SCALES[scale]["psg_nodes"])
    cells = jobs_msgsize(scale, sizes)
    result = ExperimentResult(
        experiment="Figure 11a",
        title=f"GPU bcast/reduce vs message size, {spec.nodes} nodes ({spec.total_gpus} GPUs)",
        headers=["operation", "library", "nbytes", "size", "mean_ms"],
    )
    for job, r in zip(cells, sweep(cells, n_jobs=n_jobs, cache=cache)):
        result.add(job.operation, job.library, job.nbytes, fmt_bytes(job.nbytes),
                   round(r.mean_time * 1e3, 3))
    return result


def jobs_scaling(scale: str = "small", nodes: list[int] | None = None) -> list[SimJob]:
    cfg = SCALES[scale]
    iters = max(3, cfg["iters"] // 4)
    msg = 32 << 20 if scale != "small" else 8 << 20
    return [
        SimJob(
            machine="psg",
            nodes=n,
            library=lib,
            operation=operation,
            nbytes=msg,
            iterations=iters,
            gpu=True,
        )
        for operation in ("bcast", "reduce")
        for n in (nodes or list(range(1, cfg["psg_nodes"] + 1)))
        for lib in LIBRARIES
    ]


def run_scaling(
    scale: str = "small",
    nodes: list[int] | None = None,
    *,
    n_jobs: int | None = None,
    cache=None,
) -> ExperimentResult:
    cfg = SCALES[scale]
    nodes = nodes or list(range(1, cfg["psg_nodes"] + 1))
    msg = 32 << 20 if scale != "small" else 8 << 20
    cells = jobs_scaling(scale, nodes)
    result = ExperimentResult(
        experiment="Figure 11b",
        title=f"GPU strong scaling, {msg >> 20} MB, nodes {nodes}",
        headers=["operation", "library", "nodes", "ngpus", "mean_ms"],
    )
    for job, r in zip(cells, sweep(cells, n_jobs=n_jobs, cache=cache)):
        result.add(job.operation, job.library, job.nodes,
                   psg_gpu(nodes=job.nodes).total_gpus, round(r.mean_time * 1e3, 3))
    return result


def _at_largest(res: ExperimentResult, operation: str) -> dict[str, float]:
    largest = max(r[2] for r in res.rows)
    return {r[1]: r[4] for r in res.lookup(operation=operation, nbytes=largest)}


def _adapt_bcast_wins(res: ExperimentResult) -> None:
    bcast = _at_largest(res, "bcast")
    # Broadcast: ADAPT wins (paper: 2-3x over both).
    assert bcast["OMPI-adapt"] < bcast["MVAPICH"], bcast
    assert bcast["OMPI-adapt"] < bcast["OMPI-default"], bcast


def _adapt_reduce_wins_3x(res: ExperimentResult) -> None:
    reduce_ = _at_largest(res, "reduce")
    # Reduce: ADAPT wins big thanks to GPU offload (paper: ~10x).
    assert reduce_["OMPI-adapt"] * 3 < reduce_["MVAPICH"], reduce_
    assert reduce_["OMPI-adapt"] * 3 < reduce_["OMPI-default"], reduce_


MSGSIZE_CLAIMS = (
    Claim("fig11a: ADAPT bcast beats MVAPICH and OMPI-default at the largest "
          "size", _adapt_bcast_wins),
    Claim("fig11a: ADAPT reduce over 3x faster than MVAPICH and OMPI-default "
          "at the largest size", _adapt_reduce_wins_3x),
)


def _near_flat(res: ExperimentResult) -> None:
    nodes = sorted({r[2] for r in res.rows})
    lo, hi = nodes[0], nodes[-1]
    for operation in ("bcast", "reduce"):
        t_lo = res.value("mean_ms", operation=operation, library="OMPI-adapt", nodes=lo)
        t_hi = res.value("mean_ms", operation=operation, library="OMPI-adapt", nodes=hi)
        # Almost ideal strong scalability (paper Figure 11b).
        assert t_hi < t_lo * 2.0, (operation, t_lo, t_hi)


SCALING_CLAIMS = (
    Claim("fig11b: ADAPT fastest at the largest node count",
          adapt_fastest_at_largest),
    Claim("fig11b: near-flat ADAPT scaling", _near_flat, failing=(
        "ADAPT's 8 MB bcast is 2.09x slower at 4 nodes than at 1. The step "
        "is at 1 -> 2 nodes, where the first NIC hop enters (Hockney's model "
        "predicts 2.41x there: the slowest hop goes from QPI to the NIC); "
        "2 -> 4 nodes is flat")),
)
