"""Figure 10 — strong scalability with CPU data (Section 5.2.1).

4 MB broadcast/reduce while the node count grows (paper: 8 -> 32 nodes on
Cori, 128 -> 1024 ranks). The paper's claim, from the Hockney chain model
T = ns x (alpha + beta m): ADAPT's time is nearly independent of the process
count, and ADAPT scales best of all libraries.

Shape claims (:data:`CLAIMS`): ADAPT's time grows by far less than the
process count does (near-flat), and at the largest scale ADAPT is fastest.
"""

from __future__ import annotations

from repro.harness.experiments.common import (
    SCALES,
    Claim,
    ExperimentResult,
    adapt_fastest_at_largest,
    sweep,
)
from repro.machine import cori
from repro.parallel import SimJob

MSG = 4 << 20
LIBRARIES = ["Cray MPI", "Intel MPI", "OMPI-default", "OMPI-adapt"]


def node_counts(scale: str) -> list[int]:
    return {"small": [1, 2, 4], "medium": [2, 4, 8], "paper": [8, 16, 32]}[scale]


def jobs(scale: str = "small", nodes: list[int] | None = None) -> list[SimJob]:
    """The sweep grid as independent cells, in table-row order."""
    iters = max(3, SCALES[scale]["iters"] // 4)
    return [
        SimJob(
            machine="cori",
            nodes=n,
            library=lib,
            operation=operation,
            nbytes=MSG,
            iterations=iters,
        )
        for operation in ("bcast", "reduce")
        for n in (nodes or node_counts(scale))
        for lib in LIBRARIES
    ]


def run(
    scale: str = "small",
    nodes: list[int] | None = None,
    *,
    n_jobs: int | None = None,
    cache=None,
) -> ExperimentResult:
    nodes = nodes or node_counts(scale)
    cells = jobs(scale, nodes)
    result = ExperimentResult(
        experiment="Figure 10",
        title=f"strong scaling, cori, 4 MB, nodes {nodes}",
        headers=["operation", "library", "nodes", "nranks", "mean_ms"],
    )
    for job, r in zip(cells, sweep(cells, n_jobs=n_jobs, cache=cache)):
        result.add(
            job.operation, job.library, job.nodes,
            cori(nodes=job.nodes).total_cores, round(r.mean_time * 1e3, 3),
        )
    return result


def _near_flat(res: ExperimentResult) -> None:
    nodes = sorted({r[2] for r in res.rows})
    lo, hi = nodes[0], nodes[-1]
    growth = hi / lo
    for operation in ("bcast", "reduce"):
        t_lo = res.value("mean_ms", operation=operation, library="OMPI-adapt", nodes=lo)
        t_hi = res.value("mean_ms", operation=operation, library="OMPI-adapt", nodes=hi)
        # Near-flat: far sub-linear in the process count (paper: "does not
        # increase significantly"); allow fill-time growth but not ~P scaling.
        assert t_hi < t_lo * (1 + growth / 2), (operation, t_lo, t_hi, growth)


CLAIMS = (
    Claim("fig10: near-flat ADAPT scaling", _near_flat),
    Claim("fig10: ADAPT fastest at the largest node count",
          adapt_fastest_at_largest),
)
