"""Table 1 — ASP (parallel Floyd-Warshall) application performance
(Section 5.3).

The paper runs ASP with problem size 256K on 1K Cori cores and reports
communication vs total runtime for {Cray, Intel MPI, OMPI-adapt,
OMPI-tuned}: ADAPT spends 38% of the runtime communicating, Cray 48%, Intel
and tuned over 80%.

We run the same communication/compute pattern (one ~1 MB broadcast with a
rotating root per iteration, fixed relaxation compute per iteration) at a
scaled-down iteration count — DESIGN.md documents the scaling; the
reproduced quantity is the per-library communication share and ordering.

Shape claims (:data:`CLAIMS`): ADAPT has the lowest total runtime and the
smallest communication share, the tuned module spends most of the runtime
communicating, and Cray sits between the two.
"""

from __future__ import annotations

from repro.harness.experiments.common import SCALES, Claim, ExperimentResult, sweep
from repro.machine import cori
from repro.parallel import SimJob

LIBRARIES = ["Cray MPI", "Intel MPI", "OMPI-adapt", "OMPI-default"]


def jobs(scale: str = "small", iterations: int | None = None) -> list[SimJob]:
    """One ASP application run per library, in table-row order."""
    iters = iterations or {"small": 24, "medium": 48, "paper": 256}[scale]
    return [
        SimJob(
            kind="asp",
            machine="cori",
            nodes=SCALES[scale]["cori_nodes"],
            library=lib,
            iterations=iters,
        )
        for lib in LIBRARIES
    ]


def run(
    scale: str = "small",
    iterations: int | None = None,
    *,
    n_jobs: int | None = None,
    cache=None,
) -> ExperimentResult:
    nranks = cori(nodes=SCALES[scale]["cori_nodes"]).total_cores
    iters = iterations or {"small": 24, "medium": 48, "paper": 256}[scale]
    cells = jobs(scale, iterations)
    result = ExperimentResult(
        experiment="Table 1",
        title=f"ASP, cori, {nranks} ranks, {iters} iterations of 1 MB rows",
        headers=["library", "communication_s", "total_s", "comm_fraction"],
        notes=["paper: ADAPT 38% communication, Cray 48%, Intel/tuned >80%"],
    )
    for job, res in zip(cells, sweep(cells, n_jobs=n_jobs, cache=cache)):
        result.add(
            job.library,
            round(res.communication_time, 4),
            round(res.total_runtime, 4),
            round(res.communication_fraction, 3),
        )
    return result


def _lowest_total(res: ExperimentResult) -> None:
    total = {r[0]: r[2] for r in res.rows}
    assert total["OMPI-adapt"] <= min(total.values()) * 1.02, total


def _smallest_share(res: ExperimentResult) -> None:
    frac = {r[0]: r[3] for r in res.rows}
    assert frac["OMPI-adapt"] <= min(frac.values()) + 1e-9, frac


def _tuned_mostly_communicates(res: ExperimentResult) -> None:
    frac = {r[0]: r[3] for r in res.rows}
    assert frac["OMPI-default"] > 0.5, frac


def _cray_in_between(res: ExperimentResult) -> None:
    frac = {r[0]: r[3] for r in res.rows}
    # The paper's ordering.
    assert frac["OMPI-adapt"] < frac["Cray MPI"] < frac["OMPI-default"], frac


CLAIMS = (
    Claim("table1: ADAPT lowest total runtime", _lowest_total),
    Claim("table1: ADAPT smallest communication share", _smallest_share),
    Claim("table1: OMPI-default communicates over half the runtime",
          _tuned_mostly_communicates),
    Claim("table1: Cray's communication share between ADAPT's and "
          "OMPI-default's", _cray_in_between),
)
