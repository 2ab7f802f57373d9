"""Figure 9 — end-to-end broadcast/reduce vs message size (Section 5.2.1).

Message-size sweep at fixed process count: Figure 9a on Cori compares
{Cray MPI, Intel MPI, OMPI-default, OMPI-adapt}; Figure 9b on Stampede2
swaps Cray for MVAPICH (fabric support, as in the paper).

Shape claims (:data:`CLAIMS`): at 4 MB ADAPT's broadcast wins on both machines by a
large factor over OMPI-default (paper: 10x Cori / 2.8x Stampede2); the
OMPI-default decision-function switch is visible across 256 KB; ADAPT's
advantage grows with message size (pipeline criteria of the paper's Hockney
analysis); and on Stampede2 Intel's reduce beats ADAPT's while on Cori it
does not.
"""

from __future__ import annotations

from repro.harness.experiments.common import (
    SCALES,
    Claim,
    ExperimentResult,
    fmt_bytes,
    machine_nodes,
    machine_spec,
    sweep,
)
from repro.parallel import SimJob

SIZES = [64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20]
SMALL = 64 << 10
LARGE = 4 << 20


def libraries(machine: str) -> list[str]:
    if machine == "cori":
        return ["Cray MPI", "Intel MPI", "OMPI-default", "OMPI-adapt"]
    return ["MVAPICH", "Intel MPI", "OMPI-default", "OMPI-adapt"]


def jobs(
    machine: str = "cori",
    scale: str = "small",
    operation: str = "bcast",
    sizes: list[int] | None = None,
) -> list[SimJob]:
    """The sweep grid as independent cells, in table-row order."""
    nodes = machine_nodes(machine, scale)
    iters = max(3, SCALES[scale]["iters"] // 4)
    return [
        SimJob(
            machine=machine,
            nodes=nodes,
            library=lib,
            operation=operation,
            nbytes=nbytes,
            iterations=iters,
        )
        for nbytes in (sizes or SIZES)
        for lib in libraries(machine)
    ]


def run(
    machine: str = "cori",
    scale: str = "small",
    operation: str = "bcast",
    sizes: list[int] | None = None,
    *,
    n_jobs: int | None = None,
    cache=None,
) -> ExperimentResult:
    cells = jobs(machine, scale, operation, sizes)
    nranks = machine_spec(machine, scale).total_cores
    result = ExperimentResult(
        experiment="Figure 9" + ("a" if machine == "cori" else "b"),
        title=f"{operation} vs message size, {machine}, {nranks} ranks",
        headers=["library", "nbytes", "size", "mean_ms"],
    )
    for job, r in zip(cells, sweep(cells, n_jobs=n_jobs, cache=cache)):
        result.add(
            job.library, job.nbytes, fmt_bytes(job.nbytes),
            round(r.mean_time * 1e3, 3),
        )
    return result


def _at(res: ExperimentResult, nbytes: int) -> dict[str, float]:
    return {r[0]: r[3] for r in res.lookup(nbytes=nbytes)}


def _adapt_fastest(res: ExperimentResult) -> None:
    at_large = _at(res, LARGE)
    assert at_large["OMPI-adapt"] <= min(at_large.values()) * 1.02, at_large


def _default_trails_2x(res: ExperimentResult) -> None:
    at_large = _at(res, LARGE)
    assert at_large["OMPI-default"] > 2.0 * at_large["OMPI-adapt"], at_large


def _gain_grows(res: ExperimentResult) -> None:
    at_small, at_large = _at(res, SMALL), _at(res, LARGE)
    # The pipeline criterion: ADAPT's edge over OMPI-default grows with size.
    gain_small = at_small["OMPI-default"] / at_small["OMPI-adapt"]
    gain_large = at_large["OMPI-default"] / at_large["OMPI-adapt"]
    assert gain_large > gain_small, (gain_small, gain_large)


def _intel_reduce_wins(res: ExperimentResult) -> None:
    at_large = _at(res, LARGE)
    # Intel (Shumilin) takes reduce on Stampede2 (paper Section 5.2.1).
    assert at_large["Intel MPI"] < at_large["OMPI-adapt"], at_large


def _claims(machine: str) -> tuple[Claim, ...]:
    bcast = {"machine": machine, "operation": "bcast"}
    reduce_ = {"machine": machine, "operation": "reduce"}
    return (
        Claim(f"fig9 {machine} bcast: ADAPT fastest at 4 MB", _adapt_fastest,
              bcast),
        Claim(f"fig9 {machine} bcast: OMPI-default over 2x slower than ADAPT "
              "at 4 MB", _default_trails_2x, bcast),
        Claim(f"fig9 {machine} bcast: ADAPT's gain over OMPI-default grows "
              "with size", _gain_grows, bcast),
        Claim(f"fig9 {machine} reduce: OMPI-default over 2x slower than ADAPT "
              "at 4 MB", _default_trails_2x, reduce_),
        # ADAPT's reduce wins on Cori (paper: 5x/2x/1.5x over the others).
        Claim("fig9 cori reduce: ADAPT fastest at 4 MB", _adapt_fastest,
              reduce_)
        if machine == "cori" else
        Claim("fig9 stampede2 reduce: Intel MPI beats ADAPT at 4 MB",
              _intel_reduce_wins, reduce_),
    )


CLAIMS = _claims("cori") + _claims("stampede2")
