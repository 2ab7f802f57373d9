"""Figure 8 — topology-aware broadcast/reduce vs message size (Section 5.1.2).

Sweeps 64 KB - 4 MB and compares OMPI-adapt against every topology-aware
algorithm of Intel MPI (binomial, recursive doubling, ring, the SHM-based
family; Shumilin's and Rabenseifner's for reduce) plus OMPI-default-topo —
the paper's own control that isolates the event-driven framework from the
topology-aware tree.

Shape claims (:data:`CLAIMS`): for large messages (>= 1 MB) ADAPT's
broadcast is the fastest; ADAPT beats OMPI-default-topo by a clear margin
(~20% in the paper) despite using the identical tree; and on Stampede2
Shumilin's reduce beats ADAPT's (the vectorization story) while on Cori it
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
from repro.libraries.presets import (
    intel_topo_bcast_variants,
    intel_topo_reduce_variants,
)
from repro.parallel import SimJob

SIZES = [64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20]
LARGE = 4 << 20


def jobs(
    machine: str = "cori",
    scale: str = "small",
    operation: str = "bcast",
    sizes: list[int] | None = None,
) -> list[SimJob]:
    """The sweep grid as independent cells, in table-row order.

    Intel's per-algorithm variants travel by *name* (family + variant);
    the worker resolves the actual schedule function, so the cells stay
    pure config.
    """
    nodes = machine_nodes(machine, scale)
    iters = max(3, SCALES[scale]["iters"] // 4)
    family = f"intel-topo-{operation}"
    variants = (
        intel_topo_bcast_variants() if operation == "bcast"
        else intel_topo_reduce_variants()
    )
    cells = []
    for nbytes in sizes or SIZES:
        for name in variants:
            cells.append(SimJob(
                machine=machine, nodes=nodes, library="Intel MPI",
                operation=operation, nbytes=nbytes, iterations=iters,
                algo_family=family, algo_variant=name, observe="metrics",
            ))
        for lib in ("OMPI-default-topo", "OMPI-adapt"):
            cells.append(SimJob(
                machine=machine, nodes=nodes, library=lib,
                operation=operation, nbytes=nbytes, iterations=iters,
                observe="metrics",
            ))
    return cells


def run(
    machine: str = "cori",
    scale: str = "small",
    operation: str = "bcast",
    sizes: list[int] | None = None,
    *,
    n_jobs: int | None = None,
    cache=None,
) -> ExperimentResult:
    nranks = machine_spec(machine, scale).total_cores
    cells = jobs(machine, scale, operation, sizes)
    result = ExperimentResult(
        experiment="Figure 8" + ("a" if machine == "cori" else "b"),
        title=f"topology-aware {operation} vs message size, {machine}, {nranks} ranks",
        headers=["algorithm", "nbytes", "size", "mean_ms", "peak_link_util%"],
    )
    for job, r in zip(cells, sweep(cells, n_jobs=n_jobs, cache=cache)):
        name = job.algo_variant if job.algo_variant is not None else job.library
        # Peak per-link busy fraction: how hard the schedule drives its
        # most-loaded wire (the topology-awareness signal — oversubscribed
        # trees saturate one uplink while the good ones spread the load).
        m = r.metrics or {}
        peak = max(
            (link["busy_fraction"] for link in m.get("links", [])),
            default=0.0,
        )
        result.add(name, job.nbytes, fmt_bytes(job.nbytes),
                   round(r.mean_time * 1e3, 3), round(100.0 * peak, 1))
    return result


def _at_large(res: ExperimentResult) -> dict[str, float]:
    return {r[0]: r[3] for r in res.lookup(nbytes=LARGE)}


def _adapt_fastest(res: ExperimentResult) -> None:
    at_large = _at_large(res)
    # ADAPT's topology-aware broadcast is the fastest at 4 MB.
    assert at_large["OMPI-adapt"] <= min(at_large.values()) * 1.02, at_large


def _adapt_beats_same_tree(res: ExperimentResult) -> None:
    at_large = _at_large(res)
    # ADAPT beats the same tree driven by the Waitall framework (paper: ~20%).
    assert at_large["OMPI-default-topo"] > at_large["OMPI-adapt"] * 1.05, at_large


def _adapt_beats_intel_but_shumilin(res: ExperimentResult) -> None:
    at_large = _at_large(res)
    adapt = at_large["OMPI-adapt"]
    others = {
        k: v for k, v in at_large.items()
        if k not in ("OMPI-adapt", "Intel-topo-Shumilin", "OMPI-default-topo")
    }
    # ADAPT beats every Intel topo reduce except (possibly) Shumilin's
    # (paper Section 5.1.2).
    assert adapt <= min(others.values()), (adapt, others)


def _shumilin_beats_adapt(res: ExperimentResult) -> None:
    at_large = _at_large(res)
    shumilin, adapt = at_large["Intel-topo-Shumilin"], at_large["OMPI-adapt"]
    # The vectorized Shumilin reduce wins on Omni-Path (paper's crossover).
    assert shumilin < adapt, (shumilin, adapt)


def _claims(machine: str) -> tuple[Claim, ...]:
    bcast = {"machine": machine, "operation": "bcast"}
    reduce_ = {"machine": machine, "operation": "reduce"}
    claims: tuple[Claim, ...] = (
        Claim(f"fig8 {machine} bcast: ADAPT fastest at 4 MB", _adapt_fastest,
              bcast),
        Claim(f"fig8 {machine} bcast: ADAPT over 5% faster than "
              "OMPI-default-topo's same tree at 4 MB", _adapt_beats_same_tree,
              bcast),
        Claim(f"fig8 {machine} reduce: ADAPT beats every Intel topo reduce "
              "but Shumilin's at 4 MB", _adapt_beats_intel_but_shumilin,
              reduce_),
    )
    if machine == "stampede2":
        claims += (Claim("fig8 stampede2 reduce: Shumilin's reduce beats ADAPT "
                         "at 4 MB", _shumilin_beats_adapt, reduce_),)
    return claims


CLAIMS = _claims("cori") + _claims("stampede2")
