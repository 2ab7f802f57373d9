"""Per-figure experiment drivers and the registry the CLI is built from.

One module per table/figure of the paper's evaluation (Section 5); each
exposes ``run(scale=...)`` returning an :class:`ExperimentResult` whose
``table()`` prints the same rows/series the paper plots. The benches under
``benchmarks/`` call these and assert the paper's *shape* claims (who wins,
rough factors, crossovers).

:data:`EXPERIMENTS` is the one place an experiment is registered: the
``repro <name>`` subcommands, ``repro profile --experiment``, the
cross-worker determinism test and the CI figures loop all iterate it.

Scales (process counts chosen so a laptop regenerates every figure):

* ``small`` — minutes for the full suite; default for benches.
* ``medium`` — a few x larger; closer statistics.
* ``paper`` — the paper's process counts (1024/1536 ranks, 32 GPUs); hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.harness.experiments.common import ExperimentResult, SCALES
from repro.harness.experiments import (
    fig07_noise,
    fig08_topo,
    fig09_msgsize,
    fig10_scaling,
    fig11_gpu,
    figq_staleness,
    figx_faults,
    figx_recovery,
    figxp_partition,
    table1_asp,
)

#: Knobs passed through to the driver; an entry's other knobs (``chart``,
#: ``json``) only shape the CLI's output.
DRIVER_KNOBS = ("machine", "operation")


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: ``repro <name>`` calls
    ``run(scale=..., n_jobs=..., cache=..., **driver knobs)``.

    ``knobs`` are drawn from ``machine`` (cori/stampede2), ``operation``
    (bcast/reduce), ``chart`` and ``json``, in subcommand flag order.
    """

    help: str
    run: Callable[..., ExperimentResult]
    knobs: tuple[str, ...] = ()


EXPERIMENTS: dict[str, Experiment] = {
    "fig7": Experiment("Figure 7: noise impact", fig07_noise.run,
                       ("machine",)),
    "fig8": Experiment("Figure 8: topology-aware algorithms", fig08_topo.run,
                       ("machine", "operation")),
    "fig9": Experiment("Figure 9: end-to-end vs message size",
                       fig09_msgsize.run, ("machine", "operation", "chart")),
    "fig10": Experiment("Figure 10: strong scaling", fig10_scaling.run),
    "fig11a": Experiment("Figure 11a: GPU vs message size",
                         fig11_gpu.run_msgsize),
    "fig11b": Experiment("Figure 11b: GPU strong scaling",
                         fig11_gpu.run_scaling),
    "table1": Experiment("Table 1: ASP application", table1_asp.run),
    "figx": Experiment("Figure X (ours): collectives on a faulty fabric",
                       figx_faults.run),
    "figxr": Experiment(
        "Figure X-R (ours): live recovery across every ADAPT collective",
        figx_recovery.run, ("json",),
    ),
    "figxp": Experiment(
        "Figure X-P (ours): partition tolerance, heal time vs completion "
        "and false kills",
        figxp_partition.run, ("json",),
    ),
    "figq": Experiment(
        "Figure Q (ours): SGD staleness frontier — accuracy vs latency for "
        "the relaxed quorum collectives",
        figq_staleness.run, ("json",),
    ),
}

__all__ = [
    "DRIVER_KNOBS",
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "SCALES",
    "fig07_noise",
    "fig08_topo",
    "fig09_msgsize",
    "fig10_scaling",
    "fig11_gpu",
    "figq_staleness",
    "figx_faults",
    "figx_recovery",
    "figxp_partition",
    "table1_asp",
]
