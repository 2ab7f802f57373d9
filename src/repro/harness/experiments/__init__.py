"""Per-figure experiment drivers and the registry the CLI is built from.

One module per table/figure of the paper's evaluation (Section 5); each
exposes ``run(scale=...)`` returning an :class:`ExperimentResult` whose
``table()`` prints the same rows/series the paper plots, and registers the
paper's *shape* claims over that result (who wins, rough factors,
crossovers) as :class:`Claim` objects beside ``run``.

:data:`EXPERIMENTS` is the one place an experiment is registered: the
``repro <name>`` subcommands, ``repro profile --experiment``, the
cross-worker determinism test and the registry loop
(``benchmarks/bench_experiments.py``) all iterate it. The loop runs each
entry once per knob set its claims name, checks every claim on the result,
and compares the printed table (and ``--json`` file) byte for byte against
a committed golden under ``benchmarks/goldens/``.

Scales (process counts chosen so a laptop regenerates every figure):

* ``small`` — minutes for the full suite; default for benches.
* ``medium`` — a few x larger; closer statistics.
* ``paper`` — the paper's process counts (1024/1536 ranks, 32 GPUs); hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.harness.experiments.common import SCALES, Claim, ExperimentResult
from repro.harness.experiments import (
    ablations,
    chaos,
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
    ``claims`` are the shape claims checked on the result.
    """

    help: str
    run: Callable[..., ExperimentResult]
    knobs: tuple[str, ...] = ()
    claims: tuple[Claim, ...] = ()

    def knob_sets(self) -> list[dict[str, str]]:
        """The driver knob sets the registry loop runs: each distinct set a
        claim names, in claim order; the driver defaults if none does."""
        sets: list[dict[str, str]] = []
        for claim in self.claims:
            if claim.knobs not in sets:
                sets.append(claim.knobs)
        return sets or [{}]


EXPERIMENTS: dict[str, Experiment] = {
    "fig7": Experiment("Figure 7: noise impact", fig07_noise.run,
                       ("machine",), fig07_noise.CLAIMS),
    "fig8": Experiment("Figure 8: topology-aware algorithms", fig08_topo.run,
                       ("machine", "operation"), fig08_topo.CLAIMS),
    "fig9": Experiment("Figure 9: end-to-end vs message size",
                       fig09_msgsize.run, ("machine", "operation", "chart"),
                       fig09_msgsize.CLAIMS),
    "fig10": Experiment("Figure 10: strong scaling", fig10_scaling.run,
                        claims=fig10_scaling.CLAIMS),
    "fig11a": Experiment("Figure 11a: GPU vs message size",
                         fig11_gpu.run_msgsize, claims=fig11_gpu.MSGSIZE_CLAIMS),
    "fig11b": Experiment("Figure 11b: GPU strong scaling",
                         fig11_gpu.run_scaling, claims=fig11_gpu.SCALING_CLAIMS),
    "table1": Experiment("Table 1: ASP application", table1_asp.run,
                         claims=table1_asp.CLAIMS),
    "figx": Experiment("Figure X (ours): collectives on a faulty fabric",
                       figx_faults.run, claims=figx_faults.CLAIMS),
    "figxr": Experiment(
        "Figure X-R (ours): live recovery across every ADAPT collective",
        figx_recovery.run, ("json",), figx_recovery.CLAIMS,
    ),
    "figxp": Experiment(
        "Figure X-P (ours): partition tolerance, heal time vs completion "
        "and false kills",
        figxp_partition.run, ("json",), figxp_partition.CLAIMS,
    ),
    "figq": Experiment(
        "Figure Q (ours): SGD staleness frontier — accuracy vs latency for "
        "the relaxed quorum collectives",
        figq_staleness.run, ("json",), figq_staleness.CLAIMS,
    ),
    "metrics": Experiment(
        "sync-wait/link/noise metrics of a noisy bcast, and critical paths",
        fig07_noise.run_metrics, ("json",), fig07_noise.METRICS_CLAIMS,
    ),
    "ablations": Experiment(
        "Ablations (ours): segment size, send window, GPU staging and "
        "offload, bandwidth robustness",
        ablations.run, claims=ablations.CLAIMS,
    ),
    "chaos": Experiment(
        "Chaos (ours): collectives on a faulty fabric — loss, kill, "
        "corruption, partition, stalls; or one cell: chaos OPERATION [flags]",
        chaos.run, claims=chaos.CLAIMS,
    ),
}

__all__ = [
    "Claim",
    "DRIVER_KNOBS",
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "SCALES",
    "ablations",
    "chaos",
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
