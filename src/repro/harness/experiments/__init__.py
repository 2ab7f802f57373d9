"""Per-figure experiment drivers.

One module per table/figure of the paper's evaluation (Section 5); each
exposes ``run(scale=...)`` returning an :class:`ExperimentResult` whose
``table()`` prints the same rows/series the paper plots. The benches under
``benchmarks/`` call these and assert the paper's *shape* claims (who wins,
rough factors, crossovers).

Scales (process counts chosen so a laptop regenerates every figure):

* ``small`` — minutes for the full suite; default for benches.
* ``medium`` — a few x larger; closer statistics.
* ``paper`` — the paper's process counts (1024/1536 ranks, 32 GPUs); hours.
"""

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

__all__ = [
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
