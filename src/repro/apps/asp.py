"""ASP: all-pairs shortest paths by parallel Floyd-Warshall (paper Section 5.3).

The paper's application benchmark [30]: the distance matrix is distributed by
row blocks; at iteration ``k`` the owner of row ``k`` broadcasts it, then
every rank relaxes its rows (``d[i][j] = min(d[i][j], d[i][k] + d[k][j])``).
Communication is one broadcast per iteration with a rotating root, so the
broadcast implementation dominates the runtime (Table 1).

Two entry points:

* :func:`run_asp` — the performance experiment: iterations run through the
  harness's per-rank chain (a rank starts iteration k+1's broadcast as
  soon as it finished its iteration-k compute), reproducing Table 1's
  communication/total split. The problem is scaled down from the paper's
  256K (DESIGN.md documents the scaling); the per-iteration compute time is
  the workload constant the paper's Table 1 implies (total - communication
  is the same ~3.2 s for every library).
* :func:`asp_reference` — a real (non-simulated) Floyd-Warshall used by the
  tests to validate the algorithm the workload models.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from repro.config import DEFAULT_COLLECTIVE, CollectiveConfig
from repro.harness.runner import _build_world, _chain, _collector_paused
from repro.libraries.presets import LibraryModel, library_by_name
from repro.machine.spec import MachineSpec


@dataclass
class AspResult:
    """Timing split of one ASP run (one Table 1 column)."""

    library: str
    nranks: int
    iterations: int
    row_bytes: int
    total_runtime: float
    compute_time: float

    def to_dict(self) -> dict:
        """JSON-able form (the parallel executor's wire/cache format)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "AspResult":
        return cls(**d)

    @property
    def communication_time(self) -> float:
        return self.total_runtime - self.compute_time

    @property
    def communication_fraction(self) -> float:
        return self.communication_time / self.total_runtime


@_collector_paused
def run_asp(
    spec: MachineSpec,
    nranks: int,
    library: Union[LibraryModel, str],
    *,
    iterations: int = 48,
    row_bytes: int = 1 << 20,
    compute_per_iteration: float = 1.57e-3,
    config: CollectiveConfig = DEFAULT_COLLECTIVE,
) -> AspResult:
    """Run the ASP communication/compute pattern through the simulator.

    ``compute_per_iteration`` is each rank's relaxation time per iteration
    (the paper's Table 1 implies ~1.57 ms: every library's total minus
    communication is the same ~3.22 s over ~2048 iterations).
    """
    if isinstance(library, str):
        library = library_by_name(library)
    world, comm, injectors, deadline = _build_world(spec, nranks)
    rows_per_rank = max(1, iterations // nranks)

    def bcast_row(k: int):
        # Rotating root: the owner of row k broadcasts it.
        return library.bcast(comm, (k // rows_per_rank) % nranks, row_bytes, config)

    start = world.engine.now
    handles, _ = _chain(world, comm, bcast_row, iterations, injectors, deadline,
                        gap=compute_per_iteration)
    if handles[-1] is None or not handles[-1].done:  # pragma: no cover
        raise RuntimeError(f"ASP with {library.name} did not complete")
    total = world.engine.now - start
    return AspResult(
        library=library.name,
        nranks=nranks,
        iterations=iterations,
        row_bytes=row_bytes,
        total_runtime=total,
        compute_time=iterations * compute_per_iteration,
    )


def asp_reference(weights: np.ndarray) -> np.ndarray:
    """Sequential Floyd-Warshall (the numerics the workload stands for).

    ``weights[i, j]`` is the edge weight i->j (``inf`` when absent); returns
    the all-pairs shortest path matrix. Used by tests to pin the algorithm.
    """
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise ValueError(f"weights must be square, got {weights.shape}")
    dist = weights.astype(np.float64, copy=True)
    n = dist.shape[0]
    np.fill_diagonal(dist, np.minimum(np.diag(dist), 0.0))
    for k in range(n):
        # Vectorized relaxation: one broadcast row per iteration, exactly the
        # communication pattern run_asp models.
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    return dist
