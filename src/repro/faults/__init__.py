"""Fault injection and failure detection (DESIGN.md S17).

Deterministic, seeded fault workloads for the simulated machine: fail-stop
crashes, rank stalls, lossy/duplicating links, and bandwidth flapping —
plus the timeout-based failure detector that surfaces crashes to the
collectives layer. The injection design mirrors :mod:`repro.noise`: a
declarative plan, an injector armed over an explicit horizon, and a seeded
generator so identical seeds give byte-identical fault timelines.
"""

from repro import on_first_use
from repro.faults.plan import (
    FaultPlan,
    FlapSpec,
    KillSpec,
    LossSpec,
    PartitionSpec,
    StallSpec,
)

__all__ = [
    "FailureDetector",
    "FabricFaults",
    "FaultInjector",
    "FaultPlan",
    "FlapSpec",
    "KillSpec",
    "LossSpec",
    "PartitionSpec",
    "StallSpec",
]

#: Served on first use: only a faulted run builds an injector, and only
#: kills, partitions and adaptive plans build a detector.
__getattr__ = on_first_use(__name__, {
    "FabricFaults": "injector",
    "FaultInjector": "injector",
    "FailureDetector": "detector",
})
