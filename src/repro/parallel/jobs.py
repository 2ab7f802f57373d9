"""Sweep decomposition: one simulation cell as pure, picklable config.

A :class:`SimJob` is everything needed to run one measurement — a
``run_collective`` call (``kind="collective"``), a ``run_asp`` call
(``kind="asp"``) or a ``run_sgd`` call (``kind="sgd"``) — expressed as
plain data: machine *names*, library *names*, algorithm-variant *names*,
and a frozen :class:`FaultPlan`. :data:`READS` is the one statement of
which fields each kind passes to its runner, and under which keyword;
``execute_job`` builds its call from it, and a field outside it (and
outside :data:`WORLD_FIELDS`) must keep its default. No live objects
cross the process boundary; the worker rebuilds the simulated world from
the job alone, which is also what makes the job content-addressable (the
cache key is a hash of this config plus the package's source, see
:mod:`repro.parallel.cache`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import Optional, Union

from repro.faults.plan import FaultPlan
from repro.relaxed.policy import QuorumPolicy

#: Algorithm-variant families resolvable by name in the worker
#: (fig08 sweeps Intel's per-algorithm topology-aware variants).
ALGO_FAMILIES = ("intel-topo-bcast", "intel-topo-reduce")

#: The fields every kind reads: they pick the machine and the world size.
WORLD_FIELDS = ("kind", "machine", "nodes", "nranks")

#: Noise, faults, sanitizer, deadline and quorum policy: the collective and
#: sgd kinds both pass these on under the same names.
_SHARED = (
    "noise_percent", "noise_ranks", "noise_frequency", "seed", "fault_plan",
    "sanitize", "time_limit", "quorum",
)

#: Per kind, each field its runner reads -> the runner keyword it becomes.
#: The sgd kind always runs an OMPI-adapt allreduce (exact, or quorum under
#: ``quorum``); ``algo_family``/``algo_variant`` resolve to one
#: ``custom_algorithm`` in the worker.
READS: dict[str, dict[str, str]] = {
    "collective": {
        **{f: f for f in (
            "library", "operation", "nbytes", "iterations", "mode", "gpu",
            "observe", "recover", *_SHARED,
        )},
        "algo_family": "custom_algorithm",
        "algo_variant": "custom_algorithm",
    },
    "asp": {f: f for f in (
        "library", "iterations", "row_bytes", "compute_per_iteration",
    )},
    "sgd": {
        **{f: f for f in _SHARED},
        "iterations": "epochs",
        "nbytes": "grad_bytes",
        "compute_per_iteration": "compute_per_epoch",
    },
}


@dataclass(frozen=True)
class SimJob:
    """One independent cell of a parameter sweep."""

    kind: str = "collective"  # "collective" | "asp" | "sgd"
    machine: str = "cori"  # preset name: cori | stampede2 | psg | testbox
    nodes: Optional[int] = None  # None = the preset's default node count
    nranks: Optional[int] = None  # None = presets.default_nranks
    library: str = "OMPI-adapt"
    operation: str = "bcast"
    nbytes: int = 4 << 20
    iterations: int = 3
    mode: str = "imb"
    noise_percent: float = 0.0
    noise_ranks: Union[str, tuple[int, ...]] = "per-node"
    noise_frequency: float = 10.0
    seed: int = 0
    gpu: bool = False
    algo_family: Optional[str] = None  # one of ALGO_FAMILIES
    algo_variant: Optional[str] = None  # variant name within the family
    fault_plan: Optional[FaultPlan] = None
    sanitize: bool = False
    time_limit: Optional[float] = None
    # Live recovery (repro.recovery): membership agreement + repair/restart.
    recover: bool = False
    # Observability: None (off), "metrics" (result.metrics only), or
    # "trace" (metrics + the full span dump for the Chrome exporter).
    observe: Optional[str] = None
    # ASP knobs; the sgd kind reads ``compute_per_iteration`` as per-epoch
    # compute (see READS for every kind's fields).
    row_bytes: int = 1 << 20
    compute_per_iteration: float = 1.57e-3
    # Relaxed quorum collectives (DESIGN.md S25): the policy a ``*_quorum``
    # operation completes under (None: full participation); for the sgd
    # kind, None runs the exact gradient allreduce and a policy relaxes it.
    quorum: Optional[QuorumPolicy] = None

    def __post_init__(self) -> None:
        if self.kind not in READS:
            raise ValueError(f"unknown job kind {self.kind!r}")
        if self.nranks is not None and self.nranks < 1:
            raise ValueError(f"nranks must be at least 1 (got {self.nranks})")
        if self.iterations < 1:
            raise ValueError(f"iterations must be at least 1 (got {self.iterations})")
        if self.algo_family is not None and self.algo_family not in ALGO_FAMILIES:
            raise ValueError(f"unknown algo family {self.algo_family!r}")
        if self.observe not in (None, "metrics", "trace"):
            raise ValueError(f"unknown observe mode {self.observe!r}")
        if (self.algo_family is None) != (self.algo_variant is None):
            raise ValueError("algo_family and algo_variant must be set together")
        # A field the kind's runner never reads must stay at its default:
        # silently dropping it would run (and cache) a different experiment.
        reads = READS[self.kind]
        for f in fields(self):
            if f.name in WORLD_FIELDS or f.name in reads:
                continue
            value = getattr(self, f.name)
            if value != f.default:
                raise ValueError(
                    f"{self.kind} jobs do not read {f.name!r} (got {value!r})"
                )
        # Tuples keep the config canonical (lists would hash differently).
        if isinstance(self.noise_ranks, list):
            object.__setattr__(self, "noise_ranks", tuple(self.noise_ranks))

    def payload(self) -> dict:
        """Canonical JSON-able description — the content that is addressed
        (``asdict`` recurses into the fault plan and the quorum policy)."""
        return asdict(self)

    def cache_key(self) -> str:
        """Content hash of this job's config: equal configs collide, any
        field changing yields a fresh key. :class:`ResultCache` mixes in
        the source hash, so a stored result never outlives its code."""
        blob = json.dumps(self.payload(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()
