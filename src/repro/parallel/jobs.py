"""Sweep decomposition: one simulation cell as pure, picklable config.

A :class:`SimJob` is everything needed to run one measurement — a
``run_collective`` call (``kind="collective"``), a ``run_asp`` call
(``kind="asp"``) or a ``run_sgd`` call (``kind="sgd"``) — expressed as
plain data: machine *names*, library *names*, algorithm-variant *names*,
and a frozen :class:`FaultPlan`. A field its kind never reads must keep
its default. No live objects cross the process boundary; the worker
rebuilds the simulated world from the job alone, which is also what makes
the job content-addressable (the cache key is a hash of this config plus the
package's source, see :mod:`repro.parallel.cache`).
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

#: Per kind, the fields ``execute_job`` never passes on (the sgd kind always
#: runs an OMPI-adapt allreduce, exact or quorum by ``quorum``).
_APP_UNREAD = ("observe", "recover", "gpu", "mode", "algo_family", "algo_variant")
_UNREAD = {
    "sgd": _APP_UNREAD + ("library", "operation"),
    "asp": _APP_UNREAD + (
        "noise_percent", "noise_ranks", "noise_frequency", "fault_plan",
        "sanitize", "time_limit", "quorum",
    ),
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
    # asp-only knobs (ignored for kind="collective"):
    row_bytes: int = 1 << 20
    compute_per_iteration: float = 1.57e-3
    # Relaxed quorum collectives (DESIGN.md S25): the policy a ``*_quorum``
    # operation completes under (None: full participation); for the sgd
    # kind, None runs the exact gradient allreduce and a policy relaxes it.
    # The sgd kind reuses ``iterations`` as epochs, ``nbytes`` as the
    # gradient size, and ``compute_per_iteration`` as per-epoch compute.
    quorum: Optional[QuorumPolicy] = None

    def __post_init__(self) -> None:
        if self.kind not in ("collective", "asp", "sgd"):
            raise ValueError(f"unknown job kind {self.kind!r}")
        if self.algo_family is not None and self.algo_family not in ALGO_FAMILIES:
            raise ValueError(f"unknown algo family {self.algo_family!r}")
        if self.observe not in (None, "metrics", "trace"):
            raise ValueError(f"unknown observe mode {self.observe!r}")
        if (self.algo_family is None) != (self.algo_variant is None):
            raise ValueError("algo_family and algo_variant must be set together")
        # A field the kind's runner never reads must stay at its default:
        # silently dropping it would run (and cache) a different experiment.
        unread = _UNREAD.get(self.kind, ())
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in unread and value != f.default:
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
