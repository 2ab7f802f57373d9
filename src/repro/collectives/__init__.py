"""Collective communication frameworks.

Three implementations of the same tree-based pipelined collectives, matching
the paper's Algorithms 1-3:

* :mod:`repro.collectives.blocking` — blocking P2P (Figure 1): every send and
  recv completes before the next is posted. Synchronization dependencies
  order all children and all segments.
* :mod:`repro.collectives.nonblocking` — non-blocking P2P + ``Waitall``
  (Figure 3): children progress concurrently within a segment, but the
  ``Waitall`` re-synchronizes every segment boundary.
* :mod:`repro.collectives.adapt` — **ADAPT** (Figure 4): completion callbacks
  post follow-on operations; only true data dependencies remain. Per child,
  ``N`` sends are in flight; ``M > N`` recvs are pre-posted.

Plus the classic algorithms the comparison libraries use
(:mod:`repro.collectives.classic`), the Section 3.1 multi-communicator
hierarchical composition (:mod:`repro.collectives.hierarchical`), an
Open MPI ``tuned``-style decision function (:mod:`repro.collectives.tuned`),
and the bounded-staleness quorum collectives
(:mod:`repro.collectives.quorum`).
"""

from repro import on_first_use
from repro.collectives.base import CollectiveHandle, CollectiveContext
from repro.collectives.models import (
    ADAPT_COLLECTIVES,
    COLLECTIVES,
    VERIFY_MODELS,
    AdaptCollective,
    VerifySpec,
)

__all__ = [
    "ADAPT_COLLECTIVES",
    "COLLECTIVES",
    "AdaptCollective",
    "VERIFY_MODELS",
    "VerifySpec",
    "CollectiveHandle",
    "CollectiveContext",
    "bcast_blocking",
    "reduce_blocking",
    "bcast_nonblocking",
    "reduce_nonblocking",
    "bcast_adapt",
    "reduce_adapt",
    "bcast_scatter_allgather",
    "reduce_rabenseifner",
    "reduce_shumilin",
    "bcast_hierarchical",
    "reduce_hierarchical",
    "HierarchicalBcast",
    "HierarchicalReduce",
    "bcast_tuned",
    "reduce_tuned",
    "scatter_adapt",
    "gather_adapt",
    "allreduce_adapt",
    "barrier_adapt",
    "allgather_adapt",
    "reduce_scatter_adapt",
    "alltoall_adapt",
    "bcast_quorum",
    "reduce_quorum",
    "allreduce_quorum",
]

#: Served on first use: a run loads only the algorithms it launches.
__getattr__ = on_first_use(__name__, {
    "bcast_blocking": "blocking",
    "reduce_blocking": "blocking",
    "bcast_nonblocking": "nonblocking",
    "reduce_nonblocking": "nonblocking",
    "bcast_adapt": "adapt",
    "reduce_adapt": "adapt",
    "bcast_scatter_allgather": "classic",
    "reduce_rabenseifner": "classic",
    "reduce_shumilin": "classic",
    "bcast_hierarchical": "hierarchical",
    "reduce_hierarchical": "hierarchical",
    "HierarchicalBcast": "hierarchical",
    "HierarchicalReduce": "hierarchical",
    "bcast_tuned": "tuned",
    "reduce_tuned": "tuned",
    "scatter_adapt": "extensions",
    "gather_adapt": "extensions",
    "allreduce_adapt": "extensions",
    "barrier_adapt": "extensions",
    "allgather_adapt": "extensions_allgather",
    "reduce_scatter_adapt": "extensions_allgather",
    "alltoall_adapt": "extensions_alltoall",
    "bcast_quorum": "quorum",
    "reduce_quorum": "quorum",
    "allreduce_quorum": "quorum",
})
