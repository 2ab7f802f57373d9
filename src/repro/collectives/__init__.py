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

from repro.collectives.base import CollectiveHandle, CollectiveContext
from repro.collectives.blocking import bcast_blocking, reduce_blocking
from repro.collectives.nonblocking import bcast_nonblocking, reduce_nonblocking
from repro.collectives.adapt import bcast_adapt, reduce_adapt
from repro.collectives.classic import (
    bcast_scatter_allgather,
    reduce_rabenseifner,
    reduce_shumilin,
)
from repro.collectives.hierarchical import bcast_hierarchical, reduce_hierarchical
from repro.collectives.tuned import bcast_tuned, reduce_tuned
from repro.collectives.extensions import (
    allreduce_adapt,
    barrier_adapt,
    gather_adapt,
    scatter_adapt,
)
from repro.collectives.extensions_allgather import (
    allgather_adapt,
    reduce_scatter_adapt,
)
from repro.collectives.extensions_alltoall import alltoall_adapt
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
    "bcast_tuned",
    "reduce_tuned",
    "scatter_adapt",
    "gather_adapt",
    "allreduce_adapt",
    "barrier_adapt",
    "allgather_adapt",
    "reduce_scatter_adapt",
    "alltoall_adapt",
]
