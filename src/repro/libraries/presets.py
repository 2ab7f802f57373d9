"""Library models.

The paper compares ADAPT against Intel MPI, Cray MPI, MVAPICH2 and Open MPI's
default ``tuned`` module. The proprietary ones cannot be cloned; each is
modelled as the algorithm family it documents/is known to use, running on the
same simulated substrate (DESIGN.md's substitution table). The models are:

* **ompi_adapt** — the paper's system: event-driven framework + single
  topology-aware tree (chain at every level, Section 5.2.1); on GPU worlds,
  explicit CPU-buffer staging on node leaders and GPU-offloaded reduction.
* **ompi_default** — Open MPI ``tuned``: non-blocking + Waitall with the
  fixed decision function (algorithm switch visible at 256 KB in Figure 9a);
  not topology-aware.
* **ompi_default_topo** — the paper's own control (Figures 8): the default
  non-blocking framework given ADAPT's topology-aware tree, isolating the
  event-driven contribution from the tree's.
* **intel_mpi** — hierarchical SHM-based collectives (Section 3.1 style);
  reduce uses the vectorized Shumilin model.
* **cray_mpi** — blocking segmented binomial (Cray MPICH heritage): good
  uncontended performance, heavy synchronization dependencies.
* **mvapich** — scatter-allgather broadcast for large messages and blocking
  binomial reduce; the ring phase's P-1 synchronous steps make it the most
  noise-sensitive model, matching its 868% slowdown in Figure 7b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro import collectives
from repro.collectives.base import CollectiveContext, CollectiveHandle
from repro.collectives.models import COLLECTIVES
from repro.machine.spec import CommLevel
from repro.mpi.communicator import Communicator
from repro.mpi.ops import SUM, ReduceOp
from repro.relaxed.policy import QuorumPolicy
from repro.trees.base import Tree
from repro.trees.builders import binomial_tree
from repro.trees.topo_tree import topology_aware_tree


class PreparedCollective:
    """One collective operation, prepared but not yet launched.

    ``launch(ranks)`` starts the given communicator-local ranks (all by
    default); repeated calls with different ranks join the same operation —
    the mechanism the IMB-style runner uses to let each rank enter iteration
    i+1 the moment it finishes iteration i. ``chain_ranks`` restricts which
    ranks are self-starting (hierarchical algorithms launch the rest
    internally at phase boundaries).
    """

    def __init__(self, launch_fn: Callable, chain_ranks: Optional[set[int]] = None):
        self._launch_fn = launch_fn
        self.handle: Optional[CollectiveHandle] = None
        self.chain_ranks = chain_ranks

    def launch(self, ranks=None) -> CollectiveHandle:
        self.handle = self._launch_fn(self.handle, ranks)
        return self.handle


@dataclass(frozen=True)
class LibraryModel:
    """One library's bcast/reduce behaviour. Calling ``bcast``/``reduce``
    returns a :class:`PreparedCollective`."""

    name: str
    bcast: Callable[..., PreparedCollective]
    reduce: Callable[..., PreparedCollective]


def _prepared(fn: Callable, ctx: CollectiveContext, **fnkw) -> PreparedCollective:
    return PreparedCollective(
        lambda handle, ranks: fn(ctx, handle=handle, ranks=ranks, **fnkw)
    )


def _topo_tree(comm: Communicator, root: int) -> Tree:
    return topology_aware_tree(comm.world.topology, list(comm.ranks), root)


def _staging_ranks(comm: Communicator, tree: Tree, root: int) -> set[int]:
    """Node leaders (tree members whose parent edge crosses nodes) + root —
    the ranks that cache GPU segments in an explicit CPU buffer (Section 4.1)."""
    topo = comm.world.topology
    staged = {root}
    for local in range(comm.size):
        p = tree.parent[local]
        if p is not None and topo.level(
            comm.world_rank(local), comm.world_rank(p)
        ) == CommLevel.INTER_NODE:
            staged.add(local)
    return staged


# -- OMPI-adapt -----------------------------------------------------------------


def _adapt_bcast(comm, root, nbytes, config, data=None, **kw):
    tree = _topo_tree(comm, root)
    staging: set[int] = set()
    if comm.world.gpu_bound:
        staging = _staging_ranks(comm, tree, root)
    ctx = CollectiveContext(comm, root, nbytes, config, tree=tree, data=data,
                            host_staging=staging)
    return _prepared(collectives.bcast_adapt, ctx)


def _adapt_reduce(comm, root, nbytes, config, data=None, op: ReduceOp = SUM, **kw):
    tree = _topo_tree(comm, root)
    ctx = CollectiveContext(
        comm, root, nbytes, config, tree=tree, data=data, op=op,
        reduce_on_gpu=comm.world.gpu_bound,
    )
    return _prepared(collectives.reduce_adapt, ctx)


def ompi_adapt() -> LibraryModel:
    return LibraryModel("OMPI-adapt", _adapt_bcast, _adapt_reduce)


# -- OMPI-default (tuned) ----------------------------------------------------------


def _tuned_bcast(comm, root, nbytes, config, data=None, **kw):
    return _prepared(collectives.bcast_tuned,
                     CollectiveContext(comm, root, nbytes, config, data=data))


def _tuned_reduce(comm, root, nbytes, config, data=None, op: ReduceOp = SUM, **kw):
    return _prepared(collectives.reduce_tuned,
                     CollectiveContext(comm, root, nbytes, config, data=data, op=op))


def ompi_default() -> LibraryModel:
    return LibraryModel("OMPI-default", _tuned_bcast, _tuned_reduce)


# -- OMPI-default-topo (control: default framework + ADAPT's tree) -------------------


def _default_topo_bcast(comm, root, nbytes, config, data=None, **kw):
    ctx = CollectiveContext(comm, root, nbytes, config,
                            tree=_topo_tree(comm, root), data=data)
    return _prepared(collectives.bcast_nonblocking, ctx)


def _default_topo_reduce(comm, root, nbytes, config, data=None, op: ReduceOp = SUM, **kw):
    ctx = CollectiveContext(
        comm, root, nbytes, config, tree=_topo_tree(comm, root), data=data, op=op
    )
    return _prepared(collectives.reduce_nonblocking, ctx)


def ompi_default_topo() -> LibraryModel:
    return LibraryModel("OMPI-default-topo", _default_topo_bcast, _default_topo_reduce)


# -- Intel MPI ------------------------------------------------------------------------


def _intel_bcast(comm, root, nbytes, config, data=None, **kw):
    ctx = CollectiveContext(comm, root, nbytes, config, data=data)
    hb = collectives.HierarchicalBcast(ctx, outer="binomial", inner="knomial4",
                                       name="Intel-SHM-knomial")
    return PreparedCollective(lambda handle, ranks: hb.launch(ranks),
                              chain_ranks=hb.chain_ranks)


def _intel_reduce(comm, root, nbytes, config, data=None, op: ReduceOp = SUM, **kw):
    ctx = CollectiveContext(comm, root, nbytes, config, data=data, op=op)
    # Intel MPI picks per-fabric defaults: on Omni-Path machines it uses the
    # Shumilin algorithm (whose vectorized arithmetic + OPA-tuned P2P beat
    # ADAPT's reduce on Stampede2, Section 5.1.2); elsewhere the SHM-based
    # hierarchical reduce.
    if comm.world.spec.name == "stampede2":
        return _prepared(collectives.reduce_shumilin, ctx)
    hr = collectives.HierarchicalReduce(ctx, outer="binomial", inner="knomial4",
                                        name="Intel-SHM-knomial")
    return PreparedCollective(lambda handle, ranks: hr.launch(ranks),
                              chain_ranks=hr.chain_ranks)


def intel_mpi() -> LibraryModel:
    return LibraryModel("Intel MPI", _intel_bcast, _intel_reduce)


# -- Cray MPI ----------------------------------------------------------------------------


def _cray_bcast(comm, root, nbytes, config, data=None, **kw):
    tree = binomial_tree(comm.size).reroot_relabelled(root)
    ctx = CollectiveContext(comm, root, nbytes, config, tree=tree, data=data)
    return _prepared(collectives.bcast_blocking, ctx)


def _cray_reduce(comm, root, nbytes, config, data=None, op: ReduceOp = SUM, **kw):
    tree = binomial_tree(comm.size).reroot_relabelled(root)
    ctx = CollectiveContext(comm, root, nbytes, config, tree=tree, data=data, op=op)
    return _prepared(collectives.reduce_blocking, ctx)


def cray_mpi() -> LibraryModel:
    return LibraryModel("Cray MPI", _cray_bcast, _cray_reduce)


# -- MVAPICH -----------------------------------------------------------------------------


def _mvapich_bcast(comm, root, nbytes, config, data=None, **kw):
    if nbytes > 64 * 1024 and comm.size > 2:
        ctx = CollectiveContext(comm, root, nbytes, config, data=data)
        return _prepared(collectives.bcast_scatter_allgather, ctx)
    tree = binomial_tree(comm.size).reroot_relabelled(root)
    ctx = CollectiveContext(comm, root, nbytes, config, tree=tree, data=data)
    return _prepared(collectives.bcast_blocking, ctx)


def _mvapich_reduce(comm, root, nbytes, config, data=None, op: ReduceOp = SUM, **kw):
    tree = binomial_tree(comm.size).reroot_relabelled(root)
    ctx = CollectiveContext(comm, root, nbytes, config, tree=tree, data=data, op=op)
    return _prepared(collectives.reduce_blocking, ctx)


def mvapich() -> LibraryModel:
    return LibraryModel("MVAPICH", _mvapich_bcast, _mvapich_reduce)


# -- Intel topology-aware algorithm families (Figure 8 legends) ----------------------------


def intel_topo_bcast_variants() -> dict[str, Callable[..., CollectiveHandle]]:
    """The topology-aware broadcast algorithms of Intel MPI (Figure 8)."""

    def hier(outer: str, inner: str, label: str):
        def run(comm, root, nbytes, config, data=None, **kw):
            ctx = CollectiveContext(comm, root, nbytes, config, data=data)
            hb = collectives.HierarchicalBcast(ctx, outer=outer, inner=inner, name=label)
            return PreparedCollective(lambda handle, ranks: hb.launch(ranks),
                                      chain_ranks=hb.chain_ranks)

        return run

    def recursive_doubling(comm, root, nbytes, config, data=None, **kw):
        # Non-pipelined binomial: whole message per hop.
        tree = binomial_tree(comm.size).reroot_relabelled(root)
        cfg = config.with_(segment_size=max(nbytes, 1))
        ctx = CollectiveContext(comm, root, nbytes, cfg, tree=tree, data=data)
        return _prepared(collectives.bcast_nonblocking, ctx)

    return {
        "Intel-topo-binomial": hier("binomial", "binomial", "topo-binomial"),
        "Intel-topo-recursive_doubling": recursive_doubling,
        "Intel-topo-ring": hier("chain", "chain", "topo-ring"),
        "Intel-topo-SHM-flat": hier("binomial", "flat", "SHM-flat"),
        "Intel-topo-SHM-Knomial": hier("binomial", "knomial4", "SHM-knomial"),
        "Intel-topo-SHM-Knary": hier("binomial", "kary4", "SHM-knary"),
    }


def intel_topo_reduce_variants() -> dict[str, Callable[..., CollectiveHandle]]:
    """The topology-aware reduce algorithms of Intel MPI (Figure 8)."""

    def hier(outer: str, inner: str, label: str):
        def run(comm, root, nbytes, config, data=None, op: ReduceOp = SUM, **kw):
            ctx = CollectiveContext(comm, root, nbytes, config, data=data, op=op)
            hr = collectives.HierarchicalReduce(ctx, outer=outer, inner=inner, name=label)
            return PreparedCollective(lambda handle, ranks: hr.launch(ranks),
                                      chain_ranks=hr.chain_ranks)

        return run

    def shumilin(comm, root, nbytes, config, data=None, op: ReduceOp = SUM, **kw):
        ctx = CollectiveContext(comm, root, nbytes, config, data=data, op=op)
        return _prepared(collectives.reduce_shumilin, ctx)

    def rabenseifner(comm, root, nbytes, config, data=None, op: ReduceOp = SUM, **kw):
        ctx = CollectiveContext(comm, root, nbytes, config, data=data, op=op)
        return _prepared(collectives.reduce_rabenseifner, ctx)

    return {
        "Intel-topo-Shumilin": shumilin,
        "Intel-topo-binomial": hier("binomial", "binomial", "topo-binomial"),
        "Intel-topo-Rabenseifner": rabenseifner,
        "Intel-topo-SHM-flat": hier("binomial", "flat", "SHM-flat"),
        "Intel-topo-SHM-Knomial": hier("binomial", "knomial4", "SHM-knomial"),
        "Intel-topo-SHM-Knary": hier("binomial", "kary4", "SHM-knary"),
        "Intel-topo-SHM-binomial": hier("binomial", "binary", "SHM-binomial"),
    }


# -- full ADAPT operation coverage (DESIGN.md S20) ------------------------------------


def prepare_operation(
    library: LibraryModel, operation: str, *, recover: bool = False,
    policy: Optional[QuorumPolicy] = None,
):
    """Resolve (library, operation) to a prepare callable.

    Every operation is a row of :data:`~repro.collectives.models.COLLECTIVES`;
    this is the one place a name, ``recover`` and ``policy`` are checked
    against it, and it raises ``ValueError`` on an unknown operation.

    bcast/reduce without recovery go through the library model (the paper's
    comparison surface); every other operation — and any operation with
    ``recover=True`` — runs its table launcher, on the topology-aware tree
    when the row says so. The table launchers are ADAPT's, so any other
    library raises ``ValueError`` there rather than run ADAPT under its
    name. With ``recover``, the launch goes through
    :func:`repro.recovery.launch_recover`, which arms ULFM-style membership
    agreement and epoch-restart/in-place repair; recovery launches every
    rank up front, so per-rank iteration chaining degrades to a single
    launch.

    A quorum row (``*_quorum``, DESIGN.md S25) launches under ``policy``
    (default: full participation). Quorum completion already *is* a
    degraded-completion strategy, so ``recover=True`` is rejected for it,
    and a ``policy`` is rejected for an exact operation.
    """
    entry = COLLECTIVES.get(operation)
    if entry is None:
        raise ValueError(
            f"unknown operation {operation!r}; known: {list(COLLECTIVES)}"
        )
    if entry.relaxed and recover:
        raise ValueError(
            f"{operation!r} cannot combine with recover=True: quorum "
            "completion is itself the degraded-completion strategy "
            "(min_quorum is the floor that hands back to recovery semantics)"
        )
    if policy is not None and not entry.relaxed:
        raise ValueError(
            "a QuorumPolicy applies only to the *_quorum operations, "
            f"not {operation!r}"
        )
    if not recover:
        if operation == "bcast":
            return library.bcast
        if operation == "reduce":
            return library.reduce
    if library.name != "OMPI-adapt":
        raise ValueError(f"{library.name} implements only bcast and reduce without "
                         f"recovery; {operation!r} runs only under OMPI-adapt")
    launch_kw = {"policy": policy or QuorumPolicy()} if entry.relaxed else {}

    def prepare(comm, root, nbytes, config, data=None, op: ReduceOp = SUM, **kw):
        tree = _topo_tree(comm, root) if entry.tree else None
        ctx = CollectiveContext(
            comm, root, nbytes, config, tree=tree, data=data,
            op=op if entry.folds else None,
        )
        if not recover:
            return _prepared(entry.launch, ctx, **launch_kw)

        from repro.recovery import launch_recover

        def launch(handle, ranks):
            if handle is not None:
                return handle  # all ranks launched by the first call
            return launch_recover(operation, ctx)

        return PreparedCollective(launch)

    return prepare


_LIBRARIES = {
    "OMPI-adapt": ompi_adapt,
    "OMPI-default": ompi_default,
    "OMPI-default-topo": ompi_default_topo,
    "Intel MPI": intel_mpi,
    "Cray MPI": cray_mpi,
    "MVAPICH": mvapich,
}


def library_by_name(name: str) -> LibraryModel:
    try:
        return _LIBRARIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown library {name!r}; known: {sorted(_LIBRARIES)}"
        ) from None
