"""Blocking P2P collectives — the paper's Algorithm 1 / Figure 1 baseline.

Every send and receive fully completes before the next one is posted, so
segments are strictly ordered and children are serviced strictly in tree
order: both the data dependencies *and* the synchronization dependencies of
Section 2.1.1 are present. This is the MPICH/MVAPICH-style pattern the paper
analyzes first.

All frameworks in this package share one calling convention: the public
function launches every rank of ``ctx.comm`` and returns the handle; passing
``ranks=`` launches only a subset (a later call with the same ``handle`` adds
the rest) — hierarchical compositions use this to let each rank enter a phase
at its own time, as real multi-level collectives do.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.collectives.base import CollectiveContext, CollectiveHandle, new_handle
from repro.collectives.segmentation import segment_sizes
from repro.mpi.payload import assemble_payload, slice_payload
from repro.mpi.proclet import Compute, ProcletDriver


def _reduce_seconds(ctx: CollectiveContext, nbytes: int) -> float:
    return nbytes / ctx.world.spec.cpu_reduce_bandwidth


def bcast_blocking(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks: Optional[Iterable[int]] = None,
) -> CollectiveHandle:
    """Pipelined tree broadcast with blocking sends/recvs (Figure 1)."""
    tree = ctx.tree
    assert tree is not None and tree.root == ctx.root
    sizes = segment_sizes(ctx.nbytes, ctx.config)
    handle = handle or new_handle(ctx, "bcast-blocking")
    obs = ctx.world.obs

    def program(local: int):
        children = tree.children[local]
        parent = tree.parent[local]
        received = [None] * len(sizes)
        if parent is None:
            slices = slice_payload(ctx.data if ctx.carry() else None, sizes)
            for i, nb in enumerate(sizes):
                for child in children:
                    # MPI_Send: post, then wait for completion before the
                    # next child (synchronization dependency).
                    yield ctx.isend(local, child, ctx.seg_tag(i), nb, slices[i])
                    if obs is not None:
                        obs.count("blocking.bcast.segments_forwarded")
            out = ctx.data
        else:
            for i, nb in enumerate(sizes):
                req = ctx.irecv(local, parent, ctx.seg_tag(i), nb)
                yield req
                if obs is not None:
                    obs.count("blocking.bcast.segments_received")
                received[i] = req.data
                for child in children:
                    yield ctx.isend(local, child, ctx.seg_tag(i), nb, req.data)
                    if obs is not None:
                        obs.count("blocking.bcast.segments_forwarded")
            out = assemble_payload(received) if ctx.carry() else None
        handle.mark_done(local, ctx.world.engine.now, out if ctx.carry() else None)

    for local in ranks if ranks is not None else range(ctx.comm.size):
        ProcletDriver(ctx.rt(local), program(local))
    return handle


def reduce_blocking(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks: Optional[Iterable[int]] = None,
) -> CollectiveHandle:
    """Pipelined tree reduce with blocking P2P (Algorithm 1 mirrored).

    Each rank receives a segment from every child in tree order, folds it
    into its accumulator (CPU arithmetic, like the CPU-bound reductions of
    the libraries Section 4.2 criticizes), then forwards the result up.
    """
    tree = ctx.tree
    assert tree is not None and tree.root == ctx.root
    sizes = segment_sizes(ctx.nbytes, ctx.config)
    handle = handle or new_handle(ctx, "reduce-blocking")
    obs = ctx.world.obs

    def program(local: int):
        children = tree.children[local]
        parent = tree.parent[local]
        own = ctx.data.get(local) if (ctx.carry() and ctx.data) else None
        acc = list(slice_payload(own, sizes))
        for i, nb in enumerate(sizes):
            seg_acc = acc[i]
            for child in children:
                req = ctx.irecv(local, child, ctx.seg_tag(i), nb)
                yield req
                yield Compute(_reduce_seconds(ctx, nb))
                if obs is not None:
                    obs.count("blocking.reduce.contributions_folded")
                if ctx.carry():
                    seg_acc = ctx.combine(seg_acc, req.data)
            acc[i] = seg_acc
            if parent is not None:
                yield ctx.isend(local, parent, ctx.seg_tag(i), nb, seg_acc)
        out = assemble_payload(acc) if (ctx.carry() and parent is None) else None
        handle.mark_done(local, ctx.world.engine.now, out)

    for local in ranks if ranks is not None else range(ctx.comm.size):
        ProcletDriver(ctx.rt(local), program(local))
    return handle
