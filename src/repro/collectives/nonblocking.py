"""Non-blocking P2P + Waitall collectives — Algorithm 2 / Figure 3.

The Open MPI ``tuned``-style pattern: sends to all children of one segment
are posted together and progressed concurrently, but a ``Waitall`` at each
segment boundary re-synchronizes them — the slowest child throttles every
sibling (the dependency Section 2.1.2 and Section 3.2.2 analyze). Non-root
ranks keep two receives pre-posted to tolerate out-of-order segments, as the
paper describes.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.collectives.base import CollectiveContext, CollectiveHandle, new_handle
from repro.collectives.segmentation import segment_sizes
from repro.mpi.payload import assemble_payload, slice_payload
from repro.mpi.proclet import Compute, ProcletDriver, WaitAll

_PREPOST = 2  # Figure 3: non-root posts two Irecvs before waiting the first.


def bcast_nonblocking(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks: Optional[Iterable[int]] = None,
    compute_scale: float = 1.0,
) -> CollectiveHandle:
    """Pipelined tree broadcast with Isend/Irecv + Waitall (Figure 3)."""
    tree = ctx.tree
    assert tree is not None and tree.root == ctx.root
    sizes = segment_sizes(ctx.nbytes, ctx.config)
    nseg = len(sizes)
    handle = handle or new_handle(ctx, "bcast-nonblocking")

    def program(local: int):
        children = tree.children[local]
        parent = tree.parent[local]
        received = [None] * nseg
        if parent is None:
            slices = slice_payload(ctx.data if ctx.carry() else None, sizes)
            for i, nb in enumerate(sizes):
                sends = [
                    ctx.isend(local, child, ctx.seg_tag(i), nb, slices[i])
                    for child in children
                ]
                yield WaitAll(sends)  # the synchronization ADAPT removes
            out = ctx.data
        else:
            recvs = [
                ctx.irecv(local, parent, ctx.seg_tag(i), sizes[i])
                for i in range(min(_PREPOST, nseg))
            ]
            for i, nb in enumerate(sizes):
                yield recvs[i]
                received[i] = recvs[i].data
                nxt = i + _PREPOST
                if nxt < nseg:
                    recvs.append(ctx.irecv(local, parent, ctx.seg_tag(nxt), sizes[nxt]))
                if children:
                    sends = [
                        ctx.isend(local, child, ctx.seg_tag(i), nb, recvs[i].data)
                        for child in children
                    ]
                    yield WaitAll(sends)
            out = assemble_payload(received) if ctx.carry() else None
        handle.mark_done(local, ctx.world.engine.now, out if ctx.carry() else None)

    for local in ranks if ranks is not None else range(ctx.comm.size):
        ProcletDriver(ctx.rt(local), program(local))
    return handle


def reduce_nonblocking(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks: Optional[Iterable[int]] = None,
    compute_scale: float = 1.0,
) -> CollectiveHandle:
    """Pipelined tree reduce with Irecv-batch + Waitall per segment.

    Non-leaf ranks pre-post the receives of two segments from all children;
    each segment then Waitalls its batch, folds all contributions on the CPU,
    and forwards the partial result up the tree.

    ``compute_scale`` scales reduction arithmetic cost — used by the
    Shumilin-style Intel model, whose vectorized reduction the paper credits
    for beating ADAPT's unvectorized one (Section 5.1.2).
    """
    tree = ctx.tree
    assert tree is not None and tree.root == ctx.root
    sizes = segment_sizes(ctx.nbytes, ctx.config)
    nseg = len(sizes)
    handle = handle or new_handle(ctx, "reduce-nonblocking")

    def program(local: int):
        children = tree.children[local]
        parent = tree.parent[local]
        own = ctx.data.get(local) if (ctx.carry() and ctx.data) else None
        acc = list(slice_payload(own, sizes))

        if not children:
            for i, nb in enumerate(sizes):
                if parent is not None:
                    yield ctx.isend(local, parent, ctx.seg_tag(i), nb, acc[i])
        else:
            batches: list[list] = [
                [ctx.irecv(local, child, ctx.seg_tag(i), sizes[i]) for child in children]
                for i in range(min(_PREPOST, nseg))
            ]
            for i, nb in enumerate(sizes):
                yield WaitAll(batches[i])
                nxt = i + _PREPOST
                if nxt < nseg:
                    batches.append(
                        [
                            ctx.irecv(local, child, ctx.seg_tag(nxt), sizes[nxt])
                            for child in children
                        ]
                    )
                yield Compute(
                    compute_scale
                    * len(children)
                    * nb
                    / ctx.world.spec.cpu_reduce_bandwidth
                )
                if ctx.carry():
                    seg = acc[i]
                    for req in batches[i]:
                        seg = ctx.combine(seg, req.data)
                    acc[i] = seg
                if parent is not None:
                    yield WaitAll([ctx.isend(local, parent, ctx.seg_tag(i), nb, acc[i])])
        out = assemble_payload(acc) if (ctx.carry() and parent is None) else None
        handle.mark_done(local, ctx.world.engine.now, out)

    for local in ranks if ranks is not None else range(ctx.comm.size):
        ProcletDriver(ctx.rt(local), program(local))
    return handle
