"""Classic collective algorithms used by the comparison libraries.

These are the documented/textbook algorithms the closed-source libraries in
the paper's evaluation are known to use (DESIGN.md explains why we model
libraries as algorithm families):

* :func:`bcast_scatter_allgather` — van de Geijn large-message broadcast
  (binomial scatter + ring allgather), the pattern Section 2.2.3 uses as its
  non-tree example; also MVAPICH's large-message choice.
* :func:`reduce_rabenseifner` — recursive-halving reduce-scatter + binomial
  gather, one of Intel MPI's reduce algorithms (Figure 8's legend).
* :func:`reduce_shumilin` — Intel MPI's Shumilin reduce, modelled as a
  pipelined binomial-tree reduce with vectorized (4x cheaper) arithmetic —
  the paper attributes its Stampede2 win over ADAPT to exactly that
  vectorization plus Omni-Path-tuned P2P (Section 5.1.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.collectives.base import CollectiveContext, CollectiveHandle, open_launch
from repro.collectives.nonblocking import reduce_nonblocking
from repro.collectives.segmentation import block_ranges
from repro.mpi.payload import assemble_payload, byte_view
from repro.mpi.proclet import Compute, ProcletDriver, WaitAll
from repro.trees.builders import binomial_tree

if TYPE_CHECKING:
    import numpy as np


def bcast_scatter_allgather(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks=None,
) -> CollectiveHandle:
    """Large-message broadcast: binomial scatter then ring allgather.

    Bandwidth-optimal (2x the bytes of a chain per non-root rank) but with a
    strict phase boundary and P-1 synchronous ring steps.
    """
    P = ctx.comm.size
    handle = open_launch(ctx, handle, "bcast-scatter-allgather", P + P * P)
    if P == 1:
        handle.mark_done(0, ctx.world.engine.now, ctx.data if ctx.carry() else None)
        return handle
    blocks = block_ranges(ctx.nbytes, P)
    base_tag = ctx.scratch
    btree = binomial_tree(P)  # over vranks; vrank 0 == root
    payload = byte_view(ctx.data) if ctx.carry() else None

    def vrank(local: int) -> int:
        return (local - ctx.root) % P

    def local_of(vr: int) -> int:
        return (vr + ctx.root) % P

    def subtree_span(vr: int) -> int:
        """Number of consecutive vranks in vr's binomial subtree."""
        return 1 + sum(1 for _ in btree.descendants(vr))

    def range_bytes(first_vr: int, count: int) -> int:
        return sum(blocks[b][1] for b in range(first_vr, first_vr + count))

    def program(local: int):
        vr = vrank(local)
        parent_vr = btree.parent[vr]
        have: dict[int, Optional[np.ndarray]] = {}

        # -- scatter phase: receive my subtree's block range, forward halves.
        span = subtree_span(vr)
        if parent_vr is None:
            if payload is not None:
                for b, (off, ln) in enumerate(blocks):
                    have[b] = payload[off : off + ln]
            else:
                for b in range(P):
                    have[b] = None
        else:
            nb = range_bytes(vr, span)
            req = ctx.irecv(local, local_of(parent_vr), base_tag + vr, nb)
            yield req
            flat = byte_view(req.data) if ctx.carry() else None
            if flat is not None:
                off = 0
                for b in range(vr, vr + span):
                    ln = blocks[b][1]
                    have[b] = flat[off : off + ln]
                    off += ln
            else:
                for b in range(vr, vr + span):
                    have[b] = None
        for child_vr in btree.children[vr]:
            cspan = subtree_span(child_vr)
            nb = range_bytes(child_vr, cspan)
            data = (
                assemble_payload([have.get(b) for b in range(child_vr, child_vr + cspan)])
                if ctx.carry()
                else None
            )
            yield ctx.isend(local, local_of(child_vr), base_tag + child_vr, nb, data)

        # -- ring allgather phase: P-1 steps around the vrank ring.
        right = local_of((vr + 1) % P)
        left = local_of((vr - 1) % P)
        obs = ctx.world.obs
        for step in range(P - 1):
            send_b = (vr - step) % P
            recv_b = (vr - step - 1) % P
            rreq = ctx.irecv(local, left, base_tag + P + P * step + recv_b, blocks[recv_b][1])
            sreq = ctx.isend(
                local, right, base_tag + P + P * step + send_b, blocks[send_b][1],
                have.get(send_b),
            )
            yield WaitAll([rreq, sreq])
            if obs is not None:
                obs.count("classic.sag.ring_steps")
            have[recv_b] = rreq.data

        out = assemble_payload([have.get(b) for b in range(P)]) if ctx.carry() else None
        handle.mark_done(local, ctx.world.engine.now, out)

    for local in ranks if ranks is not None else range(P):
        ProcletDriver(ctx.rt(local), program(local))
    return handle


def reduce_rabenseifner(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks=None,
) -> CollectiveHandle:
    """Rabenseifner reduce: recursive-halving reduce-scatter + binomial gather.

    Bandwidth-optimal for large messages on power-of-two communicators;
    remainder ranks fold their whole vector into a partner first (the
    standard non-power-of-two pre-phase).
    """
    P = ctx.comm.size
    handle = open_launch(ctx, handle, "reduce-rabenseifner",
                         4 * P + 4 * P.bit_length())
    if P == 1:
        out = ctx.data.get(0) if (ctx.carry() and ctx.data) else None
        handle.mark_done(0, ctx.world.engine.now, out)
        return handle
    P2 = 1 << (P.bit_length() - 1)
    rem = P - P2
    nbytes = ctx.nbytes
    base_tag = ctx.scratch
    bw = ctx.world.spec.cpu_reduce_bandwidth

    def vrank(local: int) -> int:
        return (local - ctx.root) % P

    def local_of(vr: int) -> int:
        return (vr + ctx.root) % P

    def program(local: int):
        vr = vrank(local)
        own = ctx.data.get(local) if (ctx.carry() and ctx.data) else None
        vec = byte_view(own, copy=True)

        # Pre-phase: the last `rem` vranks fold into partners vr - P2.
        if vr >= P2:
            yield ctx.isend(local, local_of(vr - P2), base_tag + vr, nbytes, vec)
            # Folded-out ranks receive the final result only if they are not
            # the root (vrank 0 is never folded out), so they are done.
            handle.mark_done(local, ctx.world.engine.now, None)
            return
        if vr < rem:
            req = ctx.irecv(local, local_of(vr + P2), base_tag + vr + P2, nbytes)
            yield req
            yield Compute(nbytes / bw)
            if ctx.carry() and vec is not None and req.data is not None:
                vec = ctx.combine(vec, req.data)

        # Reduce-scatter over the P2 group by recursive halving.
        lo, ln = 0, nbytes
        mask = P2 >> 1
        step = 0
        while mask:
            partner = vr ^ mask
            half = ln // 2
            keep_low = (vr & mask) == 0
            send_off, send_ln = (lo + half, ln - half) if keep_low else (lo, half)
            keep_off, keep_ln = (lo, half) if keep_low else (lo + half, ln - half)
            tag = base_tag + 2 * P + step
            sdata = vec[send_off : send_off + send_ln] if vec is not None else None
            sreq = ctx.isend(local, local_of(partner), tag, send_ln, sdata)
            rreq = ctx.irecv(local, local_of(partner), tag, keep_ln)
            yield WaitAll([sreq, rreq])
            yield Compute(keep_ln / bw)
            if ctx.carry() and vec is not None and rreq.data is not None:
                vec[keep_off : keep_off + keep_ln] = ctx.combine(
                    vec[keep_off : keep_off + keep_ln], rreq.data
                )
            lo, ln = keep_off, keep_ln
            mask >>= 1
            step += 1

        # Binomial gather of scattered chunks to vrank 0. Each rank owns
        # [lo, lo+ln); senders pass their accumulated range up the binomial
        # tree (built over the P2 group, bit-reversal-free approximation:
        # rank vr sends to vr with its lowest set bit cleared).
        ranges: dict[int, tuple[int, bytes]] = {}
        if vec is not None:
            ranges[lo] = (ln, vec[lo : lo + ln].tobytes())
        mask = 1
        total_ln = ln
        total_lo = lo
        while mask < P2:
            if vr & mask:
                # Send my accumulated range to parent and finish.
                data = None
                if vec is not None:
                    data = vec[total_lo : total_lo + total_ln]
                yield ctx.isend(
                    local, local_of(vr & ~mask), base_tag + 3 * P + vr, total_ln, data
                )
                handle.mark_done(local, ctx.world.engine.now, None)
                return
            partner = vr | mask
            if partner < P2:
                # Receive the partner's accumulated (contiguous) range.
                plo, pln = _gathered_range(partner, P2, nbytes, mask)
                req = ctx.irecv(local, local_of(partner), base_tag + 3 * P + partner, pln)
                yield req
                if vec is not None and req.data is not None:
                    vec[plo : plo + pln] = byte_view(req.data)
                total_ln += pln
                total_lo = min(total_lo, plo)
            mask <<= 1
        out = vec if (ctx.carry() and vec is not None) else None
        handle.mark_done(local, ctx.world.engine.now, out)

    for local in ranks if ranks is not None else range(P):
        ProcletDriver(ctx.rt(local), program(local))
    return handle


def _gathered_range(vr: int, P2: int, nbytes: int, upto_mask: int) -> tuple[int, int]:
    """(offset, length) of the contiguous range vrank ``vr`` has accumulated
    by the time it sends at gather step ``upto_mask``.

    After reduce-scatter, vrank v owns the range selected by reading its bits
    from the top: bit set -> upper half, clear -> lower half. During the
    gather it has merged the ranges of all vranks ``v | m`` for m < upto_mask.
    """
    lo, ln = 0, nbytes
    mask = P2 >> 1
    while mask >= upto_mask:
        half = ln // 2
        if vr & mask:
            lo, ln = lo + half, ln - half
        else:
            ln = half
        mask >>= 1
    return lo, ln


def reduce_shumilin(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks=None,
) -> CollectiveHandle:
    """Shumilin-style reduce (Intel MPI model).

    Pipelined binomial-tree reduce whose arithmetic is vectorized (4x the
    scalar reduce throughput) — the property the paper credits for Intel's
    reduce win on Stampede2 (Section 5.1.2).
    """
    if ctx.tree is None:
        ctx.tree = binomial_tree(ctx.comm.size).reroot_relabelled(ctx.root)
    h = reduce_nonblocking(ctx, handle=handle, ranks=ranks, compute_scale=0.25)
    h.name = "reduce-shumilin"
    return h
