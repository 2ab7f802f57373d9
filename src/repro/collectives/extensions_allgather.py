"""Allgather and reduce-scatter on the event-driven framework.

Completes the "extend ADAPT to other collectives" program of Section 2.2.3:
both are ring algorithms whose steps are driven entirely by completion
callbacks — a rank forwards block ``b`` the moment it arrives, without
waiting for any other block, so a delayed rank stalls only the blocks that
must pass through it (the data dependency) and never its ring-distant peers'
other traffic.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.collectives.base import CollectiveContext, CollectiveHandle, new_handle
from repro.collectives.segmentation import block_ranges


def allgather_adapt(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks=None,
) -> CollectiveHandle:
    """Event-driven ring allgather.

    ``ctx.nbytes`` is the assembled size; rank r contributes ``ctx.data[r]``
    (its block, in data mode) and every rank ends with all blocks in
    communicator order. Each of the P-1 ring steps is posted from the
    previous step's receive callback; sends never wait for the local step
    counter of the receiver.
    """
    tree = None  # ring algorithm: tree-free by design
    comm = ctx.comm
    P = comm.size
    first_call = handle is None
    handle = handle or new_handle(ctx, "allgather-adapt")
    blocks = block_ranges(ctx.nbytes, P)
    if first_call:
        ctx.scratch = ctx.world.allocate_tags(P * P)
    base_tag = ctx.scratch

    if P == 1:
        own = ctx.data.get(0) if (ctx.carry() and ctx.data) else None
        out = (
            np.asarray(own).reshape(-1).view(np.uint8) if own is not None else None
        )
        if not handle.done_time:
            handle.mark_done(0, ctx.world.engine.now, out)
        return handle

    def start_rank(local: int) -> None:
        right = (local + 1) % P
        left = (local - 1) % P
        own = ctx.data.get(local) if (ctx.carry() and ctx.data) else None
        have: dict[int, Any] = {
            local: np.asarray(own).reshape(-1).view(np.uint8)
            if own is not None
            else None
        }
        state = {"collected": 1, "sends_done": 0}

        def maybe_done() -> None:
            if state["collected"] == P and state["sends_done"] == P - 1:
                out = None
                if ctx.carry() and all(have.get(b) is not None for b in range(P)):
                    out = np.concatenate([have[b] for b in range(P)])
                handle.mark_done(local, ctx.world.engine.now, out)

        def send_block(b: int) -> None:
            req = ctx.isend(local, right, base_tag + P * local + b, blocks[b][1],
                            have.get(b))
            req.add_callback(lambda r: (_sent(), None)[1])

        def _sent() -> None:
            state["sends_done"] += 1
            maybe_done()

        def post_recv(b: int) -> None:
            req = ctx.irecv(local, left, base_tag + P * left + b, blocks[b][1])

            def on_recv(r, b=b) -> None:
                have[b] = (
                    np.asarray(r.data).reshape(-1).view(np.uint8)
                    if (ctx.carry() and r.data is not None)
                    else None
                )
                state["collected"] += 1
                # Forward it onward unless the right neighbour originated it
                # (it already has it; it never travels the full ring).
                if b != right:
                    send_block(b)
                maybe_done()

            req.add_callback(on_recv)

        # Pre-post recvs for every block that will arrive from the left
        # (all blocks except my own and my left neighbour originates the
        # rest in sequence — post them all, event-driven).
        for step in range(P - 1):
            b = (left - step) % P
            post_recv(b)
        send_block(local)

    for local in ranks if ranks is not None else range(P):
        ctx.rt(local).cpu.when_available(start_rank, local)
    return handle


def reduce_scatter_adapt(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks=None,
) -> CollectiveHandle:
    """Event-driven ring reduce-scatter.

    Every rank contributes a full ``ctx.nbytes`` vector (``ctx.data[r]``);
    rank r ends with block r of the elementwise reduction. The classic ring:
    at step s, rank r sends the partial for block (r-s) and folds the
    incoming partial for block (r-s-1); each step is triggered by the
    previous receive's completion callback plus the local reduction.
    """
    comm = ctx.comm
    P = comm.size
    first_call = handle is None
    handle = handle or new_handle(ctx, "reduce-scatter-adapt")
    blocks = block_ranges(ctx.nbytes, P)
    if first_call:
        ctx.scratch = ctx.world.allocate_tags(P * P)
    base_tag = ctx.scratch

    if P == 1:
        own = ctx.data.get(0) if (ctx.carry() and ctx.data) else None
        out = np.asarray(own).reshape(-1).view(np.uint8) if own is not None else None
        if not handle.done_time:
            handle.mark_done(0, ctx.world.engine.now, out)
        return handle

    def start_rank(local: int) -> None:
        right = (local + 1) % P
        left = (local - 1) % P
        own = ctx.data.get(local) if (ctx.carry() and ctx.data) else None
        vec = (
            np.asarray(own).reshape(-1).view(np.uint8).copy()
            if own is not None
            else None
        )
        state = {"step": 0, "sends_done": 0, "finished": False}

        def block_view(b: int):
            if vec is None:
                return None
            off, ln = blocks[b]
            return vec[off : off + ln]

        def maybe_done() -> None:
            # Idempotent: `step` is incremented in on_recv but re-checked only
            # after the charge_reduce delay, so a rendezvous-send completion
            # landing inside that window would otherwise observe both counters
            # terminal and mark the rank done a second time.
            if state["finished"]:
                return
            if state["step"] == P - 1 and state["sends_done"] == P - 1:
                state["finished"] = True
                out = block_view(local)
                handle.mark_done(
                    local, ctx.world.engine.now,
                    out.copy() if out is not None else None,
                )

        def do_step() -> None:
            s = state["step"]
            if s >= P - 1:
                maybe_done()
                return
            # Schedule shifted so the final received block is `local`: at
            # step s, send the partial of (local-s-1), fold (local-s-2).
            send_b = (local - s - 1) % P
            recv_b = (local - s - 2) % P
            sreq = ctx.isend(
                local, right, base_tag + P * s + send_b, blocks[send_b][1],
                block_view(send_b),
            )
            sreq.add_callback(lambda r: (_sent(), None)[1])
            rreq = ctx.irecv(local, left, base_tag + P * s + recv_b, blocks[recv_b][1])

            def on_recv(r, recv_b=recv_b) -> None:
                # Fold the incoming partial into my accumulator and charge
                # the arithmetic before the next step fires.
                if ctx.carry() and vec is not None and r.data is not None:
                    off, ln = blocks[recv_b]
                    vec[off : off + ln] = np.asarray(
                        ctx.op(vec[off : off + ln], np.asarray(r.data))
                    )
                state["step"] += 1
                ctx.charge_reduce(local, blocks[recv_b][1], do_step)

            rreq.add_callback(on_recv)

        def _sent() -> None:
            state["sends_done"] += 1
            maybe_done()

        do_step()

    for local in ranks if ranks is not None else range(P):
        ctx.rt(local).cpu.when_available(start_rank, local)
    return handle
