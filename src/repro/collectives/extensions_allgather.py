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

from repro.collectives.base import CollectiveContext, CollectiveHandle, new_handle
from repro.collectives.segmentation import block_ranges
from repro.mpi.payload import assemble_payload, byte_view, zero_bytes


def allgather_adapt(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks=None,
    members: Optional[list[int]] = None,
) -> CollectiveHandle:
    """Event-driven ring allgather.

    ``ctx.nbytes`` is the assembled size; rank r contributes ``ctx.data[r]``
    (its block, in data mode) and every rank ends with all blocks in
    communicator order. Each of the P-1 ring steps is posted from the
    previous step's receive callback; sends never wait for the local step
    counter of the receiver.

    ``members`` (sorted local ranks, default all) rings over a survivor
    subset — the epoch-restart relaunch (DESIGN.md S20). Blocks keep the
    P-way layout: every member ends with the full buffer, non-member blocks
    zero-filled.
    """
    comm = ctx.comm
    P = comm.size
    ring = list(range(P)) if members is None else list(members)
    K = len(ring)
    first_call = handle is None
    handle = handle or new_handle(ctx, "allgather-adapt")
    blocks = block_ranges(ctx.nbytes, P)
    if first_call:
        ctx.scratch = ctx.world.allocate_tags(P * P)
    base_tag = ctx.scratch

    def own_block(local: int) -> Any:
        own = ctx.data.get(local) if (ctx.carry() and ctx.data) else None
        return byte_view(own)

    def assemble(have: dict[int, Any]) -> Any:
        if not ctx.carry() or any(have.get(m) is None for m in ring):
            return None
        return assemble_payload([
            have[b] if b in have else zero_bytes(blocks[b][1]) for b in range(P)
        ])

    if K == 1:
        local = ring[0]
        if local not in handle.done_time:
            handle.mark_done(local, ctx.world.engine.now,
                             assemble({local: own_block(local)}))
        return handle

    position = {r: i for i, r in enumerate(ring)}

    def start_rank(local: int) -> None:
        pos = position[local]
        right = ring[(pos + 1) % K]
        left = ring[(pos - 1) % K]
        have: dict[int, Any] = {local: own_block(local)}
        state = {"collected": 1, "sends_done": 0}

        def maybe_done() -> None:
            if state["collected"] == K and state["sends_done"] == K - 1:
                handle.mark_done(local, ctx.world.engine.now, assemble(have))

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
                have[b] = byte_view(r.data) if ctx.carry() else None
                state["collected"] += 1
                # Forward it onward unless the right neighbour originated it
                # (it already has it; it never travels the full ring).
                if b != right:
                    send_block(b)
                maybe_done()

            req.add_callback(on_recv)

        # Pre-post recvs for every block that will arrive from the left, in
        # ring order: the left neighbour's own block first, then the blocks
        # it forwards (all posted up front, event-driven).
        for step in range(K - 1):
            post_recv(ring[(pos - 1 - step) % K])
        send_block(local)

    for local in ranks if ranks is not None else ring:
        ctx.rt(local).cpu.when_available(start_rank, local)
    return handle


def reduce_scatter_adapt(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks=None,
    members: Optional[list[int]] = None,
) -> CollectiveHandle:
    """Event-driven ring reduce-scatter.

    Every rank contributes a full ``ctx.nbytes`` vector (``ctx.data[r]``);
    rank r ends with block r of the elementwise reduction. The classic ring:
    at step s, rank r sends the partial for block (r-s) and folds the
    incoming partial for block (r-s-1); each step is triggered by the
    previous receive's completion callback plus the local reduction.

    ``members`` (sorted local ranks, default all) rings over a survivor
    subset — the epoch-restart relaunch (DESIGN.md S20). Block indices keep
    the P-way layout and member m ends with block m of the fold over the
    members' contributions only.
    """
    comm = ctx.comm
    P = comm.size
    ring = list(range(P)) if members is None else list(members)
    K = len(ring)
    first_call = handle is None
    handle = handle or new_handle(ctx, "reduce-scatter-adapt")
    blocks = block_ranges(ctx.nbytes, P)
    if first_call:
        ctx.scratch = ctx.world.allocate_tags(P * P)
    base_tag = ctx.scratch

    def own_vec(local: int) -> Any:
        own = ctx.data.get(local) if (ctx.carry() and ctx.data) else None
        return byte_view(own, copy=True)

    if K == 1:
        local = ring[0]
        if local not in handle.done_time:
            vec = own_vec(local)
            off, ln = blocks[local]
            handle.mark_done(local, ctx.world.engine.now,
                             vec[off : off + ln] if vec is not None else None)
        return handle

    position = {r: i for i, r in enumerate(ring)}

    def start_rank(local: int) -> None:
        pos = position[local]
        right = ring[(pos + 1) % K]
        left = ring[(pos - 1) % K]
        vec = own_vec(local)
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
            if state["step"] == K - 1 and state["sends_done"] == K - 1:
                state["finished"] = True
                out = block_view(local)
                handle.mark_done(
                    local, ctx.world.engine.now,
                    out.copy() if out is not None else None,
                )

        def do_step() -> None:
            s = state["step"]
            if s >= K - 1:
                maybe_done()
                return
            # Schedule shifted so the final received block is `local`: at
            # step s, send the partial of the block s+1 ring positions back,
            # fold the one s+2 back.
            send_b = ring[(pos - s - 1) % K]
            recv_b = ring[(pos - s - 2) % K]
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
                    vec[off : off + ln] = ctx.combine(vec[off : off + ln], r.data)
                state["step"] += 1
                ctx.charge_reduce(local, blocks[recv_b][1], do_step)

            rreq.add_callback(on_recv)

        def _sent() -> None:
            state["sends_done"] += 1
            maybe_done()

        do_step()

    for local in ranks if ranks is not None else ring:
        ctx.rt(local).cpu.when_available(start_rank, local)
    return handle
