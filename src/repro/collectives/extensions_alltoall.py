"""Event-driven all-to-all personalized exchange.

Completes the collective coverage program (Section 2.2.3): alltoall is the
densest pattern — every rank sends a distinct block to every other rank —
and the one where ADAPT's only-data-dependencies structure pays most
visibly. Each (src, dst) pair is an independent send/recv pair; there is no
step structure, no pairwise rounds, no synchronization: a slow (or dead)
peer delays exactly its own blocks.

Degraded mode (DESIGN.md S20): a dead peer is *excused* per edge — the
pending receive from it is cancelled, the send toward it is written off —
so survivors still exchange every survivor block. Dead-origin blocks are
zero-filled in the output.

Layout: ``ctx.nbytes`` is one rank's full send buffer; block ``j`` of
``ctx.data[r]`` travels to rank ``j``. Rank ``r``'s output concatenates
block ``r`` from every source in communicator order (its own included).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.collectives.base import (
    CollectiveContext,
    CollectiveHandle,
    launch_ranks,
    open_launch,
)
from repro.collectives.segmentation import block_ranges
from repro.mpi.payload import assemble_payload, byte_view, zero_bytes


class _AdaptAlltoallRank:
    """Per-rank state machine: P-1 independent sends, P-1 independent recvs."""

    def __init__(self, ctx: CollectiveContext, handle: CollectiveHandle,
                 local: int, base_tag: int):
        self.ctx = ctx
        self.handle = handle
        self.local = local
        self.base_tag = base_tag
        P = ctx.comm.size
        self.P = P
        self.blocks = block_ranges(ctx.nbytes, P)
        own = ctx.data.get(local) if (ctx.carry() and ctx.data) else None
        self.vec = byte_view(own)
        # got[s] = block `local` received from source s (None until arrival);
        # the own block is in hand from the start.
        self.got: dict[int, Any] = {local: self._own_block()}
        self.want: set[int] = {s for s in range(P) if s != local}
        self.sends_open: set[int] = {d for d in range(P) if d != local}
        self._recv_reqs: dict[int, Any] = {}
        self.finished = False

    def _own_block(self) -> Any:
        if self.vec is None:
            return None
        off, ln = self.blocks[self.local]
        return self.vec[off : off + ln]

    def _start(self) -> None:
        ctx = self.ctx
        for s in sorted(self.want):
            req = ctx.irecv(
                self.local, s, self.base_tag + s, self.blocks[self.local][1]
            )
            self._recv_reqs[s] = req
            req.add_callback(lambda r, s=s: self._on_recv(s, r.data))
        for d in sorted(self.sends_open):
            block = None
            if self.vec is not None:
                off, ln = self.blocks[d]
                block = self.vec[off : off + ln]
            req = ctx.isend(
                self.local, d, self.base_tag + self.local,
                self.blocks[d][1], block,
            )
            req.add_callback(lambda r, d=d: self._on_send_done(d))
        self._maybe_finish()

    def _on_recv(self, src: int, data: Any) -> None:
        self._recv_reqs.pop(src, None)
        if src not in self.want:
            return  # a post-mortem delivery from an excused peer: absorbed
        self.want.discard(src)
        self.got[src] = byte_view(data) if self.ctx.carry() else None
        self._maybe_finish()

    def _on_send_done(self, dst: int) -> None:
        self.sends_open.discard(dst)
        self._maybe_finish()

    # -- failure handling -----------------------------------------------------

    def repair(self, dead: int) -> None:
        """A peer died: excuse both directions of its edge (this rank's CPU)."""
        if dead in self.want:
            self.want.discard(dead)
            req = self._recv_reqs.pop(dead, None)
            if req is not None and not req.completed:
                self.ctx.rt(self.local).cancel_recv(req)
            self.handle.report.note(
                f"rank {self.local}: block from dead peer {dead} zero-filled"
            )
        # The send toward the dead peer is written off whether or not its
        # request ever completes (a rendezvous into a corpse never will).
        self.sends_open.discard(dead)
        self._maybe_finish()

    # -- completion -----------------------------------------------------------

    def _maybe_finish(self) -> None:
        if self.finished or self.want or self.sends_open:
            return
        self.finished = True
        out = None
        if self.ctx.carry() and self.vec is not None:
            ln = self.blocks[self.local][1]
            out = assemble_payload([
                self.got[s] if self.got.get(s) is not None else zero_bytes(ln)
                for s in range(self.P)
            ])
        self.handle.mark_done(self.local, self.ctx.world.engine.now, out)


def alltoall_adapt(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks=None,
) -> CollectiveHandle:
    """Event-driven alltoall: P*(P-1) independent edges, zero rounds."""
    handle = open_launch(ctx, handle, "alltoall-adapt", ctx.comm.size)
    return launch_ranks(ctx, handle, ranks, _AdaptAlltoallRank, ctx.scratch)
