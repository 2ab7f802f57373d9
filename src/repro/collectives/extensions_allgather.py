"""Allgather and reduce-scatter on the event-driven framework.

Completes the "extend ADAPT to other collectives" program of Section 2.2.3:
both are ring algorithms whose steps are driven entirely by completion
callbacks — a rank forwards block ``b`` the moment it arrives, without
waiting for any other block, so a delayed rank stalls only the blocks that
must pass through it (the data dependency) and never its ring-distant peers'
other traffic.

Both launch through :func:`~repro.collectives.base.launch_ranks` on one
ring scaffold. A ring cannot route around a death in place, since every
block that must pass the dead member is lost: the failure abandons the
launch (DESIGN.md S17), and live recovery reruns the ring among the
survivors instead (DESIGN.md S20).
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


class _RingRank:
    """One rank of a ring over ``ring`` (sorted members), P-way blocks."""

    def __init__(self, ctx: CollectiveContext, handle: CollectiveHandle,
                 local: int, base_tag: int, ring: list[int], blocks: list):
        self.ctx = ctx
        self.handle = handle
        self.local = local
        self.base_tag = base_tag
        self.ring = ring
        self.blocks = blocks
        self.P = ctx.comm.size
        self.K = len(ring)
        self.pos = ring.index(local)
        self.right = ring[(self.pos + 1) % self.K]
        self.left = ring[(self.pos - 1) % self.K]
        self.own = ctx.data.get(local) if (ctx.carry() and ctx.data) else None
        self.sends_done = 0

    def _on_sent(self, _req) -> None:
        self.sends_done += 1
        self._maybe_done()

    def repair(self, dead: int) -> None:
        if dead in self.ring:  # a relaunch rings over the survivors only
            self.handle.abandon(f"rank {dead} died; the ring cannot route around it")


def _launch_ring(ctx: CollectiveContext, handle: Optional[CollectiveHandle],
                 ranks, members: Optional[list[int]], name: str,
                 state_cls) -> CollectiveHandle:
    P = ctx.comm.size
    ring = list(range(P)) if members is None else list(members)
    handle = open_launch(ctx, handle, name, P * P)
    return launch_ranks(ctx, handle, ranks if ranks is not None else ring,
                        state_cls, ctx.scratch, ring, block_ranges(ctx.nbytes, P))


class _AllgatherRank(_RingRank):
    """K-1 recvs pre-posted from the left; each arrival forwarded right."""

    def __init__(self, *args):
        super().__init__(*args)
        self.have: dict[int, Any] = {self.local: byte_view(self.own)}
        self.collected = 1

    def _start(self) -> None:
        # Pre-post recvs for every block that will arrive from the left, in
        # ring order: the left neighbour's own block first, then the blocks
        # it forwards (all posted up front, event-driven).
        for step in range(self.K - 1):
            b = self.ring[(self.pos - 1 - step) % self.K]
            req = self.ctx.irecv(self.local, self.left,
                                 self.base_tag + self.P * self.left + b,
                                 self.blocks[b][1])
            req.add_callback(lambda r, b=b: self._on_recv(b, r))
        if self.K == 1:
            self._maybe_done()  # a one-member ring holds its result already
        else:
            self._send_block(self.local)

    def _send_block(self, b: int) -> None:
        req = self.ctx.isend(self.local, self.right,
                             self.base_tag + self.P * self.local + b,
                             self.blocks[b][1], self.have.get(b))
        req.add_callback(self._on_sent)

    def _on_recv(self, b: int, r) -> None:
        self.have[b] = byte_view(r.data) if self.ctx.carry() else None
        self.collected += 1
        # Forward it onward unless the right neighbour originated it (it
        # already has it; it never travels the full ring).
        if b != self.right:
            self._send_block(b)
        self._maybe_done()

    def _maybe_done(self) -> None:
        if self.collected < self.K or self.sends_done < self.K - 1:
            return
        have, out = self.have, None
        if self.ctx.carry() and all(have.get(m) is not None for m in self.ring):
            out = assemble_payload([
                have[b] if b in have else zero_bytes(self.blocks[b][1])
                for b in range(self.P)
            ])
        self.handle.mark_done(self.local, self.ctx.world.engine.now, out)


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
    return _launch_ring(ctx, handle, ranks, members, "allgather-adapt",
                        _AllgatherRank)


class _ReduceScatterRank(_RingRank):
    """One send and one fold per ring step, each step fired by the previous
    receive's completion plus the local reduction."""

    def __init__(self, *args):
        super().__init__(*args)
        self.vec = byte_view(self.own, copy=True)
        self.step = 0
        self.finished = False

    def _block(self, b: int) -> Any:
        if self.vec is None:
            return None
        off, ln = self.blocks[b]
        return self.vec[off : off + ln]

    def _start(self) -> None:
        self._do_step()

    def _maybe_done(self) -> None:
        # Idempotent: `step` is incremented in _on_recv but re-checked only
        # after the charge_reduce delay, so a rendezvous-send completion
        # landing inside that window would otherwise observe both counters
        # terminal and mark the rank done a second time.
        if self.finished:
            return
        if self.step == self.K - 1 and self.sends_done == self.K - 1:
            self.finished = True
            out = self._block(self.local)
            self.handle.mark_done(self.local, self.ctx.world.engine.now,
                                  out.copy() if out is not None else None)

    def _do_step(self) -> None:
        s, ring, K = self.step, self.ring, self.K
        if s >= K - 1:
            self._maybe_done()
            return
        # Schedule shifted so the final received block is `local`: at step
        # s, send the partial of the block s+1 ring positions back, fold the
        # one s+2 back.
        send_b = ring[(self.pos - s - 1) % K]
        recv_b = ring[(self.pos - s - 2) % K]
        tag = self.base_tag + self.P * s
        sreq = self.ctx.isend(self.local, self.right, tag + send_b,
                              self.blocks[send_b][1], self._block(send_b))
        sreq.add_callback(self._on_sent)
        rreq = self.ctx.irecv(self.local, self.left, tag + recv_b,
                              self.blocks[recv_b][1])
        rreq.add_callback(lambda r, recv_b=recv_b: self._on_recv(recv_b, r))

    def _on_recv(self, recv_b: int, r) -> None:
        # Fold the incoming partial into my accumulator and charge the
        # arithmetic before the next step fires.
        ctx = self.ctx
        off, ln = self.blocks[recv_b]
        if ctx.carry() and self.vec is not None and r.data is not None:
            self.vec[off : off + ln] = ctx.combine(self.vec[off : off + ln], r.data)
        self.step += 1
        ctx.charge_reduce(self.local, ln, self._do_step)


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
    incoming partial for block (r-s-1).

    ``members`` (sorted local ranks, default all) rings over a survivor
    subset — the epoch-restart relaunch (DESIGN.md S20). Block indices keep
    the P-way layout and member m ends with block m of the fold over the
    members' contributions only.
    """
    return _launch_ring(ctx, handle, ranks, members, "reduce-scatter-adapt",
                        _ReduceScatterRank)
