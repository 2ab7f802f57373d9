"""Additional collectives on the ADAPT event-driven framework.

The paper's Section 2.2.3 argues the event-driven basic building block
(Algorithm 3) extends to any collective built from send-to-children /
receive-from-parent patterns, and Section 7 lists "increasing the collective
communications coverage" as future work. This module implements that
extension: scatter, gather, allreduce and barrier, all callback-driven on
the same trees and runtime.

* **scatter** — each tree edge carries the subtree's block range; forwarding
  to a child starts the moment the child's range is available (no sibling
  ordering).
* **gather** — the reverse: a rank forwards its subtree's assembled range
  upward as contributions drain in.
* **allreduce** — an ADAPT reduce chained into an ADAPT broadcast at the
  root, both pipelined, with the broadcast of a segment starting as soon as
  that segment is fully reduced (segment-level overlap the two-phase
  composition of Section 3.1 could not achieve).
* **barrier** — a zero-byte gather-release over the tree.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.collectives.adapt import bcast_adapt, reduce_adapt
from repro.collectives.base import (
    CollectiveContext,
    CollectiveHandle,
    launch_ranks,
    new_handle,
)
from repro.collectives.segmentation import block_ranges
from repro.mpi.payload import assemble_payload, byte_view
from repro.trees.regraft import live_descendants, nearest_live_ancestor


def _subtree(tree, rank: int) -> list[int]:
    return [rank] + list(tree.descendants(rank))


class _AdaptScatterRank:
    """Per-rank state machine for the event-driven scatter.

    Degraded mode (DESIGN.md S20): a dead child's live descendants are
    adopted — their subtree ranges re-sliced out of this rank's buffer and
    re-sent; an orphan cancels its receive from the dead parent and re-posts
    the full range from its nearest live ancestor. Ranges are computed on
    the *original* tree on both sides, so adopter and orphan always agree on
    sizes regardless of when each learns of a death.
    """

    def __init__(self, ctx: CollectiveContext, handle: CollectiveHandle,
                 local: int, base_tag: int, blocks: list):
        self.ctx = ctx
        self.handle = handle
        self.local = local
        self.base_tag = base_tag
        self.blocks = blocks
        tree = ctx.tree
        assert tree is not None
        self.tree = tree
        self.children = list(tree.children[local])
        self.parent = tree.parent[local]
        self.received = self.parent is None
        self.buf: Any = None
        self.sent_to: set[int] = set()
        self.sends_open: set[int] = set()
        self._recv_req: Any = None
        self.finished = False

    # -- range helpers --------------------------------------------------------

    def _subtree_bytes(self, r: int) -> int:
        return sum(self.blocks[m][1] for m in _subtree(self.tree, r))

    def _own_block(self) -> Any:
        if self.buf is None:
            return None
        off = 0
        for m in sorted(_subtree(self.tree, self.local)):
            if m == self.local:
                return self.buf[off : off + self.blocks[m][1]]
            off += self.blocks[m][1]
        raise AssertionError  # pragma: no cover

    def _range_of(self, target: int) -> Any:
        """Slice ``target``'s subtree range out of my (member-ordered) buffer."""
        if self.buf is None:
            return None
        wanted = set(_subtree(self.tree, target))
        chunks, off = [], 0
        for m in sorted(_subtree(self.tree, self.local)):
            ln = self.blocks[m][1]
            if m in wanted:
                chunks.append(self.buf[off : off + ln])
            off += ln
        return assemble_payload(chunks)

    # -- data flow ------------------------------------------------------------

    def _start(self) -> None:
        ctx = self.ctx
        if self.parent is None:
            payload = byte_view(ctx.data) if ctx.carry() else None
            if payload is not None:
                self.buf = assemble_payload([
                    payload[self.blocks[m][0] : self.blocks[m][0] + self.blocks[m][1]]
                    for m in sorted(_subtree(self.tree, self.local))
                ])
        else:
            self._post_recv(self.parent)
        self._flush_sends()
        self._maybe_finish()

    def _post_recv(self, src: int) -> None:
        req = self.ctx.irecv(
            self.local, src, self.base_tag + self.local,
            self._subtree_bytes(self.local),
        )
        self._recv_req = req
        req.add_callback(self._on_recv)

    def _on_recv(self, r) -> None:
        self._recv_req = None
        if self.received:
            return  # a recovery replay of a range the dead parent delivered
        self.buf = byte_view(r.data) if self.ctx.carry() else None
        self.received = True
        self._flush_sends()
        self._maybe_finish()

    def _flush_sends(self) -> None:
        if not self.received:
            return
        for child in list(self.children):
            if child in self.sent_to:
                continue
            self.sent_to.add(child)
            self.sends_open.add(child)
            req = self.ctx.isend(
                self.local, child, self.base_tag + child,
                self._subtree_bytes(child), self._range_of(child),
            )
            req.add_callback(lambda r, child=child: self._on_send_done(child))

    def _on_send_done(self, child: int) -> None:
        self.sends_open.discard(child)
        self._maybe_finish()

    # -- failure handling -----------------------------------------------------

    def repair(self, dead: int) -> None:
        """Adopt a dead child's orphans, or re-parent (this rank's CPU)."""
        report = self.handle.report
        failed = self.ctx.failed_locals()
        if dead in self.children:
            self.children.remove(dead)
            self.sends_open.discard(dead)
            for orphan in live_descendants(self.tree, dead, failed):
                if orphan in self.children or orphan in self.sent_to:
                    continue
                self.children.append(orphan)
                report.adoptions.append((self.local, orphan))
            self._flush_sends()
        if self.parent is not None and dead == self.parent:
            self._reparent(failed)
        if self.tree.root in failed and not self.received and not self.finished:
            # The distribution source is gone: nothing upstream can ever
            # deliver this subtree's range.
            report.note(f"rank {self.local}: root dead, scatter range lost")
            self.handle.excuse(self.local)
        self._maybe_finish()

    def _reparent(self, failed: set[int]) -> None:
        if self._recv_req is not None and not self._recv_req.completed:
            self.ctx.rt(self.local).cancel_recv(self._recv_req)
            self._recv_req = None
        ancestor = nearest_live_ancestor(self.tree, self.local, failed)
        if ancestor is None:
            self.parent = None
            self.handle.report.note(
                f"rank {self.local}: no live ancestor, scatter range lost"
            )
            if not self.finished:
                self.handle.excuse(self.local)
            return
        self.parent = ancestor
        # Post the replay receive even if the range already arrived — the
        # adopter replays unconditionally, and an unmatched rendezvous send
        # would strand it; the `received` guard absorbs the duplicate.
        self._post_recv(ancestor)

    # -- completion -----------------------------------------------------------

    def _maybe_finish(self) -> None:
        if self.finished or not self.received or self.sends_open:
            return
        self.finished = True
        out = self._own_block() if self.ctx.carry() else None
        self.handle.mark_done(self.local, self.ctx.world.engine.now, out)


def scatter_adapt(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks=None,
) -> CollectiveHandle:
    """Event-driven tree scatter: ``ctx.nbytes`` is the total payload; rank r
    ends up with block r (communicator order). ``ctx.data`` (data mode) is
    the root's full buffer."""
    tree = ctx.tree
    assert tree is not None and tree.root == ctx.root
    comm = ctx.comm
    P = comm.size
    first_call = handle is None
    handle = handle or new_handle(ctx, "scatter-adapt")
    blocks = block_ranges(ctx.nbytes, P)
    if first_call:
        ctx.scratch = ctx.world.allocate_tags(P)
    return launch_ranks(ctx, handle, ranks, _AdaptScatterRank, ctx.scratch,
                        blocks)


def gather_adapt(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks=None,
) -> CollectiveHandle:
    """Event-driven tree gather: rank r contributes ``ctx.data[r]`` (data
    mode); the root assembles blocks in communicator order."""
    tree = ctx.tree
    assert tree is not None and tree.root == ctx.root
    comm = ctx.comm
    P = comm.size
    first_call = handle is None
    handle = handle or new_handle(ctx, "gather-adapt")
    blocks = block_ranges(ctx.nbytes, P)
    if first_call:
        ctx.scratch = ctx.world.allocate_tags(P)
    base_tag = ctx.scratch

    def subtree_bytes(r: int) -> int:
        return sum(blocks[m][1] for m in _subtree(tree, r))

    def start_rank(local: int) -> None:
        children = tree.children[local]
        parent = tree.parent[local]
        own = ctx.data.get(local) if (ctx.carry() and ctx.data) else None
        pieces: dict[int, Any] = {local: byte_view(own)}
        pending = {"children": len(children)}

        def assembled() -> Any:
            if not ctx.carry():
                return None
            return assemble_payload([pieces.get(m) for m in sorted(_subtree(tree, local))])

        def finish_or_forward() -> None:
            if pending["children"] > 0:
                return
            if parent is None:
                handle.mark_done(local, ctx.world.engine.now, assembled())
                return
            req = ctx.isend(
                local, parent, base_tag + local, subtree_bytes(local), assembled()
            )
            req.add_callback(
                lambda r: handle.mark_done(local, ctx.world.engine.now, None)
            )

        for child in children:
            req = ctx.irecv(local, child, base_tag + child, subtree_bytes(child))

            def on_recv(r, child=child) -> None:
                buf = byte_view(r.data) if ctx.carry() else None
                if buf is not None:
                    off = 0
                    for m in sorted(_subtree(tree, child)):
                        ln = blocks[m][1]
                        pieces[m] = buf[off : off + ln]
                        off += ln
                pending["children"] -= 1
                finish_or_forward()

            req.add_callback(on_recv)
        finish_or_forward()

    for local in ranks if ranks is not None else range(P):
        ctx.rt(local).cpu.when_available(start_rank, local)
    return handle


def allreduce_adapt(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks=None,
) -> CollectiveHandle:
    """Event-driven allreduce: pipelined reduce to the root chained into a
    pipelined broadcast, overlapping at segment granularity."""
    tree = ctx.tree
    assert tree is not None and tree.root == ctx.root
    handle = handle or new_handle(ctx, "allreduce-adapt")
    handle.name = "allreduce-adapt"

    if ctx.scratch is not None:
        # A later partial launch (the IMB loop starts ranks one by one)
        # joins the first launch's reduce, whose hook is already in place.
        reduce_adapt(ctx, ctx.scratch, ranks)
        return handle
    reduce_handle = ctx.scratch = reduce_adapt(ctx, ranks=ranks)

    def on_reduce_done(local: int, _time: float) -> None:
        if local != ctx.root:
            return
        # Root holds the full reduction: broadcast it back down the same
        # tree. A fresh context keeps tags distinct.
        bctx = CollectiveContext(
            ctx.comm, ctx.root, ctx.nbytes, ctx.config, tree=tree,
            data=reduce_handle.output.get(ctx.root),
            host_staging=ctx.host_staging,
        )
        bhandle = bcast_adapt(bctx)
        bhandle.on_rank_done.append(
            lambda l, t: handle.mark_done(l, t, bhandle.output.get(l))
        )
        for l, t in list(bhandle.done_time.items()):
            handle.mark_done(l, t, bhandle.output.get(l))

    reduce_handle.on_rank_done.append(on_reduce_done)
    for l, t in list(reduce_handle.done_time.items()):
        on_reduce_done(l, t)
    return handle


class _AdaptBarrierRank:
    """Per-rank state machine for the tree barrier.

    Degraded mode (DESIGN.md S20): a dead child is dropped from the up-count
    and its live descendants adopted (their up-recvs re-posted here, release
    owed to them); an orphan re-sends its up-notification to the nearest
    live ancestor and re-posts the release recv from it. A rank whose whole
    ancestor chain died acts as its own subtree root. All messages are
    zero-byte (always eager), so sends complete locally and need no
    write-off accounting.
    """

    def __init__(self, ctx: CollectiveContext, handle: CollectiveHandle,
                 local: int, base_tag: int):
        self.ctx = ctx
        self.handle = handle
        self.local = local
        self.base_tag = base_tag
        self.P = ctx.comm.size
        tree = ctx.tree
        assert tree is not None
        self.tree = tree
        self.children = list(tree.children[local])
        self.parent = tree.parent[local]
        self.up_pending: set[int] = set(self.children)
        self.sent_up = False
        self.released = False
        self._up_reqs: dict[int, Any] = {}
        self._release_req: Any = None

    def _start(self) -> None:
        if self.parent is not None:
            # Pre-post the release recv at entry (Section 2.2.1): it can
            # never arrive unexpected, and the release phase carries no
            # synchronization dependency on the gather phase.
            self._post_release_recv(self.parent)
        for child in list(self.children):
            self._post_up_recv(child)
        self._check_up()

    def _post_release_recv(self, src: int) -> None:
        req = self.ctx.irecv(
            self.local, src, self.base_tag + self.P + self.local, 0
        )
        self._release_req = req
        req.add_callback(lambda r: self._release())

    def _post_up_recv(self, child: int) -> None:
        req = self.ctx.irecv(self.local, child, self.base_tag + child, 0)
        self._up_reqs[child] = req
        req.add_callback(lambda r, child=child: self._on_up(child))

    def _on_up(self, child: int) -> None:
        self._up_reqs.pop(child, None)
        self.up_pending.discard(child)
        self._check_up()

    def _check_up(self) -> None:
        if self.up_pending:
            return
        if self.parent is None:
            self._release()
        elif not self.sent_up:
            self.sent_up = True
            self.ctx.isend(self.local, self.parent, self.base_tag + self.local, 0)

    def _release(self) -> None:
        if self.released:
            return
        self.released = True
        for child in self.children:
            self.ctx.isend(self.local, child, self.base_tag + self.P + child, 0)
        self.handle.mark_done(self.local, self.ctx.world.engine.now)

    # -- failure handling -----------------------------------------------------

    def repair(self, dead: int) -> None:
        """Drop a dead child and adopt its orphans, or re-parent (this
        rank's CPU)."""
        report = self.handle.report
        failed = self.ctx.failed_locals()
        if dead in self.children:
            self.children.remove(dead)
            self.up_pending.discard(dead)
            req = self._up_reqs.pop(dead, None)
            if req is not None and not req.completed:
                self.ctx.rt(self.local).cancel_recv(req)
            for orphan in live_descendants(self.tree, dead, failed):
                if orphan in self.children:
                    continue
                self.children.append(orphan)
                report.adoptions.append((self.local, orphan))
                if not self.released:
                    # The orphan may re-send an up-notification here; it is
                    # NOT added to up_pending — its arrival at the dead
                    # parent is unknowable, so the barrier's semantics weaken
                    # to "every survivor entered" rather than "every
                    # survivor's subtree entered", which degraded mode
                    # accepts. The recv absorbs the resend either way.
                    self._post_up_recv(orphan)
                else:
                    # Already released: the orphan only needs its exit.
                    self.ctx.isend(
                        self.local, orphan, self.base_tag + self.P + orphan, 0
                    )
            self._check_up()
        if self.parent is not None and dead == self.parent:
            self._reparent(failed)

    def _reparent(self, failed: set[int]) -> None:
        if self._release_req is not None and not self._release_req.completed:
            self.ctx.rt(self.local).cancel_recv(self._release_req)
            self._release_req = None
        ancestor = nearest_live_ancestor(self.tree, self.local, failed)
        self.parent = ancestor
        if ancestor is None:
            # Whole ancestor chain is dead: act as this subtree's root.
            self.handle.report.note(
                f"rank {self.local}: no live ancestor, completing barrier as "
                f"subtree root"
            )
            self._check_up()
            return
        if not self.released:
            self._post_release_recv(ancestor)
        if self.sent_up:
            # The up-notification went into a corpse; replay it to the
            # adopter (which posted a matching recv at adoption time).
            self.ctx.isend(
                self.local, ancestor, self.base_tag + self.local, 0
            )
        else:
            self._check_up()


def barrier_adapt(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks=None,
) -> CollectiveHandle:
    """Tree barrier: zero-byte gather up, zero-byte release down."""
    tree = ctx.tree
    assert tree is not None and tree.root == ctx.root
    comm = ctx.comm
    P = comm.size
    first_call = handle is None
    handle = handle or new_handle(ctx, "barrier-adapt")
    if first_call:
        ctx.scratch = ctx.world.allocate_tags(2 * P)
    return launch_ranks(ctx, handle, ranks, _AdaptBarrierRank, ctx.scratch)
