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

All reach their ranks through :func:`~repro.collectives.base.launch_ranks`,
so every rank hears a failure (DESIGN.md S17): scatter and barrier repair in
place, gather abandons the launch, allreduce hears through its two phases.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.collectives.adapt import bcast_adapt, reduce_adapt
from repro.collectives.base import (
    CollectiveContext,
    CollectiveHandle,
    launch_ranks,
    new_handle,
    open_launch,
)
from repro.collectives.segmentation import block_ranges
from repro.mpi.payload import assemble_payload, byte_view
from repro.trees.regraft import live_descendants, nearest_live_ancestor


def _subtree(tree, rank: int) -> list[int]:
    return [rank] + list(tree.descendants(rank))


class _TreeBlockRank:
    """A rank of scatter or gather: rank r owns block r of the P-way
    layout, and a tree edge carries its subtree's range."""

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
        self.parent = tree.parent[local]

    def _subtree_bytes(self, r: int) -> int:
        return sum(self.blocks[m][1] for m in _subtree(self.tree, r))


def _launch_blocks(ctx: CollectiveContext, handle: Optional[CollectiveHandle],
                   ranks, name: str, state_cls) -> CollectiveHandle:
    assert ctx.tree is not None and ctx.tree.root == ctx.root
    P = ctx.comm.size
    handle = open_launch(ctx, handle, name, P)
    return launch_ranks(ctx, handle, ranks, state_cls, ctx.scratch,
                        block_ranges(ctx.nbytes, P))


class _AdaptScatterRank(_TreeBlockRank):
    """Per-rank state machine for the event-driven scatter.

    Degraded mode (DESIGN.md S20): a dead child's live descendants are
    adopted — their subtree ranges re-sliced out of this rank's buffer and
    re-sent; an orphan cancels its receive from the dead parent and re-posts
    the full range from its nearest live ancestor. Ranges are computed on
    the *original* tree on both sides, so adopter and orphan always agree on
    sizes regardless of when each learns of a death.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.children = list(self.tree.children[self.local])
        self.received = self.parent is None
        self.buf: Any = None
        self.sent_to: set[int] = set()
        self.sends_open: set[int] = set()
        self._recv_req: Any = None
        self.finished = False

    # -- range helpers --------------------------------------------------------

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
        self._maybe_finish()

    def _reparent(self, failed: set[int]) -> None:
        if self._recv_req is not None and not self._recv_req.completed:
            self.ctx.rt(self.local).cancel_recv(self._recv_req)
            self._recv_req = None
        ancestor = nearest_live_ancestor(self.tree, self.local, failed)
        if ancestor is None:
            self.parent = None
            if not self.received:
                # The root chain is dead and the distribution source with
                # it: nothing can deliver this subtree's range.
                self.handle.abandon(
                    f"root {self.tree.root} died; scatter range lost"
                )
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
    return _launch_blocks(ctx, handle, ranks, "scatter-adapt",
                          _AdaptScatterRank)


class _AdaptGatherRank(_TreeBlockRank):
    """Per-rank state machine for the event-driven gather: a rank forwards
    its subtree's assembled range upward once every child's is in. A death
    cannot be routed around in place (an adopter that already forwarded its
    range cannot splice an orphan's block in), so ``repair`` abandons."""

    def __init__(self, *args):
        super().__init__(*args)
        ctx, local = self.ctx, self.local
        self.pending = len(self.tree.children[local])
        own = ctx.data.get(local) if (ctx.carry() and ctx.data) else None
        self.pieces: dict[int, Any] = {local: byte_view(own)}

    def _start(self) -> None:
        for child in self.tree.children[self.local]:
            req = self.ctx.irecv(self.local, child, self.base_tag + child,
                                 self._subtree_bytes(child))
            req.add_callback(lambda r, child=child: self._on_recv(child, r))
        self._finish_or_forward()

    def _on_recv(self, child: int, r) -> None:
        buf = byte_view(r.data) if self.ctx.carry() else None
        if buf is not None:
            off = 0
            for m in sorted(_subtree(self.tree, child)):
                ln = self.blocks[m][1]
                self.pieces[m] = buf[off : off + ln]
                off += ln
        self.pending -= 1
        self._finish_or_forward()

    def _finish_or_forward(self) -> None:
        if self.pending > 0:
            return
        ctx, local = self.ctx, self.local
        out = None
        if ctx.carry():
            out = assemble_payload([self.pieces.get(m) for m in
                                    sorted(_subtree(self.tree, local))])
        if self.parent is None:
            self.handle.mark_done(local, ctx.world.engine.now, out)
            return
        req = ctx.isend(local, self.parent, self.base_tag + local,
                        self._subtree_bytes(local), out)
        req.add_callback(
            lambda r: self.handle.mark_done(local, ctx.world.engine.now, None)
        )

    def repair(self, dead: int) -> None:
        # A relaunch's re-grafted tree leaves the dead detached.
        if dead == self.tree.root or self.tree.parent[dead] is not None:
            self.handle.abandon(f"rank {dead} died; gather cannot route around it")


def gather_adapt(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks=None,
) -> CollectiveHandle:
    """Event-driven tree gather: rank r contributes ``ctx.data[r]`` (data
    mode); the root assembles blocks in communicator order."""
    return _launch_blocks(ctx, handle, ranks, "gather-adapt", _AdaptGatherRank)


def _phase(ctx: CollectiveContext, outer: CollectiveHandle, name: str,
           on_excuse) -> CollectiveHandle:
    """One phase of a composed collective: it shares ``outer``'s report,
    and hands each rank it excuses to ``on_excuse``."""
    inner = new_handle(ctx, name)
    inner.report = outer.report
    inner.on_excuse.append(on_excuse)
    return inner


def allreduce_adapt(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks=None,
) -> CollectiveHandle:
    """Event-driven allreduce: pipelined reduce to the root chained into a
    pipelined broadcast, overlapping at segment granularity.

    The phases share the allreduce's report, and a rank either excuses is
    excused here too; a root lost before the broadcast launches took the
    reduction with it, and the allreduce is abandoned (DESIGN.md S17).
    """
    tree = ctx.tree
    assert tree is not None and tree.root == ctx.root
    handle = handle or new_handle(ctx, "allreduce-adapt")

    if ctx.scratch is not None:
        # A later partial launch (the IMB loop starts ranks one by one)
        # joins the first launch's reduce, whose hooks are already in place.
        reduce_adapt(ctx, ctx.scratch, ranks)
        return handle
    root = ctx.root

    def on_reduce_excused(local: int) -> None:
        if local == root and root not in reduce_handle.done_time:
            handle.abandon(f"root {root} died before the broadcast")
        else:
            handle.excuse(local)

    reduce_handle = ctx.scratch = _phase(ctx, handle, "reduce-adapt",
                                         on_reduce_excused)

    def on_reduce_done(local: int, _time: float) -> None:
        if local != root:
            return
        # Root holds the full reduction: broadcast it back down the same
        # tree. A fresh context keeps tags distinct.
        bctx = CollectiveContext(
            ctx.comm, root, ctx.nbytes, ctx.config, tree=tree,
            data=reduce_handle.output.get(root),
            host_staging=ctx.host_staging,
        )
        bhandle = _phase(bctx, handle, "bcast-adapt", handle.excuse)
        bhandle.on_rank_done.append(
            lambda l, t: handle.mark_done(l, t, bhandle.output.get(l))
        )
        bcast_adapt(bctx, bhandle)

    reduce_handle.on_rank_done.append(on_reduce_done)
    reduce_adapt(ctx, reduce_handle, ranks)
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
    handle = open_launch(ctx, handle, "barrier-adapt", 2 * ctx.comm.size)
    return launch_ranks(ctx, handle, ranks, _AdaptBarrierRank, ctx.scratch)
