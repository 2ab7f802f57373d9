"""ADAPT event-driven collectives — the paper's core contribution
(Algorithm 3 / Figure 4).

No rank ever waits. Completion callbacks attached to low-level non-blocking
operations post the next operations, keeping, per rank:

* **segment independence** — up to ``N`` sends in flight per child, refilled
  from the segment pool as each completes; ``M > N`` receives pre-posted from
  the parent so segments never arrive unexpected (Section 2.2.1);
* **child independence** — every child has its own ready-queue and in-flight
  window, so a slow child never throttles its siblings (Section 2.2.2).

A collective is "complete" on a rank when its recvs, sends, reductions and
(GPU runs) staging flushes have all drained — mirroring the single Open MPI
request ADAPT keeps per collective.

GPU extensions (Section 4): ranks in ``ctx.host_staging`` (node leaders and
the root) receive and send through an explicit CPU buffer, so one PCIe
device-to-host pull serves all outgoing copies, and the segment is flushed to
the leader's own GPU by an asynchronous copy that overlaps with forwarding.
Reductions may be offloaded to simulated CUDA streams
(``ctx.reduce_on_gpu``), freeing the host CPU (Section 4.2).

Degraded mode (DESIGN.md S17): when a failure detector is attached to the
world, every rank state machine hears of failures through the shared launch
helper (:func:`~repro.collectives.base.launch_ranks`), which does the common
bookkeeping and calls the state's ``repair(dead)``. The event-driven structure
is what makes recovery local: completion state is per-segment and per-child,
so routing around a dead rank means editing a child list and replaying a
``have``-set — no global restart.

* **bcast**: the dead rank's parent adopts its live descendants (walking
  through consecutive dead ranks) and replays every segment it holds to
  them; each orphan cancels its receives from the dead parent and re-posts
  the full segment range from its nearest live ancestor, its ``have`` set
  suppressing re-forwarding of segments that arrived twice. An orphan
  with no live ancestor that still misses segments lost them with the
  root: it abandons the launch (the handle's report is unrecoverable).
* **reduce**: the dead rank's parent drops it from the contribution count
  (partial contributions already folded stay); the dead rank's children
  abandon their upward sends and complete locally — that subtree's
  contribution is lost, and the handle's :class:`CompletionReport` says so.

Blocking and ``Waitall``-based schedules have no such hook: a dead rank
leaves them waiting forever, which is the comparison the fault harness
(``repro chaos``) demonstrates.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.collectives.base import (
    CollectiveContext,
    CollectiveHandle,
    launch_ranks,
    new_handle,
)
from repro.collectives.segmentation import segment_sizes
from repro.mpi.payload import assemble_payload, slice_payload
from repro.network.fabric import MemSpace
from repro.trees.regraft import live_descendants, nearest_live_ancestor


class _AdaptBcastRank:
    """Per-rank state machine for the event-driven broadcast."""

    def __init__(self, ctx: CollectiveContext, handle: CollectiveHandle, local: int):
        self.ctx = ctx
        self.handle = handle
        self.local = local
        tree = ctx.tree
        assert tree is not None
        self.children = list(tree.children[local])
        self.parent = tree.parent[local]
        self.sizes = segment_sizes(ctx.nbytes, ctx.config)
        self.nseg = len(self.sizes)
        self.is_root = self.parent is None
        self.staged = local in ctx.host_staging
        self.payloads: list[Any] = [None] * self.nseg

        # Segments this rank holds (received, or owned by the root).
        self.have: set[int] = set()

        # Child-independent send state (Section 2.2.2). ``sent_done`` counts
        # completed sends per child: completion is per child (quota nseg),
        # not a static product, so the child list may change under faults.
        self.ready: dict[int, list[int]] = {c: [] for c in self.children}
        self.inflight: dict[int, int] = {c: 0 for c in self.children}
        self.sent_done: dict[int, int] = {c: 0 for c in self.children}

        # Receive state: a window of M pre-posted recvs from the parent.
        self.next_recv = 0
        self.recvs_out = 0
        self._recv_pending: dict[int, Any] = {}  # seg -> Request

        # GPU staging flush state (non-root leaders must land data in their
        # own GPU; the root's data already lives there). Dynamic: one flush
        # per first receipt of a segment.
        self.flushes_done = 0
        self.flushes_started = 0

        self.finished = False
        self._obs = ctx.world.obs  # cached: the hot callbacks test one local

    # -- helpers -------------------------------------------------------------

    def _gpu_world(self) -> bool:
        return self.ctx.world.gpu_bound

    def _start(self) -> None:
        ctx = self.ctx
        if self.is_root:
            slices = slice_payload(ctx.data if ctx.carry() else None, self.sizes)
            self.payloads = list(slices)
            if self.staged and self._gpu_world():
                # Section 4.1: the root caches segments into CPU memory
                # first; sends are fed from the cache as each pull lands.
                self._root_stage_pulls()
            else:
                for i in range(self.nseg):
                    self._own_segment(i)
        else:
            for _ in range(min(ctx.config.posted_recvs, self.nseg)):
                self._post_recv()
        self._maybe_finish()  # degenerate trees (single rank) finish here

    # -- root GPU caching ------------------------------------------------------

    def _root_stage_pulls(self) -> None:
        """Pull segments GPU -> explicit CPU buffer, window M at a time."""
        self._next_pull = 0
        for _ in range(min(self.ctx.config.posted_recvs, self.nseg)):
            self._post_pull()

    def _post_pull(self) -> None:
        if self._next_pull >= self.nseg:
            return
        seg = self._next_pull
        self._next_pull += 1
        world_rank = self.ctx.comm.world_rank(self.local)

        def on_pulled(flow, seg=seg) -> None:
            rt = self.ctx.rt(self.local)
            rt.cpu.when_available(lambda: (self._post_pull(), self._own_segment(seg)))

        self.ctx.world.fabric.start_transfer(
            world_rank, world_rank, self.sizes[seg], on_pulled,
            MemSpace.GPU, MemSpace.HOST,
        )

    # -- receive path -------------------------------------------------------------

    def _post_recv(self) -> None:
        if self.parent is None or self.next_recv >= self.nseg:
            return
        seg = self.next_recv
        self.next_recv += 1
        req = self.ctx.irecv(
            self.local, self.parent, self.ctx.seg_tag(seg), self.sizes[seg]
        )
        self.recvs_out += 1
        self._recv_pending[seg] = req
        req.add_callback(lambda r, seg=seg: self._on_recv(seg, r.data))

    def _on_recv(self, seg: int, data: Any) -> None:
        self.recvs_out -= 1
        self._recv_pending.pop(seg, None)
        self._post_recv()  # keep M outstanding
        if self._obs is not None:
            self._obs.count("adapt.bcast.segments_received")
        if seg not in self.have:
            self.payloads[seg] = data
            if self.staged and self._gpu_world() and not self.is_root:
                self.flushes_started += 1
                self._flush_to_gpu(seg)
            self._own_segment(seg)
        # else: a recovery re-send of a segment the dead parent already
        # delivered — absorbed, not re-forwarded.
        self._maybe_finish()

    def _flush_to_gpu(self, seg: int) -> None:
        """Asynchronously copy a cached segment host -> own GPU."""
        world_rank = self.ctx.comm.world_rank(self.local)

        def on_flushed(flow) -> None:
            self.flushes_done += 1
            self._maybe_finish()

        self.ctx.world.fabric.start_transfer(
            world_rank, world_rank, self.sizes[seg], on_flushed,
            MemSpace.HOST, MemSpace.GPU,
        )

    # -- send path -----------------------------------------------------------------

    def _own_segment(self, seg: int) -> None:
        self.have.add(seg)
        for child in list(self.children):
            self.ready[child].append(seg)
            self._try_send(child)

    def _try_send(self, child: int) -> None:
        ctx = self.ctx
        while self.inflight[child] < ctx.config.inflight_sends and self.ready[child]:
            seg = self.ready[child].pop(0)
            self.inflight[child] += 1
            self._check_window(child)
            req = ctx.isend(
                self.local, child, ctx.seg_tag(seg), self.sizes[seg], self.payloads[seg]
            )
            req.add_callback(lambda r, child=child: self._on_send_done(child))

    def _check_window(self, child: int) -> None:
        sanitizer = self.ctx.world.sanitizer
        if sanitizer is not None:
            sanitizer.window(
                self.local, child, self.inflight[child],
                self.ctx.config.inflight_sends,
            )

    def _on_send_done(self, child: int) -> None:
        if self._obs is not None:
            self._obs.count("adapt.bcast.segments_forwarded")
        if child in self.inflight:
            self.inflight[child] -= 1
            self.sent_done[child] += 1
            self._check_window(child)
            self._try_send(child)
        self._maybe_finish()

    # -- failure handling ---------------------------------------------------------

    def repair(self, dead: int) -> None:
        """Route around a dead child or parent (runs on this rank's CPU)."""
        if dead in self.children:
            self._adopt_orphans_of(dead)
        if self.parent is not None and dead == self.parent:
            self._reparent()

    def _adopt_orphans_of(self, dead: int) -> None:
        self.children.remove(dead)
        self.ready.pop(dead, None)
        self.inflight.pop(dead, None)
        self.sent_done.pop(dead, None)
        failed = self.ctx.failed_locals()
        # No orphan is a child already: children only ever give way to their
        # own live descendants, so no child lies below another.
        for orphan in live_descendants(self.ctx.tree, dead, failed):
            self.children.append(orphan)
            # Replay everything held so far; segments received later are
            # forwarded by the normal path, so the orphan's quota is nseg.
            self.ready[orphan] = sorted(self.have)
            self.inflight[orphan] = 0
            self.sent_done[orphan] = 0
            self.handle.report.adoptions.append((self.local, orphan))
            self._try_send(orphan)
        self._maybe_finish()

    def _reparent(self) -> None:
        """Parent died: re-post the full segment range from the nearest live
        ancestor (who, symmetrically, adopted this rank)."""
        rt = self.ctx.rt(self.local)
        for seg, req in list(self._recv_pending.items()):
            if req.completed:
                continue  # its callback is already queued on this CPU
            rt.cancel_recv(req)
            self.recvs_out -= 1
            del self._recv_pending[seg]
        ancestor = nearest_live_ancestor(
            self.ctx.tree, self.local, self.ctx.failed_locals()
        )
        if ancestor is None:
            self.parent = None
            if len(self.have) < self.nseg:
                # The root chain is dead and the data source with it, for
                # this rank and every rank still waiting below it.
                self.handle.abandon(
                    f"root {self.ctx.root} died; broadcast data lost"
                )
            return
        self.parent = ancestor
        # Re-post the full range: the adopter replays all segments (it
        # cannot know which ones the dead parent delivered), and the ``have``
        # set absorbs the duplicates.
        self.next_recv = 0
        for _ in range(min(self.ctx.config.posted_recvs, self.nseg)):
            self._post_recv()

    # -- completion ---------------------------------------------------------------------

    def _maybe_finish(self) -> None:
        if self.finished:
            return
        if len(self.have) < self.nseg:
            return
        if self.recvs_out > 0:
            return
        if self.flushes_done < self.flushes_started:
            return
        for child in self.children:
            if self.sent_done[child] < self.nseg:
                return
        self.finished = True
        if self.ctx.carry():
            out = self.ctx.data if self.is_root else assemble_payload(self.payloads)
        else:
            out = None
        self.handle.mark_done(self.local, self.ctx.world.engine.now, out)


def bcast_adapt(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks: Optional[Iterable[int]] = None,
) -> CollectiveHandle:
    """Event-driven pipelined tree broadcast (Figure 4)."""
    tree = ctx.tree
    assert tree is not None and tree.root == ctx.root
    handle = handle or new_handle(ctx, "bcast-adapt")
    return launch_ranks(ctx, handle, ranks, _AdaptBcastRank)


class _AdaptReduceRank:
    """Per-rank state machine for the event-driven reduce.

    Mirrors the broadcast: per-child receive windows of ``M`` segments,
    reduction work charged per contribution (CPU, or CUDA streams when
    offloaded — Section 4.2), a per-parent send window of ``N``. A segment
    closes when every *current* child contributed, so a child's death
    reopens nothing and closes whatever it alone was holding up.
    """

    def __init__(self, ctx: CollectiveContext, handle: CollectiveHandle, local: int):
        self.ctx = ctx
        self.handle = handle
        self.local = local
        tree = ctx.tree
        assert tree is not None
        self.children = list(tree.children[local])
        self.parent = tree.parent[local]
        self.sizes = segment_sizes(ctx.nbytes, ctx.config)
        self.nseg = len(self.sizes)
        own = ctx.data.get(local) if (ctx.carry() and ctx.data) else None
        self.acc: list[Any] = list(slice_payload(own, self.sizes))

        self.contributions = [0] * self.nseg
        self.seg_closed = [False] * self.nseg
        self.next_recv = {c: 0 for c in self.children}
        self._recv_pending: dict[tuple[int, int], Any] = {}  # (child, seg) -> Request
        self.sends_done = 0
        self.inflight_up = 0
        self.ready_up: list[int] = []
        self.segments_reduced = 0
        self.parent_lost = False
        self.finished = False
        self._obs = ctx.world.obs

    def _start(self) -> None:
        for child in self.children:
            for _ in range(min(self.ctx.config.posted_recvs, self.nseg)):
                self._post_recv(child)
        # Leaves (no children) close every segment immediately and stream
        # them up, window N; the single-rank root completes here.
        for seg in range(self.nseg):
            self._check_seg(seg)

    def _post_recv(self, child: int) -> None:
        if child not in self.next_recv:
            return  # child died and was dropped
        seg = self.next_recv[child]
        if seg >= self.nseg:
            return
        self.next_recv[child] += 1
        req = self.ctx.irecv(self.local, child, self.ctx.seg_tag(seg), self.sizes[seg])
        self._recv_pending[(child, seg)] = req
        req.add_callback(lambda r, child=child, seg=seg: self._on_recv(child, seg, r.data))

    def _on_recv(self, child: int, seg: int, data: Any) -> None:
        self._recv_pending.pop((child, seg), None)
        self._post_recv(child)
        # Fold this contribution into the accumulator; arithmetic cost is
        # charged to the CPU or offloaded to a CUDA stream.
        if self.ctx.carry():
            self.acc[seg] = self.ctx.combine(self.acc[seg], data)
        self.ctx.charge_reduce(
            self.local, self.sizes[seg], self._on_reduced, seg,
            tag=self.ctx.seg_tag(seg),
        )

    def _on_reduced(self, seg: int) -> None:
        if self._obs is not None:
            self._obs.count("adapt.reduce.contributions_folded")
        self.contributions[seg] += 1
        self._check_seg(seg)

    def _check_seg(self, seg: int) -> None:
        if self.seg_closed[seg] or self.contributions[seg] < len(self.children):
            return
        self.seg_closed[seg] = True
        self.segments_reduced += 1
        if self._obs is not None:
            self._obs.count("adapt.reduce.segments_closed")
        if self.parent is not None and not self.parent_lost:
            self.ready_up.append(seg)
            self._try_send_up()
        self._maybe_finish()

    def _try_send_up(self) -> None:
        ctx = self.ctx
        assert self.parent is not None
        while self.inflight_up < ctx.config.inflight_sends and self.ready_up:
            seg = self.ready_up.pop(0)
            self.inflight_up += 1
            self._check_window()
            req = ctx.isend(
                self.local, self.parent, ctx.seg_tag(seg), self.sizes[seg], self.acc[seg]
            )
            req.add_callback(lambda r: self._on_send_done())

    def _check_window(self) -> None:
        sanitizer = self.ctx.world.sanitizer
        if sanitizer is not None:
            sanitizer.window(
                self.local, self.parent, self.inflight_up,
                self.ctx.config.inflight_sends,
            )

    def _on_send_done(self) -> None:
        self.inflight_up -= 1
        self.sends_done += 1
        self._check_window()
        if not self.parent_lost:
            self._try_send_up()
        self._maybe_finish()

    # -- failure handling ---------------------------------------------------------

    def repair(self, dead: int) -> None:
        """Drop a dead child or abandon a dead parent (this rank's CPU)."""
        if dead in self.children:
            self._drop_child(dead)
        if self.parent is not None and dead == self.parent:
            self._abandon_upward(dead)

    def _drop_child(self, dead: int) -> None:
        """Skip the dead subtree: contributions it already delivered stay
        folded; segments it was holding up close without it."""
        self.children.remove(dead)
        self.next_recv.pop(dead, None)
        rt = self.ctx.rt(self.local)
        for (child, seg), req in list(self._recv_pending.items()):
            if child != dead or req.completed:
                continue
            rt.cancel_recv(req)
            del self._recv_pending[(child, seg)]
        self.handle.report.note(
            f"rank {self.local}: dead child {dead}'s remaining contribution skipped"
        )
        for seg in range(self.nseg):
            self._check_seg(seg)

    def _abandon_upward(self, dead: int) -> None:
        """Parent died: this subtree's contribution has nowhere to go. Finish
        collecting from the children (their sends need draining) and complete
        locally, like a root without a result."""
        self.parent_lost = True
        self.ready_up.clear()
        self.handle.report.lost_subtrees.append(self.local)
        self.handle.report.note(
            f"rank {self.local}: parent {dead} died, subtree contribution lost"
        )
        self._maybe_finish()

    # -- completion ---------------------------------------------------------------------

    def _maybe_finish(self) -> None:
        if self.finished:
            return
        if self.parent is not None and not self.parent_lost:
            done = self.sends_done >= self.nseg
        else:
            done = self.segments_reduced >= self.nseg
        if done:
            self.finished = True
            out = (
                assemble_payload(self.acc)
                if (self.ctx.carry() and self.parent is None)
                else None
            )
            self.handle.mark_done(self.local, self.ctx.world.engine.now, out)


def reduce_adapt(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks: Optional[Iterable[int]] = None,
) -> CollectiveHandle:
    """Event-driven pipelined tree reduce."""
    tree = ctx.tree
    assert tree is not None and tree.root == ctx.root
    handle = handle or new_handle(ctx, "reduce-adapt")
    return launch_ranks(ctx, handle, ranks, _AdaptReduceRank)
