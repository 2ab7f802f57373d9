"""Epoch-restart recovery: shrink, re-graft, relaunch.

Aggregation collectives cannot always be repaired *in place*: a reduce fold
is not invertible (a dead rank's partial may already be mixed into an
ancestor's accumulator), and a gather adopter that already forwarded its
subtree range upward cannot retroactively splice an orphan's block in. For
these, ULFM's recipe is shrink-and-retry: agree on the failed set
(:mod:`repro.recovery.membership`), rebuild the communication structure
over the survivors, and run the collective again at a bumped epoch.

:class:`EpochRestart` drives that loop for one collective launch:

* **attempt 0** is the original algorithm on the original context — the
  fault-free path is byte-identical to a non-recovering launch;
* each committed :class:`~repro.recovery.membership.SurvivorView` relaunches
  the collective among the survivors on a *fresh* context (fresh tag block,
  so stale attempts can never cross-match) with the original tree re-grafted
  around the dead (:func:`repro.trees.regraft.regraft_tree`);
* stale attempts are never cancelled — their completions are discarded by an
  epoch check, their pending traffic quiesces on its own (rendezvous into a
  corpse is abandoned by the reliable transport, eager into a corpse is
  dropped at arrival);
* a survivor that completed an earlier attempt is *re-marked* with the newer
  attempt's time and payload, so the outer handle always reflects the
  highest committed epoch.

Ring collectives (allgather, reduce-scatter) have no tree to re-graft;
their restart attempts run the survivor-ring variants defined here, which
ring over the member subset while keeping the original P-way block layout
(dead-origin blocks zero-filled / dropped from the fold).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.collectives.base import (
    CollectiveContext,
    CollectiveHandle,
    new_handle,
)
from repro.collectives.segmentation import block_ranges
from repro.recovery.membership import SurvivorView, ensure_membership
from repro.trees.regraft import regraft_tree


class EpochRestart:
    """Drives shrink-and-retry recovery for one collective launch.

    ``launch0(ctx)`` runs attempt 0 (the unmodified algorithm);
    ``relaunch(ctx_e, members)`` runs an epoch-``e`` attempt among the
    survivor ``members`` (sorted local ranks) on a fresh context whose tree,
    if any, is the original re-grafted around the agreed-dead ranks.
    ``root_required`` collectives (reduce, gather, allreduce — results
    funnel through ``ctx.root``) are unrecoverable if the root itself dies:
    the driver notes it and excuses the incomplete survivors instead of
    restarting.
    """

    def __init__(
        self,
        ctx: CollectiveContext,
        name: str,
        launch0: Callable[[CollectiveContext], CollectiveHandle],
        relaunch: Callable[[CollectiveContext, list], CollectiveHandle],
        root_required: bool = True,
    ):
        self.ctx = ctx
        self.handle = new_handle(ctx, name)
        self.relaunch = relaunch
        self.root_required = root_required
        #: Epoch whose attempt's completions currently feed the outer handle.
        self.epoch = 0
        self._seen_epoch = 0
        self.attempts = 1
        ms = ensure_membership(ctx.world)
        self.membership = ms
        self._wire(launch0(ctx), 0)
        ms.subscribe(self._on_view)

    # -- attempt plumbing -----------------------------------------------------

    def _wire(self, inner: CollectiveHandle, epoch: int) -> None:
        def forward(local: int, t: float) -> None:
            self._attempt_done(epoch, local, t, inner)

        inner.on_rank_done.append(forward)
        for local, t in list(inner.done_time.items()):
            forward(local, t)

    def _attempt_done(
        self, epoch: int, local: int, t: float, inner: CollectiveHandle
    ) -> None:
        if epoch != self.epoch:
            return  # a stale attempt limping to completion
        out = inner.output.get(local)
        h = self.handle
        if local in h.done_time:
            # Re-mark: the survivor completed an earlier attempt too; the
            # newer epoch's result supersedes it (span callbacks already
            # fired once — not repeated).
            h.done_time[local] = t
            if out is not None:
                h.output[local] = out
        else:
            h.mark_done(local, t, out)

    # -- view handling --------------------------------------------------------

    def _on_view(self, view: SurvivorView) -> None:
        if view.epoch <= self._seen_epoch:
            return
        self._seen_epoch = view.epoch
        ctx = self.ctx
        comm = ctx.comm
        failed_locals = {
            comm.local_rank(w) for w in view.failed if w in comm
        }
        h = self.handle
        rep = h.report
        rep.degraded = True
        rep.failed_ranks |= failed_locals
        rep.agreed_failed = set(failed_locals)
        rep.epoch = view.epoch
        for dead in sorted(failed_locals):
            h.excuse(dead)
        if self.root_required and ctx.root in failed_locals:
            rep.note(
                f"root {ctx.root} failed: result unrecoverable, no restart"
            )
            for local in range(comm.size):
                if local not in h.done_time:
                    h.excuse(local)
            self.epoch = view.epoch
            return
        members = sorted(set(range(comm.size)) - failed_locals)
        if not members:
            self.epoch = view.epoch
            return
        rep.note(
            f"epoch {view.epoch}: restarting among {len(members)} survivors"
        )
        self.epoch = view.epoch
        self.attempts += 1
        self._wire(self.relaunch(self._make_ctx(failed_locals), members),
                   view.epoch)

    def _make_ctx(self, failed_locals: set) -> CollectiveContext:
        ctx = self.ctx
        tree_e = None
        if ctx.tree is not None:
            tree_e = regraft_tree(ctx.tree, failed_locals).survivor
        return CollectiveContext(
            ctx.comm, ctx.root, ctx.nbytes, ctx.config, tree=tree_e,
            data=ctx.data, op=ctx.op, reduce_on_gpu=ctx.reduce_on_gpu,
            host_staging=set(ctx.host_staging),
        )


# -- survivor-ring restart variants -----------------------------------------


def allgather_ring_members(
    ctx: CollectiveContext, members: list
) -> CollectiveHandle:
    """Ring allgather over a survivor subset.

    Keeps the original P-way block layout: member m contributes
    ``ctx.data[m]`` (block m); every member ends with the full ``nbytes``
    buffer, dead-origin blocks zero-filled. Blocks travel the survivor ring
    tagged by origin rank — each origin crosses each edge at most once, so
    ``base + origin`` is collision-free per (src, dst) pair.
    """
    comm = ctx.comm
    P = comm.size
    K = len(members)
    handle = new_handle(ctx, "allgather-ring-members")
    blocks = block_ranges(ctx.nbytes, P)
    base_tag = ctx.world.allocate_tags(P)
    member_set = set(members)

    if K == 1:
        local = members[0]
        out = _zero_filled(ctx, blocks, {local: _own_block(ctx, local)}, P)
        handle.mark_done(local, ctx.world.engine.now, out)
        return handle

    def start_rank(pos: int) -> None:
        local = members[pos]
        right = members[(pos + 1) % K]
        left = members[(pos - 1) % K]
        have: dict[int, Any] = {local: _own_block(ctx, local)}
        state = {"collected": 1, "sends_done": 0}

        def maybe_done() -> None:
            if state["collected"] == K and state["sends_done"] == K - 1:
                out = _zero_filled(ctx, blocks, have, P)
                handle.mark_done(local, ctx.world.engine.now, out)

        def send_block(origin: int) -> None:
            req = ctx.isend(
                local, right, base_tag + origin, blocks[origin][1],
                have.get(origin),
            )
            req.add_callback(lambda r: (_sent(), None)[1])

        def _sent() -> None:
            state["sends_done"] += 1
            maybe_done()

        def post_recv(origin: int) -> None:
            req = ctx.irecv(local, left, base_tag + origin, blocks[origin][1])

            def on_recv(r, origin=origin) -> None:
                have[origin] = (
                    np.asarray(r.data).reshape(-1).view(np.uint8)
                    if (ctx.carry() and r.data is not None)
                    else None
                )
                state["collected"] += 1
                if origin != right:
                    send_block(origin)
                maybe_done()

            req.add_callback(on_recv)

        for origin in members:
            if origin != local:
                post_recv(origin)
        send_block(local)
        maybe_done()

    for pos in range(K):
        ctx.rt(members[pos]).cpu.when_available(start_rank, pos)
    return handle


def _own_block(ctx: CollectiveContext, local: int) -> Any:
    own = ctx.data.get(local) if (ctx.carry() and ctx.data) else None
    return (
        np.asarray(own).reshape(-1).view(np.uint8) if own is not None else None
    )


def _zero_filled(
    ctx: CollectiveContext, blocks: list, have: dict, P: int
) -> Any:
    if not ctx.carry():
        return None
    parts = []
    for b in range(P):
        blk = have.get(b)
        parts.append(
            blk if blk is not None else np.zeros(blocks[b][1], dtype=np.uint8)
        )
    return np.concatenate(parts) if parts else None


def reduce_scatter_ring_members(
    ctx: CollectiveContext, members: list
) -> CollectiveHandle:
    """Ring reduce-scatter over a survivor subset.

    Every member contributes its full ``nbytes`` vector; member m ends with
    the original block m of the elementwise reduction *over the survivor
    contributions only* (dead contributions are simply absent from the
    fold). The ring is indexed by member position; block indices stay in the
    original P-way layout.
    """
    comm = ctx.comm
    P = comm.size
    K = len(members)
    handle = new_handle(ctx, "reduce-scatter-ring-members")
    blocks = block_ranges(ctx.nbytes, P)
    base_tag = ctx.world.allocate_tags(P * P)

    if K == 1:
        local = members[0]
        vec = _own_vec(ctx, local)
        out = None
        if vec is not None:
            off, ln = blocks[local]
            out = vec[off : off + ln].copy()
        handle.mark_done(local, ctx.world.engine.now, out)
        return handle

    def start_rank(pos: int) -> None:
        local = members[pos]
        right = members[(pos + 1) % K]
        left = members[(pos - 1) % K]
        vec = _own_vec(ctx, local)
        state = {"step": 0, "sends_done": 0, "finished": False}

        def block_view(b: int):
            if vec is None:
                return None
            off, ln = blocks[b]
            return vec[off : off + ln]

        def maybe_done() -> None:
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
            # Position arithmetic mirrors the full ring: the final folded
            # block at position i is members[i] — each member's own block.
            send_b = members[(pos - s - 1) % K]
            recv_b = members[(pos - s - 2) % K]
            sreq = ctx.isend(
                local, right, base_tag + P * s + send_b, blocks[send_b][1],
                block_view(send_b),
            )
            sreq.add_callback(lambda r: (_sent(), None)[1])
            rreq = ctx.irecv(
                local, left, base_tag + P * s + recv_b, blocks[recv_b][1]
            )

            def on_recv(r, recv_b=recv_b) -> None:
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

    for pos in range(K):
        ctx.rt(members[pos]).cpu.when_available(start_rank, pos)
    return handle


def _own_vec(ctx: CollectiveContext, local: int) -> Any:
    own = ctx.data.get(local) if (ctx.carry() and ctx.data) else None
    return (
        np.asarray(own).reshape(-1).view(np.uint8).copy()
        if own is not None
        else None
    )
