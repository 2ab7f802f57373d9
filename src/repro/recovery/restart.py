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
a restart reruns the same ring over the survivor members, keeping the
original P-way block layout (dead-origin blocks zero-filled / dropped from
the fold).

A tree collective whose root dies has nothing to restart from: the driver
abandons its handle, and the iteration is *unrecoverable* (DESIGN.md S17).
"""

from __future__ import annotations

from typing import Callable

from repro.collectives.base import (
    CollectiveContext,
    CollectiveHandle,
    new_handle,
)
from repro.recovery.membership import SurvivorView, ensure_membership
from repro.trees.regraft import regraft_tree


def book_view(handle: CollectiveHandle, comm, view: SurvivorView) -> set[int]:
    """Record a committed survivor view on ``handle``: its agreed dead
    (returned as local ranks) are failed and excused."""
    failed = {comm.local_rank(w) for w in view.failed if w in comm}
    rep = handle.report
    if failed:
        rep.degraded = True
        rep.failed_ranks |= failed
    rep.agreed_failed = set(failed)
    rep.epoch = view.epoch
    for dead in sorted(failed):
        handle.excuse(dead)
    return failed


class EpochRestart:
    """Drives shrink-and-retry recovery for one collective launch.

    ``launch0(ctx)`` runs attempt 0 (the unmodified algorithm);
    ``relaunch(ctx_e, members)`` runs an epoch-``e`` attempt among the
    survivor ``members`` (sorted local ranks) on a fresh context whose tree,
    if any, is the original re-grafted around the agreed-dead ranks.
    ``root_required`` collectives (the tree ones — results funnel through
    ``ctx.root``) are unrecoverable if the root itself dies: the driver
    abandons the handle instead of restarting.
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
        ms = ensure_membership(ctx.world)
        self._wire(launch0(ctx), 0)
        ms.subscribe(self._on_view)

    # -- attempt plumbing -----------------------------------------------------

    def _wire(self, inner: CollectiveHandle, epoch: int) -> None:
        # A launch queues each rank's start on its CPU, so ``inner`` has no
        # completion yet: forwarding the ones to come is enough.
        def forward(local: int, t: float) -> None:
            self._attempt_done(epoch, local, t, inner)

        inner.on_rank_done.append(forward)

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
        # Each committed epoch arrives once, in commit order.
        ctx, h = self.ctx, self.handle
        failed_locals = book_view(h, ctx.comm, view)
        if self.root_required and ctx.root in failed_locals:
            h.abandon(f"root {ctx.root} failed: result unrecoverable, no restart")
            self.epoch = view.epoch
            return
        members = sorted(set(range(ctx.comm.size)) - failed_locals)
        if not members:
            self.epoch = view.epoch
            return
        h.report.note(
            f"epoch {view.epoch}: restarting among {len(members)} survivors"
        )
        self.epoch = view.epoch
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

