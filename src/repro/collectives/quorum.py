"""Bounded-staleness quorum collectives (DESIGN.md S25).

Three relaxed operations, registered beside the nine exact ADAPT
collectives in :data:`~repro.collectives.models.COLLECTIVES`:

* :func:`reduce_quorum` — flat contribution ingest at the root: every rank
  streams its segments straight to the root, which folds whole
  contributions in arrival order and **closes the quorum** the moment
  enough ranks have fully contributed. Stragglers keep running; their
  contributions either merge into a later epoch's reduction (within the
  staleness window) or are discarded with an accounting entry.
* :func:`bcast_quorum` — the exact ADAPT tree broadcast wrapped in a quorum
  watcher: the operation completes at the q-th delivery; the remaining
  deliveries still happen (nothing is lost) and are booked as late.
* :func:`allreduce_quorum` — quorum ingest chained into an exact ADAPT
  broadcast of the partial reduction, with the completion quorum applied to
  the deliveries as well.

The ingest is deliberately a star, not a tree: a tree cannot complete at a
quorum without timeouts (a slow interior rank gates its whole subtree),
while flat ingest lets a straggler simply arrive late. Fold order is
arrival order — exact for the carried ``uint8`` SUM (mod-256) and MAX
payloads, so with ``quorum=1.0`` and no faults every operation is
bit-identical to its exact ADAPT counterpart.

Robustness composition: fail-stop ranks and phi-detector (false)
confirmations *shrink* the quorum target instead of hanging the operation
or triggering recovery; retractions restore it. ``min_quorum`` is the floor
below which the op stops trading completeness for latency and degrades to
the PR 5 semantics — complete with every live contribution, ``degraded``
set on the report.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.collectives.adapt import bcast_adapt
from repro.collectives.base import (
    CollectiveContext,
    CollectiveHandle,
    new_handle,
)
from repro.collectives.segmentation import segment_sizes
from repro.mpi.payload import assemble_payload, slice_payload
from repro.relaxed.frontier import (
    DISCARDED,
    LATE,
    ON_TIME,
    OPEN,
    StalenessFrontier,
    ensure_frontier,
)
from repro.relaxed.policy import QuorumPolicy
from repro.trees import Tree


class _QuorumDriver:
    """Shared quorum bookkeeping: target, failures, epoch, close notes."""

    def __init__(
        self, ctx: CollectiveContext, handle: CollectiveHandle,
        policy: QuorumPolicy, name: str,
    ):
        self.ctx = ctx
        self.handle = handle
        self.policy = policy
        self.name = name
        self.P = ctx.comm.size
        self.root = ctx.root
        self.frontier: StalenessFrontier = ensure_frontier(ctx.world)
        self.closed = False
        self.launched: set[int] = set()
        self.contributed: set[int] = set()
        self.failed: set[int] = set()
        self.degraded_floor = False
        self._obs = ctx.world.obs
        # Failure events are subscribed on *every* rank's CPU (first
        # delivery wins, handling is idempotent): the quorum decision must
        # survive the completion point itself being the dead or stalled
        # rank.
        for local in range(self.P):
            ctx.subscribe_failures(local, self._on_failure,
                                   alive_fn=self._on_alive)

    def _wrank(self, local: int) -> int:
        return self.ctx.comm.world_rank(local)

    def _target(self) -> int:
        """Contributions needed to close, under the current failed set."""
        alive = self.P - len(self.failed)
        floor = self.policy.floor(self.P)
        if alive < floor:
            if not self.degraded_floor:
                self.degraded_floor = True
                rep = self.handle.report
                rep.degraded = True
                rep.note(
                    f"{self.name}: {alive} live rank(s) below min_quorum "
                    f"{floor}; degraded to all-live completion"
                )
            return max(alive, 1)
        return max(min(self.policy.resolve(self.P), alive), 1)

    def _seal(self) -> None:
        """Common close bookkeeping: provenance, excusals, epoch span."""
        rep = self.handle.report
        rep.contributed_ranks = set(self.contributed)
        excluded = sorted(
            local for local in range(self.P)
            if local not in self.contributed
        )
        if excluded:
            rep.note(
                f"{self.name}: quorum {len(self.contributed)}/{self.P} "
                f"closed; excluded {excluded}"
            )
        for local in range(self.P):
            if local not in self.handle.done_time:
                self.handle.excuse(local)
        self.frontier.close_epoch(
            self.epoch, name=self.name,
            contributed=len(self.contributed), excluded=len(excluded),
        )
        if self._obs is not None:
            self._obs.count("quorum.epochs_closed")

    # -- failure surface -----------------------------------------------------

    def _on_failure(self, dead: int) -> None:
        """Idempotent; may run on any rank's CPU (first delivery wins)."""
        if dead in self.failed or self.closed:
            if dead not in self.failed:
                self.failed.add(dead)
            return
        self.failed.add(dead)
        rep = self.handle.report
        rep.degraded = True
        rep.failed_ranks.add(dead)
        self.handle.excuse(dead)
        if dead == self.root:
            self._on_root_death()
            return
        self._check_close()

    def _on_alive(self, back: int) -> None:
        """Retraction: restore the quorum target; repair stays in force."""
        if back not in self.failed:
            return
        self.failed.discard(back)
        self.handle.report.retractions.add(back)

    def _abandon(self, why: str) -> None:
        """The completion point is gone: account and release everything.

        Contributions still open in this epoch can never merge (their
        destination died), so they are explicitly discarded — the
        conservation rule holds even for an unrecoverable operation.
        """
        self.closed = True
        ledger = self.frontier.ledger
        for local in sorted(self.launched):
            w = self._wrank(local)
            if ledger.entries.get((self.epoch, w)) == OPEN and local not in self.failed:
                ledger.close(self.epoch, w, DISCARDED)
                self.handle.report.late_merges.append((local, self.epoch, -1))
        self.handle.abandon(f"{self.name}: {why}")
        self.frontier.close_epoch(
            self.epoch, name=self.name,
            contributed=len(self.contributed),
            excluded=self.P - len(self.contributed),
        )

    # Subclass hooks.

    def _on_root_death(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _check_close(self) -> None:  # pragma: no cover - overridden
        """Close if the contributions reach the (possibly shrunk) target."""
        raise NotImplementedError


class _QuorumSenderRank:
    """Non-root rank of the flat ingest: stream segments to the root."""

    def __init__(self, ingest: "_QuorumIngest", local: int):
        self.ingest = ingest
        self.local = local
        ctx = ingest.ctx
        own = ctx.data.get(local) if (ctx.carry() and ctx.data) else None
        self.segs: list[Any] = list(slice_payload(own, ingest.sizes))
        self.next_seg = 0
        self.inflight = 0
        self.sends_done = 0

    def _start(self) -> None:
        self._fill()

    def _fill(self) -> None:
        ctx = self.ingest.ctx
        while (
            self.inflight < ctx.config.inflight_sends
            and self.next_seg < self.ingest.nseg
        ):
            seg = self.next_seg
            self.next_seg += 1
            self.inflight += 1
            self._check_window()
            req = ctx.isend(
                self.local, self.ingest.root, ctx.seg_tag(seg),
                self.ingest.sizes[seg], self.segs[seg],
            )
            req.add_callback(lambda r: self._on_send_done())

    def _check_window(self) -> None:
        sanitizer = self.ingest.ctx.world.sanitizer
        if sanitizer is not None:
            sanitizer.window(
                self.local, self.ingest.root, self.inflight,
                self.ingest.ctx.config.inflight_sends,
            )

    def _on_send_done(self) -> None:
        self.inflight -= 1
        self.sends_done += 1
        self._check_window()
        self._fill()
        if self.sends_done >= self.ingest.nseg:
            self.ingest._on_sender_finished(self.local)


class _QuorumIngest(_QuorumDriver):
    """Root-side flat ingest shared by reduce_quorum and allreduce_quorum.

    A contribution is *atomic*: the root buffers a rank's segments and folds
    them in one charged step only once all have arrived, so the result's
    provenance (``contributed_ranks``) is exact — no rank is half-included.
    """

    #: Whether a sender's local completion marks it done on the handle
    #: (reduce: yes, like exact ADAPT; allreduce: delivery marks instead).
    sender_completes = True

    def __init__(self, ctx, handle, policy, name):
        super().__init__(ctx, handle, policy, name)
        self.sizes = segment_sizes(ctx.nbytes, ctx.config)
        self.nseg = len(self.sizes)
        self.root_started = False
        self.root_lost = False
        self.acc: list[Any] = [None] * self.nseg
        self._buffers: dict[int, dict[int, Any]] = {}
        self._next_recv: dict[int, int] = {}
        # Last: registering the sink re-offers parked stragglers to it.
        self.epoch = self.frontier.open_epoch(sink=self)
        handle.report.staleness_epoch = self.epoch

    # -- launch ---------------------------------------------------------------

    def launch(self, locals: Iterable[int]) -> None:
        ctx = self.ctx
        for local in locals:
            if local in self.launched:
                continue
            self.launched.add(local)
            w = self._wrank(local)
            self.frontier.ledger.open(self.epoch, w)
            # A rank joining a sealed epoch is late from the start: its
            # contribution is routed when (if) it completes. One joining an
            # abandoned epoch can never merge, so it is discarded now.
            if self.root_lost and local not in self.failed:
                self.frontier.ledger.close(self.epoch, w, DISCARDED)
                self.handle.report.late_merges.append((local, self.epoch, -1))
            if local == self.root:
                ctx.rt(local).cpu.when_available(self._start_root)
            else:
                sender = _QuorumSenderRank(self, local)
                ctx.rt(local).cpu.when_available(sender._start)

    def _start_root(self) -> None:
        ctx = self.ctx
        self.root_started = True
        own = ctx.data.get(self.root) if (ctx.carry() and ctx.data) else None
        self.acc = list(slice_payload(own, self.sizes))
        if not self.closed:
            self._contribute(self.root)
        for src in range(self.P):
            if src == self.root:
                continue
            self._buffers[src] = {}
            self._next_recv[src] = 0
            for _ in range(min(ctx.config.posted_recvs, self.nseg)):
                self._post_recv(src)
        # Stragglers parked while this epoch's root was still warming up
        # can merge now that the accumulator exists.
        self.frontier.drain_pending()

    # -- receive + fold -------------------------------------------------------

    def _post_recv(self, src: int) -> None:
        seg = self._next_recv[src]
        if seg >= self.nseg:
            return
        self._next_recv[src] += 1
        req = self.ctx.irecv(
            self.root, src, self.ctx.seg_tag(seg), self.sizes[seg]
        )
        req.add_callback(
            lambda r, src=src, seg=seg: self._on_recv(src, seg, r.data)
        )

    def _on_recv(self, src: int, seg: int, data: Any) -> None:
        self._post_recv(src)
        buf = self._buffers[src]
        buf[seg] = data
        if len(buf) == self.nseg:
            # Whole contribution present: one charged, provenance-atomic fold.
            self.ctx.charge_reduce(
                self.root, sum(self.sizes), self._on_folded, src
            )

    def _on_folded(self, src: int) -> None:
        if self._obs is not None:
            self._obs.count("quorum.contributions_folded")
        if self.closed:
            self.frontier.route_late(
                src, self._wrank(src), self.epoch, self._buffers[src],
                self.policy.staleness_window, report=self.handle.report,
            )
            return
        if self.ctx.carry():
            for seg, data in sorted(self._buffers[src].items()):
                self.acc[seg] = self.ctx.combine(self.acc[seg], data)
        self._contribute(src)

    def _contribute(self, local: int) -> None:
        self.contributed.add(local)
        self.frontier.ledger.close(self.epoch, self._wrank(local), ON_TIME)
        self._check_close()

    # -- late-merge sink (contributions straggling from older epochs) --------

    def accept_late(self, local: int, from_epoch: int, payload: Any) -> bool:
        if self.closed or not self.root_started:
            return False
        if self.ctx.carry() and payload is not None:
            for seg, data in sorted(payload.items()):
                self.acc[seg] = self.ctx.combine(self.acc[seg], data)
        # Charge the stale fold's arithmetic without gating the close on it.
        self.ctx.charge_reduce(self.root, sum(self.sizes))
        self.handle.report.note(
            f"{self.name}: absorbed rank {local}'s epoch-{from_epoch} "
            f"contribution into epoch {self.epoch}"
        )
        return True

    # -- close ----------------------------------------------------------------

    def _check_close(self) -> None:
        if self.closed or not self.root_started:
            return
        if len(self.contributed) < self._target():
            return
        self.closed = True
        self._seal()
        self._emit()

    def _on_root_death(self) -> None:
        self.root_lost = True
        self._abandon(f"root {self.root} died; quorum completion point lost")

    def _on_sender_finished(self, local: int) -> None:
        now = self.ctx.world.engine.now
        if not self.sender_completes:
            return
        if self.closed or local in self.handle.excused:
            self.handle.mark_late(local, now)
        else:
            self.handle.mark_done(local, now)

    def _result(self) -> Any:
        return assemble_payload(self.acc) if self.ctx.carry() else None

    def _emit(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class _QuorumReduce(_QuorumIngest):
    """reduce_quorum: emit = the root completes with the partial fold."""

    sender_completes = True

    def _emit(self) -> None:
        self.handle.mark_done(
            self.root, self.ctx.world.engine.now, self._result()
        )


class _QuorumAllreduce(_QuorumIngest):
    """allreduce_quorum: emit = ADAPT-broadcast the partial reduction, with
    the completion quorum applied to deliveries as well.

    The down-phase deliberately uses a *flat* (star) tree rather than the
    topology-aware one: quorum semantics require deliveries to be mutually
    independent, and an interior straggler in a deep tree would block every
    rank beneath it — turning one slow rank back into a barrier, exactly
    what the relaxed family exists to avoid.
    """

    sender_completes = False

    def __init__(self, ctx, handle, policy, name):
        super().__init__(ctx, handle, policy, name)
        self.delivered = 0
        self.down_closed = False
        self._inner: Optional[CollectiveHandle] = None

    def _emit(self) -> None:
        ctx = self.ctx
        tree = Tree.from_parents(
            [None if r == self.root else self.root for r in range(self.P)],
            self.root, name="flat",
        )
        bctx = CollectiveContext(
            ctx.comm, self.root, ctx.nbytes, ctx.config, tree=tree,
            data=self._result(), host_staging=ctx.host_staging,
        )
        inner = CollectiveHandle(
            name=f"{self.name}-down",
            start_time=ctx.world.engine.now, size=self.P,
        )
        inner.report = self.handle.report
        inner.on_rank_done.append(self._on_delivery)
        self._inner = inner
        bcast_adapt(bctx, handle=inner)

    def _on_delivery(self, local: int, t: float) -> None:
        """One rank's delivery, reported by the inner handle as it marks
        the rank done, so once per rank."""
        assert self._inner is not None
        if self.down_closed:
            self.handle.mark_late(local, t)
            return
        self.handle.mark_done(local, t, self._inner.output.get(local))
        self.delivered += 1
        if self.delivered < self._target():
            return
        self.down_closed = True
        for other in range(self.P):
            if other not in self.handle.done_time:
                self.handle.excuse(other)


class _QuorumBcast(_QuorumDriver):
    """bcast_quorum: exact ADAPT broadcast + a quorum completion watcher.

    Deliveries after the close still happen — a broadcast straggler loses
    nothing — and are booked as ``merged late`` into the same epoch (the
    data arrived, just after the operation sealed).
    """

    def __init__(self, ctx, handle, policy, name):
        super().__init__(ctx, handle, policy, name)
        self.epoch = self.frontier.open_epoch()
        handle.report.staleness_epoch = self.epoch
        inner = CollectiveHandle(
            name="bcast-adapt", start_time=ctx.world.engine.now, size=self.P
        )
        inner.report = handle.report
        inner.on_rank_done.append(self._on_delivery)
        self.inner = inner

    def launch(self, locals: Iterable[int]) -> None:
        fresh = [local for local in sorted(locals)
                 if local not in self.launched]
        if not fresh:
            return
        for local in fresh:
            self.launched.add(local)
            self.frontier.ledger.open(self.epoch, self._wrank(local))
        bcast_adapt(self.ctx, handle=self.inner, ranks=fresh)

    def _on_delivery(self, local: int, t: float) -> None:
        ledger = self.frontier.ledger
        w = self._wrank(local)
        if self.closed:
            if ledger.entries.get((self.epoch, w)) == OPEN:
                ledger.close(self.epoch, w, LATE)
                self.frontier.late_merged += 1
                self.handle.report.late_merges.append(
                    (local, self.epoch, self.epoch)
                )
                if self._obs is not None:
                    self._obs.count("quorum.late_merges")
            self.handle.mark_late(local, t)
            return
        ledger.close(self.epoch, w, ON_TIME)
        self.contributed.add(local)
        self.handle.mark_done(local, t, self.inner.output.get(local))
        self._check_close()

    def _check_close(self) -> None:
        if len(self.contributed) < self._target():
            return
        self.closed = True
        self._seal()

    def _on_root_death(self) -> None:
        # The inner broadcast's repair already excused the unreachable
        # ranks; without a data source the undelivered contributions are
        # gone for good.
        self._abandon(f"root {self.root} died; broadcast data lost")


def _launch(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle],
    ranks: Optional[Iterable[int]],
    policy: Optional[QuorumPolicy],
    driver_cls,
    name: str,
) -> CollectiveHandle:
    if handle is None:
        handle = new_handle(ctx, name)
        ctx.scratch = driver_cls(ctx, handle, policy or QuorumPolicy(), name)
    driver = ctx.scratch
    driver.launch(ranks if ranks is not None else range(ctx.comm.size))
    return handle


def reduce_quorum(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks: Optional[Iterable[int]] = None,
    policy: Optional[QuorumPolicy] = None,
) -> CollectiveHandle:
    """Complete-at-quorum reduce: flat ingest, arrival-order fold."""
    return _launch(ctx, handle, ranks, policy, _QuorumReduce, "reduce-quorum")


def bcast_quorum(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks: Optional[Iterable[int]] = None,
    policy: Optional[QuorumPolicy] = None,
) -> CollectiveHandle:
    """Complete-at-quorum broadcast over the exact ADAPT tree."""
    return _launch(ctx, handle, ranks, policy, _QuorumBcast, "bcast-quorum")


def allreduce_quorum(
    ctx: CollectiveContext,
    handle: Optional[CollectiveHandle] = None,
    ranks: Optional[Iterable[int]] = None,
    policy: Optional[QuorumPolicy] = None,
) -> CollectiveHandle:
    """Complete-at-quorum allreduce: quorum ingest + ADAPT broadcast down."""
    return _launch(
        ctx, handle, ranks, policy, _QuorumAllreduce, "allreduce-quorum"
    )
