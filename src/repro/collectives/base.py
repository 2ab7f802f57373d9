"""Shared plumbing for collective implementations.

A collective *launch* registers work (proclets or callbacks) for every rank
of a communicator at the current simulated time and returns a
:class:`CollectiveHandle`; driving the world (``world.run()``) then populates
per-rank completion times and, in data mode, per-rank output payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.config import DEFAULT_COLLECTIVE, CollectiveConfig
from repro.mpi.communicator import Communicator
from repro.mpi.ops import ReduceOp
from repro.mpi.payload import combine_payloads
from repro.mpi.request import Request
from repro.mpi.runtime import RankRuntime
from repro.network.fabric import MemSpace
from repro.trees.base import Tree


@dataclass
class CompletionReport:
    """How a collective completed — degraded-mode bookkeeping (DESIGN.md S17).

    A clean run leaves the report untouched (``degraded`` False). Fault-aware
    collectives record the failures they routed around: which local ranks
    died, which live ranks adopted which orphans (bcast), and which subtree
    roots' contributions were lost (reduce — data a dead rank had not yet
    forwarded cannot be recovered; contributions it *had* already folded and
    sent stay in the result).
    """

    degraded: bool = False
    failed_ranks: set[int] = field(default_factory=set)
    adoptions: list[tuple[int, int]] = field(default_factory=list)  # (adopter, orphan)
    lost_subtrees: list[int] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    # Live recovery (DESIGN.md S20): the failed set *agreed* by the
    # membership protocol (vs ``failed_ranks``, raw detector observations
    # this collective routed around) and the epoch of the view the final
    # results belong to (0 = the original launch, never shrunk).
    agreed_failed: set[int] = field(default_factory=set)
    epoch: int = 0
    # Partition tolerance (DESIGN.md S22): local ranks the detector declared
    # failed and later *retracted* (alive-after-failed). The repair already
    # routed around them and is not undone — these are the "false kills" a
    # binary detector would have made permanent.
    retractions: set[int] = field(default_factory=set)
    # Relaxed quorum collectives (DESIGN.md S25): the local ranks whose
    # contributions made the quorum (the result's provenance), the
    # staleness-frontier epoch this operation ran as (0 = exact, no
    # frontier), and the fate of every straggler contribution as
    # ``(rank, from_epoch, into_epoch)`` — ``into_epoch`` is the epoch that
    # absorbed the late merge, or ``-1`` for an explicitly discarded
    # contribution (outside the staleness window).
    contributed_ranks: set[int] = field(default_factory=set)
    staleness_epoch: int = 0
    late_merges: list[tuple[int, int, int]] = field(default_factory=list)
    # Set by CollectiveHandle.abandon: the failure took the result with it.
    unrecoverable: bool = False

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)


@dataclass
class CollectiveHandle:
    """Observable outcome of one collective operation."""

    name: str
    start_time: float
    size: int
    done_time: dict[int, float] = field(default_factory=dict)
    output: dict[int, Any] = field(default_factory=dict)
    # Fired as each rank finishes — the hook hierarchical compositions use to
    # chain the next level's participation (Section 3.1 semantics).
    on_rank_done: list[Callable[[int, float], None]] = field(default_factory=list)
    # Degraded-mode outcome: dead ranks are excused from completion and the
    # report records what the survivors did about them.
    excused: set[int] = field(default_factory=set)
    # Fired as each rank is first excused — how a composed collective
    # (allreduce_adapt) hears the failures its inner launches handled.
    on_excuse: list[Callable[[int], None]] = field(default_factory=list)
    report: CompletionReport = field(default_factory=CompletionReport)

    def mark_done(self, local: int, time: float, output: Any = None) -> None:
        if local in self.done_time:
            raise RuntimeError(f"rank {local} finished {self.name!r} twice")
        self.done_time[local] = time
        if output is not None:
            self.output[local] = output
        for cb in list(self.on_rank_done):
            cb(local, time)

    def excuse(self, local: int) -> None:
        """Release a (dead) rank from the completion set. Idempotent."""
        if local in self.excused:
            return
        self.excused.add(local)
        for cb in list(self.on_excuse):
            cb(local)

    def abandon(self, why: str) -> None:
        """The failure took the result with it: excuse every unfinished rank
        and mark the report unrecoverable (DESIGN.md S17). A no-op once every
        rank finished: that result was delivered before the failure."""
        if len(self.done_time) == self.size:
            return
        self.report.unrecoverable = True
        self.report.note(why)
        for local in range(self.size):
            if local not in self.done_time:
                self.excuse(local)

    def mark_late(self, local: int, time: float) -> None:
        """A quorum-excused straggler finished after the operation sealed.

        Fires the chaining callbacks (so the rank proceeds into its next
        iteration, obs records its span) without touching ``done_time`` —
        the operation's timing was fixed at quorum close and a straggler's
        eventual completion must not inflate it (DESIGN.md S25).
        """
        if local in self.done_time:
            return
        for cb in list(self.on_rank_done):
            cb(local, time)

    @property
    def done(self) -> bool:
        if len(self.done_time) == self.size:
            return True
        return all(
            local in self.done_time or local in self.excused
            for local in range(self.size)
        )

    def elapsed(self) -> float:
        """Wall time from launch to the last (surviving) rank's completion."""
        if not self.done:
            raise RuntimeError(
                f"collective {self.name!r} incomplete: "
                f"{len(self.done_time)}/{self.size} ranks finished"
            )
        if not self.done_time:
            raise RuntimeError(f"collective {self.name!r}: no rank completed")
        return max(self.done_time.values()) - self.start_time

    def rank_elapsed(self, local: int) -> float:
        return self.done_time[local] - self.start_time


class CollectiveContext:
    """Everything one collective launch needs, bundled.

    ``data``: for bcast, the root payload (numpy array); for reduce, a dict
    mapping local rank to that rank's contribution. Ignored unless the world
    carries data.

    ``host_staging``: local ranks that send/recv through an explicit CPU
    buffer instead of their GPU memory (Section 4.1's optimization).
    """

    def __init__(
        self,
        comm: Communicator,
        root: int,
        nbytes: int,
        config: CollectiveConfig = DEFAULT_COLLECTIVE,
        tree: Optional[Tree] = None,
        data: Any = None,
        op: Optional[ReduceOp] = None,
        reduce_on_gpu: bool = False,
        host_staging: Optional[set[int]] = None,
    ):
        self.comm = comm
        self.root = root
        self.nbytes = nbytes
        self.config = config
        self.tree = tree
        self.data = data
        self.op = op
        self.reduce_on_gpu = reduce_on_gpu
        self.host_staging = host_staging or set()
        self.world = comm.world
        self.base_tag = self.world.allocate_tags(
            max(1, len(config.segments_for(nbytes))) * max(2, comm.size)
        )
        # Algorithm-private state that must survive partial-rank launches
        # (e.g. scatter-allgather's extra tag block).
        self.scratch: Any = None

    def rt(self, local: int) -> RankRuntime:
        return self.comm.runtime(local)

    def carry(self) -> bool:
        return self.world.carry_data

    def seg_tag(self, seg: int) -> int:
        return self.base_tag + seg

    # -- space-aware p2p helpers -------------------------------------------------

    def _spaces(self, src_local: int, dst_local: int) -> tuple[Optional[MemSpace], Optional[MemSpace]]:
        src_space = MemSpace.HOST if src_local in self.host_staging else None
        dst_space = MemSpace.HOST if dst_local in self.host_staging else None
        return src_space, dst_space

    # The two posts run once per message, so they index the rank maps
    # directly rather than through ``rt()`` and ``comm.world_rank()``.
    def isend(self, src_local: int, dst_local: int, tag: int, nbytes: int, data=None) -> Request:
        src_space, dst_space = self._spaces(src_local, dst_local)
        ranks = self.comm.ranks
        return self.world.ranks[ranks[src_local]].isend(
            ranks[dst_local], tag, nbytes, data=data,
            space=src_space, dst_space=dst_space,
        )

    def irecv(self, dst_local: int, src_local: int, tag: int, nbytes: int) -> Request:
        ranks = self.comm.ranks
        return self.world.ranks[ranks[dst_local]].irecv(ranks[src_local], tag, nbytes)

    # -- fault surface -------------------------------------------------------------

    def subscribe_failures(
        self,
        local: int,
        fn: Callable[[int], None],
        alive_fn: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Route failure-detector events to a rank's state machine.

        Inert in the default fault-free configuration (no detector ever
        appears; a harness world keeps no subscription at all) — collectives
        then behave exactly as before. Works regardless of launch order: a
        detector created later adopts earlier subscriptions. Notifications
        arrive as *local* ranks of this communicator, dispatch on
        ``local``'s CPU (so a dead or noisy rank learns never or late), and
        include failures declared before subscription.

        ``alive_fn`` hears *retractions*: the adaptive detector un-declaring
        a rank whose liveness evidence returned (a partitioned or stalled
        process, not a dead one). It may fire after ``fn`` reported the same
        rank failed and must tolerate that ordering.
        """
        comm = self.comm

        def on_fail(world_rank: int) -> None:
            if world_rank in comm:
                fn(comm.local_rank(world_rank))

        on_back: Optional[Callable[[int], None]] = None
        if alive_fn is not None:

            def on_back(world_rank: int) -> None:
                if world_rank in comm:
                    alive_fn(comm.local_rank(world_rank))

        self.world.subscribe_failures(
            on_fail, cpu=self.rt(local).cpu, alive_fn=on_back
        )

    def failed_locals(self) -> set[int]:
        """Local ranks the world's failure detector currently declares failed."""
        detector = self.world.failure_detector
        if detector is None:
            return set()
        comm = self.comm
        return {comm.local_rank(w) for w in detector.failed if w in comm}

    # -- reduction helpers ----------------------------------------------------------

    def combine(self, acc: Any, operand: Any) -> Any:
        """Numerically combine two payloads (data mode only)."""
        assert self.op is not None
        return combine_payloads(self.op, acc, operand)

    def charge_reduce(
        self,
        local: int,
        nbytes: int,
        fn: Optional[Callable] = None,
        *args,
        tag: Optional[int] = None,
    ) -> None:
        """Charge the arithmetic cost of reducing one segment.

        ``tag`` labels the reduced segment for the dependency analyzer; it
        has no runtime effect.
        """
        self.rt(local).reduce_local(nbytes, fn, *args, on_gpu=self.reduce_on_gpu, tag=tag)


def new_handle(ctx: CollectiveContext, name: str) -> CollectiveHandle:
    handle = CollectiveHandle(
        name=name, start_time=ctx.world.engine.now, size=ctx.comm.size
    )
    obs = ctx.world.obs
    if obs is not None:
        # One span per rank spanning launch -> that rank's completion, on the
        # rank's own track; recorded through the same on_rank_done hook the
        # hierarchical compositions use, so it costs nothing when detached.
        start = handle.start_time
        comm = ctx.comm

        def record_span(local: int, t: float) -> None:
            obs.add(
                "collective", name, ("rank", comm.world_rank(local)), start, t
            )

        handle.on_rank_done.append(record_span)
    return handle


def open_launch(ctx: CollectiveContext, handle: Optional[CollectiveHandle],
                name: str, ntags: int) -> CollectiveHandle:
    """The first call of a launch (``handle`` None) makes its handle and
    reserves its ``ntags`` tags in ``ctx.scratch``; a later partial launch
    (the IMB loop starts ranks one by one) passes the handle back."""
    if handle is None:
        handle = new_handle(ctx, name)
        ctx.scratch = ctx.world.allocate_tags(ntags)
    return handle


def launch_ranks(
    ctx: CollectiveContext,
    handle: CollectiveHandle,
    ranks: Optional[Iterable[int]],
    state_cls: Callable[..., Any],
    *args: Any,
) -> CollectiveHandle:
    """Launch one ``state_cls(ctx, handle, local, *args)`` per rank.

    Each state's ``_start`` is queued on its rank's CPU, like entering the
    MPI call, and only then is the rank subscribed to failure events; the
    detector notifies subscribers in subscription order, so this order is
    part of the timeline. The subscription holds the degraded-mode
    bookkeeping every rank state shares (DESIGN.md S17): a failure notice
    for another rank, first time only, marks the report degraded, records
    and excuses the dead rank, then calls the state's ``repair(dead)``. A
    retraction of a handled rank is tolerated, not re-integrated: the
    repair stays in force and the report records the retraction. (A heal
    that beats the detection deadline never reaches ``repair`` at all.)
    """
    handled: set[tuple[int, int]] = set()
    for local in ranks if ranks is not None else range(ctx.comm.size):
        state = state_cls(ctx, handle, local, *args)
        ctx.rt(local).cpu.when_available(state._start)
        sub = _RankFailures(handle, local, state, handled)
        ctx.subscribe_failures(local, sub.on_failure,
                               alive_fn=sub.on_retraction)
    return handle


class _RankFailures:
    """One rank's failure subscription (see :func:`launch_ranks`).

    ``handled`` holds the ``(rank, dead)`` notices already acted on and is
    shared by every rank of one launch.
    """

    __slots__ = ("handle", "local", "state", "handled")

    def __init__(self, handle: CollectiveHandle, local: int, state: Any,
                 handled: set[tuple[int, int]]):
        self.handle = handle
        self.local = local
        self.state = state
        self.handled = handled

    def on_failure(self, dead: int) -> None:
        key = (self.local, dead)
        if dead == self.local or key in self.handled:
            return
        self.handled.add(key)
        handle = self.handle
        report = handle.report
        report.degraded = True
        report.failed_ranks.add(dead)
        handle.excuse(dead)
        self.state.repair(dead)

    def on_retraction(self, back: int) -> None:
        if (self.local, back) in self.handled:
            self.handle.report.retractions.add(back)
