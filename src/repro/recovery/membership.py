"""ULFM-style membership agreement: revoke, agree, shrink.

When the :class:`~repro.faults.detector.FailureDetector` suspects a rank,
survivors must converge on *one* failed set before repair can be consistent
— ULFM's ``MPI_Comm_agree`` + ``MPI_Comm_shrink`` pair. This module models
that protocol as engine events:

1. **coalesce** — suspicions raised within a :data:`GRACE` window fold into
   one agreement round (a failure seldom travels alone);
2. **collect** — the leader (lowest-ranked survivor) circulates a token
   around the survivor ring; every hop merges locally-known suspicions, and
   a hop that goes unacknowledged *adds the silent rank to the failed set*
   (agreement doubles as detection, exactly ULFM's behaviour);
3. **distribute** — a second ring pass carries the agreed set back out, and
   the commit installs a new :class:`SurvivorView` with a bumped epoch.

Every decision derives from engine order plus sorted sets — no RNG — so a
seeded fault plan yields a byte-identical sequence of committed views,
which is what the CI determinism check asserts across worker counts.

Simplifications (documented in DESIGN.md S20): the walk survives a leader
death (the token logic is engine-driven, not hosted on the leader's CPU),
and every subscriber hears a commit through a zero-delay engine event at
commit time, not as work on a rank's CPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.mpi.runtime import MpiWorld

#: Coalescing window: a suspicion starts a round this long after it, so the
#: suspicions raised meanwhile join the same round.
GRACE = 5e-4
#: How long one token hop waits for its rank before declaring it failed.
HOP_TIMEOUT = 2e-3


@dataclass(frozen=True)
class SurvivorView:
    """One agreed membership epoch: who is out, who remains."""

    epoch: int
    failed: frozenset[int]
    members: tuple[int, ...]

    def describe(self) -> str:
        return (
            f"epoch={self.epoch} failed={sorted(self.failed)} "
            f"members={len(self.members)}"
        )


# -- pure transition functions -------------------------------------------------
#
# The agreement round, stripped of engine events: the live protocol below
# drives these same functions from timers and control messages, and the
# schedule model checker (repro.verify) steps them directly to prove the
# membership transition system converges for every symbolic kill — no live
# world required.


def merge_suspicions(
    known: frozenset[int], pending: Iterable[int]
) -> frozenset[int]:
    """The failed set a round proposes: already-agreed dead + new suspects."""
    return known | frozenset(pending)


def ring_walk(
    members: Iterable[int],
    proposed: frozenset[int],
    responsive: Iterable[int],
) -> frozenset[int]:
    """The failed set after collect + distribute ring passes.

    The token visits every proposed-live member in ring order twice; a hop
    that goes unanswered (the member is not in ``responsive``) adds that
    member to the failed set mid-walk — agreement doubles as detection,
    exactly the live protocol's silent-hop rule.
    """
    failed = set(proposed)
    alive = set(responsive)
    for _phase in ("collect", "distribute"):
        for hop in members:
            if hop in failed:
                continue
            if hop not in alive:
                failed.add(hop)
    return frozenset(failed)


def agreed_view(
    view: SurvivorView, failed: Iterable[int], nranks: int
) -> SurvivorView:
    """The committed next epoch: bumped counter, survivors = rest."""
    agreed = frozenset(failed)
    return SurvivorView(
        epoch=view.epoch + 1,
        failed=agreed,
        members=tuple(r for r in range(nranks) if r not in agreed),
    )


def has_quorum(failed: Iterable[int], nranks: int) -> bool:
    """True when the survivors of ``failed`` form a strict majority.

    The split-brain gate: during a partition each side's agreement round
    proposes the *other* side as failed, and only the side whose survivor
    count exceeds ``nranks // 2`` may commit. A minority (or an even split)
    parks in ``awaiting-quorum`` instead — it cannot distinguish "everyone
    else died" from "I am cut off", so safety wins over liveness.
    """
    return 2 * (nranks - len(frozenset(failed))) > nranks


def quorum_commit(
    view: SurvivorView, proposed_failed: Iterable[int], nranks: int
) -> Optional[SurvivorView]:
    """The committed next epoch, or ``None`` when quorum is not reached."""
    failed = frozenset(proposed_failed)
    if not has_quorum(failed, nranks):
        return None
    return agreed_view(view, failed, nranks)


def reconcile_views(a: SurvivorView, b: SurvivorView) -> SurvivorView:
    """Heal-time merge: the higher committed epoch wins (epoch precedence).

    The quorum gate guarantees at most one side committed any given epoch,
    so precedence is well-defined: the minority side (which parked) adopts
    the majority's committed epochs, and its stale in-flight completions
    die on the existing epoch guards.
    """
    return a if a.epoch >= b.epoch else b


class MembershipService:
    """Drives agreement rounds over a world's ranks.

    Subscribers are the recovering launches; each hears every committed
    :class:`SurvivorView` through a zero-delay engine event at commit time.

    A round always ends: each hop of the token ends within
    :data:`HOP_TIMEOUT` (the rank processes it, or the hop's own timer
    declares the rank failed), and a round over ``|live|`` proposed
    survivors makes at most ``2·|live| − 2`` hops (``|live| − 1`` per
    pass), so it commits or parks within ``(2·|live| − 2)·HOP_TIMEOUT`` of
    its start.
    """

    def __init__(self, world: MpiWorld):
        self.world = world
        self.view = SurvivorView(0, frozenset(), tuple(range(world.nranks)))
        #: Determinism contract: ``(time, kind, detail)`` like the injector's.
        self.timeline: list[tuple[float, str, str]] = []
        #: ``(first_suspect_time, commit_time)`` per committed epoch — the
        #: obs layer's time-to-repair metric reads this.
        self.repair_times: list[tuple[float, float]] = []
        self.rounds_run = 0
        #: Split-brain gate state: True while a proposed view lacks a
        #: survivor majority and the commit is parked (DESIGN.md S22).
        self.awaiting_quorum = False
        self.quorum_parks = 0
        self._pending: set[int] = set()
        self._round_active = False
        self._round_timer = None
        self._first_suspect_t: Optional[float] = None
        self._subs: list[Callable[[SurvivorView], None]] = []
        world.membership = self
        world.subscribe_failures(self._on_suspect, alive_fn=self._on_retract)

    # -- subscription ---------------------------------------------------------

    def subscribe(self, fn: Callable[[SurvivorView], None]) -> None:
        self._subs.append(fn)
        if self.view.epoch > 0:
            # Late subscriber: replay the current view (same reasoning as the
            # failure detector's replay — a collective launched after a
            # shrink must still learn of it).
            self.world.engine.call_after(0.0, fn, self.view)

    # -- suspicion intake -----------------------------------------------------

    def _on_suspect(self, rank: int) -> None:
        if rank in self.view.failed or rank in self._pending:
            return
        self._pending.add(rank)
        now = self.world.engine.now
        if self._first_suspect_t is None:
            self._first_suspect_t = now
        self.timeline.append((now, "suspect", f"rank {rank}"))
        if not self._round_active and self._round_timer is None:
            self._round_timer = self.world.engine.call_after(
                GRACE, self._start_round
            )

    def _on_retract(self, rank: int) -> None:
        """The detector un-suspected ``rank``: liveness evidence returned."""
        now = self.world.engine.now
        if rank in self._pending:
            self._pending.discard(rank)
            self.timeline.append((now, "retract", f"rank {rank} alive again"))
            if not self._pending:
                self._first_suspect_t = None
                if self.awaiting_quorum:
                    # Every suspicion that starved us of quorum evaporated;
                    # the parked proposal is void and no epoch was burned.
                    self.awaiting_quorum = False
                    self.timeline.append(
                        (now, "quorum-clear", "all suspicions retracted")
                    )
            return
        if rank in self.view.failed:
            # The rank returned *after* an epoch committed without it.
            # Committed epochs are permanent (the epoch guards already
            # discarded its stale work); re-admission is a future epoch's
            # business, so just note the late arrival.
            self.timeline.append(
                (now, "stale-alive",
                 f"rank {rank} returned after epoch {self.view.epoch} "
                 f"excluded it")
            )

    def on_heal(self) -> None:
        """A partition healed: evict the written-off ranks, then re-round.

        Ranks a committed epoch declared failed that turn out to be
        ground-truth alive are *evicted* (the heal-after-deadline fall
        through to the kill path): committed epochs are permanent, so the
        stragglers terminate rather than rejoin — exactly what a ULFM shrink
        does to a process the agreement wrote off. Each eviction is a false
        kill the adaptive detector could not prevent (the partition outlived
        the failure deadline), counted as such.

        If suspicions are still pending (e.g. a round parked awaiting
        quorum), a fresh round is scheduled one heartbeat period past the
        grace window: post-heal beats retract the false suspicions first,
        and only the rest re-propose.
        """
        now = self.world.engine.now
        evicted = [
            r for r in sorted(self.view.failed)
            if r not in self.world.failed_ranks
        ]
        for r in evicted:
            self.timeline.append(
                (now, "evict",
                 f"rank {r} alive but excluded by epoch {self.view.epoch}; "
                 f"terminated")
            )
            self.world.kill_rank(r)
            detector = self.world.failure_detector
            if detector is not None:
                detector.false_kills += 1
        if self._pending and self._round_timer is None \
                and not self._round_active:
            # Every healed rank's first beat lands within one heartbeat
            # period (beats are phased by rank); proposing sooner writes
            # off live ranks whose retraction is still on its way.
            detector = self.world.failure_detector
            wait = GRACE
            if detector is not None:
                wait += detector.heartbeat_period
            self._round_timer = self.world.engine.call_after(
                wait, self._start_round
            )

    # -- agreement round ------------------------------------------------------

    def _start_round(self) -> None:
        self._round_timer = None
        if not self._pending:
            return
        self._round_active = True
        self.rounds_run += 1
        proposed = set(merge_suspicions(self.view.failed, self._pending))
        live = [r for r in self.view.members if r not in proposed]
        token = {"failed": proposed}
        self.timeline.append(
            (self.world.engine.now, "round",
             f"#{self.rounds_run} proposing {sorted(proposed)}")
        )
        self._walk(live, 1, token, "collect")

    def _walk(self, ring: list, idx: int, token: dict, phase: str) -> None:
        """Deliver the token to ``ring[idx]``; a silent hop marks it failed.

        A ring with no hop left ends its pass, so a proposal that leaves no
        survivor (or one) goes straight to :meth:`_commit`.
        """
        if idx >= len(ring):
            if phase == "collect":
                live = [r for r in ring if r not in token["failed"]]
                self._walk(live, 1, token, "distribute")
            else:
                self._commit(token)
            return
        dst = ring[idx]
        if dst in token["failed"]:
            self._walk(ring, idx + 1, token, phase)
            return
        src = ring[idx - 1]
        # One hop, settled once: the timeout can beat a delayed ``process``
        # (which then changes nothing), and ``process`` cancels the timeout.
        settled = {"done": False}
        world = self.world

        def process() -> None:
            if settled["done"]:
                return
            timer.cancel()
            if phase == "collect":
                # Merge this rank's local suspicions into the token.
                token["failed"] |= {
                    r for r in self._pending if r not in token["failed"]
                }
            self._walk(ring, idx + 1, token, phase)

        def on_arrive() -> None:
            rt = world.ranks[dst]
            if not rt.alive:
                return  # the timeout declares it
            rt.cpu.execute(rt._o, process)

        def on_timeout() -> None:
            settled["done"] = True
            token["failed"].add(dst)
            self.timeline.append(
                (world.engine.now, "silent",
                 f"rank {dst} unresponsive during {phase}")
            )
            self._walk(ring, idx + 1, token, phase)

        world.fabric.start_control(
            src, dst, world.config.control_bytes, on_arrive
        )
        timer = world.engine.call_after(HOP_TIMEOUT, on_timeout)

    def _commit(self, token: dict) -> None:
        failed = frozenset(token["failed"])
        now_t = self.world.engine.now
        maybe_view = quorum_commit(self.view, failed, self.world.nranks)
        if maybe_view is None:
            # Split-brain gate: the survivors of this proposal are not a
            # strict majority. Park instead of burning an epoch — a minority
            # partition must never install a view the majority side could
            # also install. Pending suspicions are kept: retraction (heal)
            # drains the false ones; on_heal re-rounds for any real deaths.
            self.awaiting_quorum = True
            self.quorum_parks += 1
            self._round_active = False
            self.timeline.append(
                (now_t, "awaiting-quorum",
                 f"proposed failed={sorted(failed)} leaves "
                 f"{self.world.nranks - len(failed)}/{self.world.nranks} "
                 f"survivors; commit parked")
            )
            return
        self.awaiting_quorum = False
        view = maybe_view
        self.view = view
        now = self.world.engine.now
        self.timeline.append((now, "commit", view.describe()))
        if self._first_suspect_t is not None:
            self.repair_times.append((self._first_suspect_t, now))
            obs = self.world.obs
            if obs is not None:
                # One span per repair on a dedicated track: suspicion to
                # commit, labelled with the agreed set (Chrome trace shows
                # time-to-repair as a bar above the rank tracks).
                obs.add(
                    "recovery",
                    f"repair epoch {view.epoch}: failed={sorted(failed)}",
                    ("recovery", "membership"),
                    self._first_suspect_t,
                    now,
                )
                obs.count("membership_commits")
        self._first_suspect_t = None
        self._round_active = False
        self._pending -= set(failed)
        for fn in self._subs:
            self.world.engine.call_after(0.0, fn, view)
        if self._pending and self._round_timer is None:
            # Suspicions raised after the collect pass sampled them.
            self._round_timer = self.world.engine.call_after(
                GRACE, self._start_round
            )

    # -- metrics surface ------------------------------------------------------

    def time_to_repair(self) -> Optional[float]:
        """Worst suspect-to-commit latency across committed epochs."""
        if not self.repair_times:
            return None
        return max(t1 - t0 for t0, t1 in self.repair_times)


def ensure_membership(world: MpiWorld) -> MembershipService:
    """The world's membership service, creating one on first use."""
    existing = getattr(world, "membership", None)
    if existing is not None:
        return existing
    return MembershipService(world)
