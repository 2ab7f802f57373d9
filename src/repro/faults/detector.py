"""Adaptive (phi-accrual style) failure detection with retraction.

The crash-only timeout detector grew into an accrual detector in the style
of Hayashibara et al.: instead of a binary alive/dead verdict, each peer
carries a continuous ``suspect_level`` (phi) derived from the inter-arrival
history of its liveness evidence — heartbeats observed across the fabric
plus reliable-transport acks. Phi for a silence of ``delta`` seconds against
a mean inter-arrival ``m`` is::

    phi(delta) = delta / (m * ln 10)

i.e. phi is the negated base-10 log of the probability (under an
exponential-tail model) that a heartbeat is still in flight after
``delta``. Crossing the configured ``phi_threshold`` (default 8, ~18.4x the
mean interval) makes the rank *suspected*; only ``detect_delay`` later —
the retraction window — is the failure *confirmed* and fanned out to
subscribers. Evidence arriving in between **retracts** the suspicion, and
evidence arriving even after confirmation retracts the failure: subscribers
that registered an ``alive_fn`` hear a ``rank_alive`` transition and must
tolerate it after a ``rank_failed`` (collectives acknowledge without
re-integrating; the membership layer un-parks quorum-starved rounds).

Three evidence paths feed the detector:

* the :class:`~repro.faults.injector.FaultInjector` reports a ground-truth
  fail-stop ``detect_delay`` seconds after the crash (unchanged from the
  crash-only detector, so pure kill plans behave byte-identically),
* a reliable sender whose retry budget ran dry calls :meth:`suspect`
  (an ack timeout) — routed through the same delayed confirm path, and
* heartbeats: when armed (partition or ``adaptive`` plans), every rank
  emits a periodic beat on its own CPU (a stalled rank falls silent, a
  killed rank stops forever) observed by the lowest live rank across
  ``fabric.start_control`` — so a network partition severs the evidence
  stream exactly like it severs data, and silence accrues into suspicion.

Fresh heartbeat evidence also *overrules* an ack-timeout suspicion: a peer
whose beats are arriving (phi below threshold) is reachable and alive from
the observer's seat, so the exhausted sender keeps its send parked rather
than escalating — the asymmetric-reachability case a binary detector gets
wrong.

Notifications hop onto the subscriber's CPU, so a rank that died with the
victim never observes the failure (its CPU drops the dispatch), and a noisy
rank learns late, exactly like a real process.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Optional

from repro.mpi.runtime import MpiWorld
from repro.sim.cpu import Cpu
from repro.sim.engine import EventHandle

_LN10 = math.log(10.0)

#: Sliding-window length for per-peer inter-arrival estimation.
_WINDOW = 16


class FailureDetector:
    """Accrual failure detector: suspect, confirm after a delay, retract."""

    def __init__(
        self,
        world: MpiWorld,
        detect_delay: float = 1e-3,
        phi_threshold: float = 8.0,
        heartbeat_period: float = 1e-3,
    ):
        if world._failure_subscribers is None:
            raise RuntimeError(
                "world is closed to failure subscriptions: a detector "
                "attached now would miss every launch made so far"
            )
        self.world = world
        self.detect_delay = detect_delay
        self.phi_threshold = phi_threshold
        self.heartbeat_period = heartbeat_period
        self.failed: set[int] = set()
        self.suspected: set[int] = set()
        self.suspicions: list[tuple[float, int, str]] = []  # (time, rank, reason)
        self.retractions: list[tuple[float, int]] = []  # (time, rank)
        #: Confirmed failures later retracted — ground-truth-alive ranks the
        #: detector wrongly declared dead (the figxp "false kill" metric).
        self.false_kills = 0
        #: Every rank ever confirmed failed (never shrinks, unlike
        #: ``failed``): survivors abandoned work toward these ranks while
        #: the confirmation stood, so the wreckage stays explained even
        #: after a retraction (the sanitizer's drain excuse).
        self.ever_confirmed: set[int] = set()
        self._subscribers: list[
            tuple[
                Callable[[int], None],
                Optional[Cpu],
                Optional[Callable[[int], None]],
            ]
        ] = []
        self._confirm_timers: dict[int, EventHandle] = {}
        # --- heartbeat / phi state ---
        self._last_seen: dict[int, float] = {}
        self._intervals: dict[int, Deque[float]] = {}
        self._phi_timers: dict[int, EventHandle] = {}
        self._hb_until = -math.inf  # monitoring window end; -inf = unarmed
        self._hb_active: set[int] = set()  # ranks with a live emit chain
        world.failure_detector = self
        # Adopt subscriptions made before the detector existed (collectives
        # launched ahead of the fault injector).
        for fn, cpu, alive_fn in world._failure_subscribers:
            self.subscribe(fn, cpu=cpu, alive_fn=alive_fn)
        world._failure_subscribers.clear()
        # Ranks that fail-stopped before this detector existed (a kill fired
        # while only the buffering world was listening) would otherwise never
        # be declared: the buffer records *subscribers*, not failures, so a
        # subscriber arriving after that epoch closed heard nothing. Replay
        # the ground truth through the normal delayed path.
        for rank in sorted(world.failed_ranks):
            self.observe_kill(rank)

    def is_failed(self, rank: int) -> bool:
        return rank in self.failed

    def subscribe(
        self,
        fn: Callable[[int], None],
        cpu: Optional[Cpu] = None,
        alive_fn: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Call ``fn(rank)`` whenever a rank is declared failed.

        With ``cpu`` given the notification is dispatched as work on that
        CPU (and silently dropped if it has itself fail-stopped). Ranks
        already declared failed are delivered immediately — a collective
        starting after a crash must still learn of it. ``alive_fn`` hears
        retractions: it may fire for a rank ``fn`` never reported (a
        suspicion that evaporated) and must be idempotent.
        """
        self._subscribers.append((fn, cpu, alive_fn))
        for rank in sorted(self.failed):
            self._dispatch(fn, cpu, rank)

    # ------------------------------------------------------------------
    # evidence in
    # ------------------------------------------------------------------

    def observe_kill(self, rank: int) -> None:
        """A fail-stop happened now; declare it after the detection delay."""
        self.world.engine.call_after(self.detect_delay, self.report_failure, rank)

    def observe_alive(self, rank: int, heartbeat: bool = False) -> None:
        """Liveness evidence for ``rank`` (an ack, or a heartbeat arrival).

        Heartbeats feed the inter-arrival estimator; any evidence retracts a
        standing suspicion, and retracts even a *confirmed* failure when the
        ground truth says the rank never actually died (a partitioned or
        stalled rank coming back).
        """
        now = self.world.engine.now
        if heartbeat:
            last = self._last_seen.get(rank)
            window = self._intervals.get(rank)
            if window is None:
                # Seed the estimator with the nominal period as a prior.
                window = self._intervals[rank] = deque(
                    [self.heartbeat_period], maxlen=_WINDOW
                )
            if last is not None and now > last:
                window.append(now - last)
            self._last_seen[rank] = now
            self._arm_phi_timer(rank)
        if rank in self.suspected:
            self.retract(rank)
        elif rank in self.failed and rank not in self.world.failed_ranks:
            self.retract(rank)

    def suspect(self, rank: int, reason: str = "") -> None:
        """Accrued silence crossed the threshold (ack or heartbeat timeout).

        Routed through the delayed confirm path: the failure is only
        reported ``detect_delay`` later, and contrary evidence in that
        window retracts it. Per-rank dedup — re-suspecting an
        already-suspected or already-failed rank is a no-op, as is
        suspecting a rank whose heartbeats are demonstrably arriving
        (asymmetric reachability: the sender can't reach it, the observer
        can).
        """
        if rank in self.failed or rank in self.suspected:
            return
        if self._fresh_evidence(rank):
            return
        self.suspicions.append((self.world.engine.now, rank, reason))
        self.suspected.add(rank)
        timer = self._phi_timers.pop(rank, None)
        if timer is not None:
            timer.cancel()
        self._confirm_timers[rank] = self.world.engine.call_after(
            self.detect_delay, self._confirm, rank
        )

    def retract(self, rank: int) -> None:
        """Un-suspect (or un-fail) ``rank``, which is suspected or failed:
        evidence says it is alive."""
        timer = self._confirm_timers.pop(rank, None)
        if timer is not None:
            timer.cancel()
        was_failed = rank in self.failed
        self.suspected.discard(rank)
        self.failed.discard(rank)
        if was_failed:
            self.false_kills += 1
        self.retractions.append((self.world.engine.now, rank))
        for _fn, cpu, alive_fn in self._subscribers:
            if alive_fn is not None:
                self._dispatch(alive_fn, cpu, rank)

    def report_failure(self, rank: int) -> None:
        """Declare ``rank`` failed and fan out to subscribers. Idempotent."""
        if rank in self.failed:
            return
        self.failed.add(rank)
        self.ever_confirmed.add(rank)
        self.suspected.discard(rank)
        for timers in (self._confirm_timers, self._phi_timers):
            timer = timers.pop(rank, None)
            if timer is not None:
                timer.cancel()
        for fn, cpu, _alive_fn in self._subscribers:
            self._dispatch(fn, cpu, rank)

    def _confirm(self, rank: int) -> None:
        """The retraction window closed with no contrary evidence.

        The rank is still suspected: a retraction or a report ends the
        suspicion and cancels this timer with it.
        """
        self._confirm_timers.pop(rank, None)
        self.report_failure(rank)

    # ------------------------------------------------------------------
    # phi accrual
    # ------------------------------------------------------------------

    def suspect_level(self, rank: int) -> float:
        """Current phi for ``rank`` (0.0 with no heartbeat history)."""
        last = self._last_seen.get(rank)
        if last is None:
            return 0.0
        return (self.world.engine.now - last) / (self._mean_interval(rank) * _LN10)

    def _mean_interval(self, rank: int) -> float:
        window = self._intervals.get(rank)
        if not window:
            return self.heartbeat_period
        return sum(window) / len(window)

    def _crossing_delta(self, rank: int) -> float:
        """Silence after which phi reaches the threshold."""
        return self.phi_threshold * self._mean_interval(rank) * _LN10

    def _fresh_evidence(self, rank: int) -> bool:
        """True when heartbeat evidence currently holds phi below threshold."""
        last = self._last_seen.get(rank)
        if last is None or self.world.engine.now > self._hb_until:
            return False
        return self.suspect_level(rank) < self.phi_threshold

    def _arm_phi_timer(self, rank: int) -> None:
        if rank in self._phi_timers or rank in self.suspected \
                or rank in self.failed:
            return
        delay = self._crossing_delta(rank)
        self._phi_timers[rank] = self.world.engine.call_after(
            delay, self._phi_fire, rank
        )

    def _phi_fire(self, rank: int) -> None:
        # A phi timer lives only while its rank is neither suspected nor
        # failed: suspect() and report_failure() cancel it.
        self._phi_timers.pop(rank, None)
        now = self.world.engine.now
        last = self._last_seen.get(rank, now)
        delta = self._crossing_delta(rank)
        if last + delta > self._hb_until:
            # The expected next beat falls outside the monitored window: the
            # run is winding down, not the rank. Stop without suspecting.
            return
        if now - last >= delta:
            self.suspect(rank, reason=f"phi>={self.phi_threshold:g}")
            return
        # Evidence arrived since this timer was set; ride the new deadline.
        self._phi_timers[rank] = self.world.engine.call_after(
            last + delta - now, self._phi_fire, rank
        )

    # ------------------------------------------------------------------
    # heartbeats
    # ------------------------------------------------------------------

    def arm_heartbeats(self, horizon: float) -> None:
        """Emit per-rank heartbeats for the next ``horizon`` seconds.

        Idempotent and extendable: the driver re-arms over growing horizons
        and chains that ended (window expiry) restart. Emission rides each
        rank's CPU, so stalls delay beats and kills silence them; delivery
        rides ``start_control`` to the lowest live rank, so partitions sever
        the evidence stream.
        """
        now = self.world.engine.now
        self._hb_until = max(self._hb_until, now + horizon)
        for rank in range(self.world.nranks):
            if rank in self._hb_active or rank in self.world.failed_ranks:
                continue
            self._hb_active.add(rank)
            # A rank never heard from is monitored from the window start:
            # its silence accrues immediately, so a peer severed *before*
            # its first beat still crosses the threshold on schedule.
            self._last_seen.setdefault(rank, now)
            # Deterministic per-rank phase stagger keeps beats (and their
            # arrival events) from colliding on one engine timestamp.
            phase = self.heartbeat_period * (rank + 1) / (self.world.nranks + 1)
            self.world.engine.call_after(phase, self._hb_tick, rank)
        for rank, last in self._last_seen.items():
            # Severed ranks whose phi timer stopped at a window edge must be
            # re-monitored now that the window grew.
            if rank not in self._phi_timers and rank not in self.suspected \
                    and rank not in self.failed:
                self._phi_timers[rank] = self.world.engine.call_after(
                    max(0.0, last + self._crossing_delta(rank) - now),
                    self._phi_fire, rank,
                )

    def _hb_tick(self, rank: int) -> None:
        if self.world.engine.now >= self._hb_until \
                or rank in self.world.failed_ranks:
            self._hb_active.discard(rank)
            return
        self.world.ranks[rank].cpu.when_available(self._hb_emit, rank)
        self.world.engine.call_after(self.heartbeat_period, self._hb_tick, rank)

    def _hb_emit(self, rank: int) -> None:
        """Runs on ``rank``'s CPU, so the rank is live: a fail-stop halts
        the CPU and drops the queued beat."""
        observer = self._observer()
        if observer == rank:
            self.observe_alive(rank, heartbeat=True)
            return
        self.world.fabric.start_control(
            rank,
            observer,
            self.world.config.control_bytes,
            lambda r=rank: self.observe_alive(r, heartbeat=True),
            taginfo=("hb", rank, observer),
        )

    def _observer(self) -> int:
        """Lowest ground-truth-live rank: the monitoring vantage point.
        Called only from a live rank's beat, so one exists."""
        failed = self.world.failed_ranks
        return next(r for r in range(self.world.nranks) if r not in failed)

    def _dispatch(
        self, fn: Callable[[int], None], cpu: Optional[Cpu], rank: int
    ) -> None:
        if cpu is not None:
            cpu.when_available(fn, rank)
        else:
            self.world.engine.call_after(0.0, fn, rank)
