"""Runtime sanitizer: assert simulator invariants while a world runs.

Opt-in via ``MpiWorld(..., sanitize=True)``. The sanitizer is the dynamic
counterpart of the static linter: instead of proving properties of an
extracted graph, it checks invariants *during* a real (timed, noisy, GPU)
simulation and raises :class:`SanitizerError` at the first violation:

* every request posted is eventually completed (or cancelled by the fault
  layer), and completion time never precedes posting time;
* at world drain (a ``run()`` to quiescence) no request is in flight and no
  matcher queue holds stranded posted recvs or unexpected payloads — except
  those a fail-stopped rank explains: requests owned by or targeting a dead
  rank, and arrivals a dead rank sent before it crashed;
* under the reliable transport, messages are conserved: every wire attempt
  (plus every fabric-injected duplicate) is accounted for as a fresh
  delivery, a suppressed duplicate, an injected drop, or a loss at a dead
  rank — and no live rank leaks transport retry state;
* ADAPT in-flight send windows stay within ``[0, N]`` (a negative or
  over-cap window means the refill accounting broke);
* max-min fair-share allocations conserve link capacity: the flows crossing
  a link never sum above its rate, no flow runs negative or above its cap;
* a flow finish taken from the network's finish queue fires exactly at the
  flow's ``due`` time and only under its current stamp, and at world drain
  no flow between live ranks is still active or queued;
* per-rank request-event times (post, completion, cancellation) are
  monotonically non-decreasing (the event engine must never run a rank
  backwards in time).

The checks are deliberately cheap (O(1) per event, O(flows) per rebalance)
so sanitized runs stay usable for the full correctness suite.
"""

from __future__ import annotations

from typing import Any, Iterable

# Relative slack for float accumulation in rate sums.
_RATE_TOL = 1e-6

# Residual bytes at or below this are "drained" — must match the allocator's
# finish threshold (repro.network.fairshare._EPSILON_BYTES).
_DRAINED_BYTES = 1e-6


class SanitizerError(AssertionError):
    """An invariant the simulator promised was violated."""


class Sanitizer:
    """Per-world invariant checker (see module docstring)."""

    def __init__(self, world: Any) -> None:
        self.world = world
        self._pending: dict[Any, float] = {}  # request -> post time
        self._last_time: dict[int, float] = {}  # rank -> last request event
        self.checks_run = 0

    # -- request lifecycle -------------------------------------------------------

    def _tick(self, req: Any) -> float:
        """The engine clock, checked never to run ``req``'s rank backwards."""
        now = self.world.engine.now
        rank = getattr(req, "rank", None)
        last = self._last_time.get(rank)
        if last is not None and now < last:
            raise SanitizerError(
                f"rank {rank} time went backwards: {now} after {last}"
            )
        self._last_time[rank] = now
        return now

    def on_post(self, req: Any) -> None:
        self.checks_run += 1
        now = self._tick(req)
        if req in self._pending:
            raise SanitizerError(f"request posted twice: {req!r}")
        self._pending[req] = now

    def on_complete(self, req: Any) -> None:
        self.checks_run += 1
        now = self._tick(req)
        posted = self._pending.pop(req, None)
        if posted is None:
            raise SanitizerError(f"completion of a request never posted: {req!r}")
        if now < posted:
            raise SanitizerError(
                f"request completed at t={now} before its post at t={posted}: {req!r}"
            )

    def on_cancel(self, req: Any) -> None:
        """The fault layer abandoned a request; it is accounted for."""
        self.checks_run += 1
        self._tick(req)
        self._pending.pop(req, None)

    def check_drained(self) -> None:
        """World ran to quiescence: nothing may remain in flight.

        A fail-stop excuses exactly the wreckage it explains: requests owned
        by or addressed to a dead rank, posted recvs waiting on a dead peer,
        and arrivals the dead rank sent before crashing. Anything else left
        over is still a leak.

        Confirmed failures excuse the same wreckage (DESIGN.md S22): a rank
        the detector *ever* declared failed — even one that is ground-truth
        alive and later retracted — had its in-flight work written off by
        every survivor while the confirmation stood, so requests it owns or
        is peered with can stay incomplete by design, not by leak.
        """
        self.checks_run += 1
        failed = set(getattr(self.world, "failed_ranks", None) or set())
        detector = getattr(self.world, "failure_detector", None)
        if detector is not None:
            failed |= detector.ever_confirmed
        leaked = [
            req
            for req in self._pending
            if getattr(req, "rank", None) not in failed
            and getattr(req, "peer", None) not in failed
        ]
        if leaked:
            sample = sorted((repr(r) for r in leaked), key=str)[:5]
            raise SanitizerError(
                f"{len(leaked)} request(s) still in flight at world "
                f"drain, e.g. {sample}"
            )
        for rt in self.world.ranks:
            if rt.rank in failed:
                continue  # a dead rank's matcher froze mid-operation
            stranded_posted = [
                req
                for queue in rt.matcher.posted.values()
                for req in queue
                if req.peer not in failed
            ]
            stranded_inbound = [
                msg
                for queue in rt.matcher.inbound.values()
                for msg in queue
                if msg.src not in failed
            ]
            if stranded_posted or stranded_inbound:
                raise SanitizerError(
                    f"rank {rt.rank} matcher not empty at drain: "
                    f"{len(stranded_posted)} posted recv(s), "
                    f"{len(stranded_inbound)} stranded arrival(s)"
                )
        if getattr(self.world.config, "reliable", False):
            self._check_transport_conservation(failed)
        self._check_flows_drained(failed)
        frontier = getattr(self.world, "staleness_frontier", None)
        if frontier is not None:
            # Drain time is the end of the line for parked stragglers:
            # resolve each into an accounted discard before balancing.
            frontier.flush_pending()
            self._check_contribution_conservation(frontier, failed)

    def _check_flows_drained(self, failed: set[int]) -> None:
        """No flow between live ranks may outlive the run.

        A flow still active, or still scheduled to finish (a member of a
        cohort whose head is in the finish queue), at quiescence lost its
        finish event. Flows to or from a
        failed rank are excused like that rank's requests; staging copies
        (no ``taginfo``) never are.
        """
        self.checks_run += 1
        network = self.world.fabric.network
        queued = network.pending_flows()
        stuck: list[Any] = []
        for flow in sorted(queued | network.active, key=lambda f: f.fid):
            ti = flow.taginfo
            if ti is not None and (ti[1] in failed or ti[2] in failed):
                continue
            stuck.append(flow)
        if stuck:
            raise SanitizerError(
                f"{len(stuck)} flow(s) still active or queued at world "
                f"drain, e.g. {[repr(f) for f in stuck[:5]]}"
            )

    def _check_transport_conservation(self, failed: set[int]) -> None:
        """Reliable transport: wire attempts must all be accounted for."""
        self.checks_run += 1
        world = self.world
        for rt in world.ranks:
            if rt.rank not in failed and rt._reliable_pending:
                raise SanitizerError(
                    f"rank {rt.rank} leaked {len(rt._reliable_pending)} "
                    f"reliable-transport send state(s) at drain"
                )
        stats = world.transport_stats()
        faults = getattr(world.fabric, "faults", None)
        injector = faults._injector if faults is not None else None
        dropped = injector.dropped if injector is not None else 0
        duplicated = injector.duplicated if injector is not None else 0
        # Severed ≠ leaked: a data-plane launch cut by a network partition
        # never entered the wire, but the sender *did* count the attempt.
        severed = injector.severed if injector is not None else 0
        sent = stats["transmissions"] + duplicated
        accounted = (
            stats["fresh_deliveries"]
            + stats["duplicates_suppressed"]
            + stats["msgs_lost_dead"]
            + dropped
            + severed
            + stats["checksum_rejects"]
        )
        if sent != accounted:
            raise SanitizerError(
                "reliable transport conservation violated at drain: "
                f"{stats['transmissions']} transmission(s) + {duplicated} "
                f"injected duplicate(s) != {stats['fresh_deliveries']} fresh "
                f"+ {stats['duplicates_suppressed']} suppressed "
                f"+ {dropped} dropped + {severed} severed "
                f"+ {stats['msgs_lost_dead']} lost-at-dead "
                f"+ {stats['checksum_rejects']} checksum-rejected"
            )

    def _check_contribution_conservation(
        self, frontier: Any, failed: set[int]
    ) -> None:
        """Quorum collectives: no contribution is ever silently lost.

        Every contribution a quorum collective opened must end merged
        on-time, merged late, or explicitly discarded (DESIGN.md S25). An
        entry still open at drain is excused only if its owning rank is dead
        or was ever confirmed failed — the contribution then never arrived,
        and the failure detector explains why. The ledger's per-entry states
        and aggregate counters are cross-checked as a double-entry book, so
        a code path that updates one but not the other is caught here.
        """
        self.checks_run += 1
        ledger = frontier.ledger
        lost = [
            (epoch, rank)
            for epoch, rank in ledger.open_entries()
            if rank not in failed
        ]
        if lost:
            raise SanitizerError(
                f"{len(lost)} quorum contribution(s) from live ranks "
                f"silently lost at drain (neither merged on-time, merged "
                f"late, nor discarded), e.g. (epoch, rank) {lost[:5]}"
            )
        still_open = sum(1 for st in ledger.entries.values() if st == "open")
        if ledger.opened != (
            ledger.on_time + ledger.late + ledger.discarded + still_open
        ):
            raise SanitizerError(
                "contribution conservation violated at drain: "
                f"{ledger.opened} opened != {ledger.on_time} on-time "
                f"+ {ledger.late} late-merged + {ledger.discarded} "
                f"discarded + {still_open} open-at-dead"
            )

    # -- collective windows ------------------------------------------------------

    def window(self, rank: int, peer: Any, value: int, cap: int) -> None:
        self.checks_run += 1
        if value < 0:
            raise SanitizerError(
                f"rank {rank}: in-flight window to {peer} went negative ({value})"
            )
        if value > cap:
            raise SanitizerError(
                f"rank {rank}: in-flight window to {peer} exceeds N={cap} ({value})"
            )

    # -- fair-share conservation ---------------------------------------------------

    def check_rates(self, flows: Iterable[Any], links: Iterable[Any]) -> None:
        self.checks_run += 1
        for f in flows:
            if f.done:
                continue
            if f.rate < 0:
                raise SanitizerError(f"flow {f.fid} assigned negative rate {f.rate}")
            if f.rate > f.rate_cap * (1 + _RATE_TOL):
                raise SanitizerError(
                    f"flow {f.fid} rate {f.rate:.6g} exceeds its cap "
                    f"{f.rate_cap:.6g}"
                )
        for link in links:
            # A fully drained flow awaiting its _finish callback still sits
            # in link.flows with its last rate, but carries no further
            # bytes — its stale rate is not a capacity claim. A flow whose
            # path crosses the link twice claims its rate twice.
            total = sum(
                f.rate * f.path.count(link) for f in link.flows
                if not f.done and f.remaining > _DRAINED_BYTES
            )
            if total > link.capacity * (1 + _RATE_TOL):
                raise SanitizerError(
                    f"link {link.name}: allocated {total:.6g} B/s exceeds "
                    f"capacity {link.capacity:.6g} B/s "
                    f"across {len(link.flows)} flow(s)"
                )

    def check_flow_fire(self, flow: Any, stamp: int, now: float) -> None:
        """A flow finish (posted, or spliced from the queue) fires at its
        due time, current."""
        self.checks_run += 1
        if flow.stamp != stamp:
            raise SanitizerError(
                f"flow {flow.fid} finish fired under stale stamp {stamp} "
                f"(current {flow.stamp})"
            )
        if now != flow.due:
            raise SanitizerError(
                f"flow {flow.fid} finish fired at t={now!r}, due t={flow.due!r}"
            )
