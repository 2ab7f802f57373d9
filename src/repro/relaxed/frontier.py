"""The staleness frontier: epoch bookkeeping for relaxed collectives.

One :class:`StalenessFrontier` per world (created on first use, like
``ensure_membership``). Every quorum-collective launch opens a numbered
*epoch*; contributions are judged against the frontier:

* arrive before the epoch closes — **merged on time** (counted toward the
  quorum, listed in ``CompletionReport.contributed_ranks``);
* arrive after the close but while a later epoch within the straggler's
  ``staleness_window`` is still open — **merged late** into that epoch's
  reduction (an SSP-style stale gradient);
* arrive with no eligible open epoch — **explicitly discarded**.

The :class:`ContributionLedger` is the double-entry book behind the
sanitizer's conservation rule: every contribution that was ever opened must
end in exactly one of those three states (dead ranks excepted — their
contribution never arrives, and the failure detector explains why). The
ledger keeps both per-entry states and aggregate counters so a code path
that updates one book but not the other is caught at drain.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol

#: Ledger entry states. ``open`` entries at drain are leaks unless the
#: owning rank is dead or confirmed-failed.
OPEN = "open"
ON_TIME = "on-time"
LATE = "late"
DISCARDED = "discarded"

_CLOSED_STATES = (ON_TIME, LATE, DISCARDED)


class LateSink(Protocol):  # pragma: no cover - typing aid
    """An open epoch that may absorb a straggler's contribution."""

    def accept_late(self, local: int, from_epoch: int, payload: Any) -> bool: ...


class ContributionLedger:
    """Every contribution's fate, kept as entries *and* counters."""

    def __init__(self) -> None:
        self.entries: dict[tuple[int, int], str] = {}  # (epoch, world_rank)
        self.opened = 0
        self.on_time = 0
        self.late = 0
        self.discarded = 0

    def open(self, epoch: int, world_rank: int) -> None:
        key = (epoch, world_rank)
        if key in self.entries:
            raise RuntimeError(
                f"contribution (epoch={epoch}, rank={world_rank}) opened twice"
            )
        self.entries[key] = OPEN
        self.opened += 1

    def close(self, epoch: int, world_rank: int, state: str) -> None:
        if state not in _CLOSED_STATES:
            raise ValueError(f"unknown ledger state {state!r}")
        key = (epoch, world_rank)
        if self.entries.get(key) != OPEN:
            raise RuntimeError(
                f"contribution (epoch={epoch}, rank={world_rank}) closed as "
                f"{state!r} but was {self.entries.get(key)!r}"
            )
        self.entries[key] = state
        if state == ON_TIME:
            self.on_time += 1
        elif state == LATE:
            self.late += 1
        else:
            self.discarded += 1

    def open_entries(self) -> list[tuple[int, int]]:
        return sorted(k for k, st in self.entries.items() if st == OPEN)


class _Pending:
    """A straggler contribution parked between epochs.

    The window is judged against epoch *numbers*, not wall time, so a
    contribution arriving in the gap between epoch ``k`` sealing and epoch
    ``k+1`` opening waits here instead of being discarded — the common case
    for a mildly slow rank in a chained epoch loop.
    """

    __slots__ = ("local", "world_rank", "from_epoch", "payload", "window",
                 "report")

    def __init__(self, local, world_rank, from_epoch, payload, window, report):
        self.local = local
        self.world_rank = world_rank
        self.from_epoch = from_epoch
        self.payload = payload
        self.window = window
        self.report = report


class StalenessFrontier:
    """Per-world epoch counter, open-sink registry, and ledger."""

    def __init__(self, world: Any) -> None:
        self.world = world
        self.ledger = ContributionLedger()
        self._next_epoch = 1
        self._sinks: dict[int, LateSink] = {}
        self._opened_at: dict[int, float] = {}
        self._pending: list[_Pending] = []
        # Aggregate accounting surfaced by ``repro chaos --quorum``.
        self.late_merged = 0
        self.late_discarded = 0

    # -- epoch lifecycle -----------------------------------------------------

    def open_epoch(self, sink: Optional[LateSink] = None) -> int:
        """Allocate the next epoch; mergeable ops register their sink."""
        epoch = self._next_epoch
        self._next_epoch += 1
        if sink is not None:
            self._sinks[epoch] = sink
        self._opened_at[epoch] = self.world.engine.now
        self.drain_pending()
        return epoch

    def close_epoch(
        self,
        epoch: int,
        *,
        name: str = "quorum",
        contributed: int = 0,
        excluded: int = 0,
    ) -> None:
        """Seal an epoch: no further on-time merges; record its obs span."""
        self._sinks.pop(epoch, None)
        opened = self._opened_at.pop(epoch, None)
        obs = getattr(self.world, "obs", None)
        if obs is not None and opened is not None:
            obs.add(
                "staleness",
                f"{name} epoch {epoch}",
                ("staleness", "frontier"),
                opened,
                self.world.engine.now,
                {"epoch": epoch, "contributed": contributed,
                 "excluded": excluded},
            )
        # A parked straggler whose last eligible epoch just sealed expires.
        self.drain_pending()

    # -- straggler routing ---------------------------------------------------

    def _resolve(self, p: _Pending, into: int) -> None:
        """Book a parked/arriving contribution's final fate."""
        obs = getattr(self.world, "obs", None)
        state = LATE if into >= 0 else DISCARDED
        self.ledger.close(p.from_epoch, p.world_rank, state)
        if p.report is not None:
            p.report.late_merges.append((p.local, p.from_epoch, into))
        if into >= 0:
            self.late_merged += 1
            if obs is not None:
                obs.count("quorum.late_merges")
        else:
            self.late_discarded += 1
            if obs is not None:
                obs.count("quorum.discarded")

    def _try_merge(self, p: _Pending) -> int:
        """Offer to every eligible open sink, oldest-first (least stale)."""
        for epoch in sorted(self._sinks):
            if epoch <= p.from_epoch or epoch - p.from_epoch > p.window:
                continue
            if self._sinks[epoch].accept_late(p.local, p.from_epoch, p.payload):
                return epoch
        return -1

    def _still_possible(self, p: _Pending) -> bool:
        """Could a not-yet-opened (or not-yet-started) epoch still merge it?"""
        last = p.from_epoch + p.window
        if self._next_epoch <= last:
            return True  # an eligible epoch number is still unallocated
        return any(
            p.from_epoch < e <= last for e in self._sinks
        )  # allocated, open, but its root hasn't started ingesting yet

    def route_late(
        self, local: int, world_rank: int, from_epoch: int, payload: Any,
        window: int, report: Any = None,
    ) -> int:
        """Merge a straggler contribution forward, park it, or discard it.

        Returns the epoch that absorbed the merge, ``0`` when parked for a
        future epoch inside the window, or ``-1`` for an immediate discard.
        Parked contributions resolve at the next ``open_epoch``/
        ``drain_pending`` — their fate lands in ``report.late_merges`` then.
        """
        p = _Pending(local, world_rank, from_epoch, payload, window, report)
        into = self._try_merge(p)
        if into < 0 and self._still_possible(p):
            self._pending.append(p)
            return 0
        self._resolve(p, into)
        return into

    def drain_pending(self) -> None:
        """Re-offer every parked contribution; expire the hopeless ones."""
        keep: list[_Pending] = []
        for p in self._pending:
            into = self._try_merge(p)
            if into >= 0:
                self._resolve(p, into)
            elif self._still_possible(p):
                keep.append(p)
            else:
                self._resolve(p, -1)
        self._pending = keep

    def flush_pending(self) -> None:
        """End of run: every still-parked contribution becomes an
        explicit, accounted discard (no future epoch will open)."""
        pending, self._pending = self._pending, []
        for p in pending:
            into = self._try_merge(p)
            self._resolve(p, into)


def ensure_frontier(world: Any) -> StalenessFrontier:
    """The world's frontier, created on first use (``ensure_membership``
    pattern); the sanitizer discovers it by attribute at drain."""
    frontier = getattr(world, "staleness_frontier", None)
    if frontier is None:
        frontier = StalenessFrontier(world)
        world.staleness_frontier = frontier
    return frontier
