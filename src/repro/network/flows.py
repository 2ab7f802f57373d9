"""Flows: in-flight transfers over a link path."""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.network.links import Link


class Flow:
    """One transfer in flight.

    Life cycle: created -> (after path latency) active on its links ->
    finishes when ``remaining`` drains at the allocated rate. The allocator
    reschedules the flow, with the rest of its cohort, each time its rate
    changes as competing flows come and go; a flow rescheduled while a
    settle is pending holds no engine event until the epoch of its finish
    starts (DESIGN.md §23).
    """

    __slots__ = (
        "fid",
        "path",
        "key",
        "nbytes",
        "remaining",
        "rate_cap",
        "rate",
        "last_update",
        "due",
        "stamp",
        "token",
        "cohort",
        "entry",
        "on_complete",
        "start_time",
        "finish_time",
        "taginfo",
    )

    def __init__(
        self,
        fid: int,
        path: Sequence[Link],
        nbytes: int,
        rate_cap: float,
        on_complete: Callable[["Flow"], Any],
        taginfo: Any = None,
    ):
        if nbytes < 0:
            raise ValueError(f"negative flow size {nbytes}")
        if rate_cap <= 0:
            raise ValueError(f"flow rate cap must be positive, got {rate_cap}")
        self.fid = fid
        self.path = tuple(path)
        # The flow's class (DESIGN.md §23): flows with one path and one cap
        # always get one max-min rate.
        self.key = (self.path, rate_cap)
        self.nbytes = nbytes
        self.remaining = float(nbytes)
        self.rate_cap = rate_cap
        self.rate = 0.0
        self.last_update = 0.0
        # Finish-queue bookkeeping (FairShareNetwork): the scheduled finish
        # time and the stamp of its queue entry (0 = none, -1 = a fresh
        # finish waits for the instant's settle) once the flow is in the
        # queue; its engine position token while it is queued on its own;
        # the cohort holding its schedule otherwise; and its engine entry
        # once posted, or spliced when its epoch starts. While ``cohort``
        # is set, the cohort holds the flow's rate, residual and
        # ``last_update``.
        self.due = 0.0
        self.stamp = 0
        self.token: Optional[tuple] = None
        self.cohort: Any = None
        self.entry: Optional[list] = None
        self.on_complete = on_complete
        self.start_time = 0.0
        self.finish_time: Optional[float] = None
        self.taginfo = taginfo

    @property
    def done(self) -> bool:
        return self.finish_time is not None

    def drain(self, now: float) -> None:
        """Account bytes moved since ``last_update`` at the current rate."""
        dt = now - self.last_update
        if dt > 0.0 and self.rate > 0.0:
            moved = self.rate * dt
            self.remaining -= moved
            for link in self.path:
                link.bytes_carried += moved
            if self.remaining < 0.0:
                self.remaining = 0.0
        self.last_update = now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Flow {self.fid} {self.remaining:.0f}/{self.nbytes}B "
            f"rate={self.rate / 1e9:.2f}GB/s over {[l.name for l in self.path]}>"
        )
