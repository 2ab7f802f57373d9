"""Structured spans and monotonic counters.

A :class:`Span` is one closed time interval attributed to a *track* — either
a rank (``("rank", 3)``) or a fabric link (``("link", "nic-out:n0")``) — with
a category, a human-readable name, and optional key/value arguments. Spans
are recorded retrospectively at the instant their end time is known (request
completion, flow drain, CPU work submission), so recording never perturbs
the event timeline: the simulation schedules exactly the same events with
and without a recorder attached.

Categories double as the metrics engine's grouping key: ``wait`` spans sum
into the sync-wait fraction, ``noise`` spans into the injected-noise total,
``flow`` spans into per-link busy intervals.
"""

from __future__ import annotations

from typing import Any, Optional

# Span categories. Kept as plain strings (they travel through JSON).
CAT_SEND = "send"            # request lifetime: isend post -> completion
CAT_RECV = "recv"            # request lifetime: irecv post -> completion
CAT_WAIT = "wait"            # proclet blocked in Wait/Waitall/Waitany
CAT_SLEEP = "sleep"          # proclet idle without occupying the CPU
CAT_CPU = "cpu"              # work occupying the rank's CPU
CAT_NOISE = "noise"          # injected noise occupying the rank's CPU
CAT_COLLECTIVE = "collective"  # one rank's participation in one collective
CAT_FLOW = "flow"            # one transfer occupying one link
CAT_RECOVERY = "recovery"    # one membership repair: first suspicion -> commit
CAT_STALENESS = "staleness"  # one quorum epoch: open -> seal (DESIGN.md S25)
CAT_FAULT = "fault"          # zero-length fault-path event, named by its kind

#: Wait kinds that count as synchronization (MPI_Wait*) — a sleeping proclet
#: is idle by choice, not blocked on a peer.
SYNC_WAIT_NAMES = ("wait", "waitall", "waitany")


class Span:
    """One closed interval on one track."""

    __slots__ = ("cat", "name", "track", "begin", "end", "args")

    def __init__(
        self,
        cat: str,
        name: str,
        track: tuple[str, Any],
        begin: float,
        end: float,
        args: Optional[dict] = None,
    ):
        self.cat = cat
        self.name = name
        self.track = track      # ("rank", int) | ("link", str)
        self.begin = begin
        self.end = end
        self.args = args

    @property
    def duration(self) -> float:
        return self.end - self.begin

    def to_list(self) -> list:
        """Compact JSON form: [cat, name, track_kind, track_id, begin, end, args]."""
        return [
            self.cat, self.name, self.track[0], self.track[1],
            self.begin, self.end, self.args,
        ]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        cat, name, tkind, tid, begin, end, args = row
        return cls(cat, name, (tkind, tid), begin, end, args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tk, tid = self.track
        return (
            f"<Span {self.cat}:{self.name} {tk}={tid} "
            f"[{self.begin:.9f}, {self.end:.9f})>"
        )


class ObsRecorder:
    """Collects spans and monotonic counters for one world.

    The world's one record stream. Bounded: recording beyond ``max_spans``
    drops the tail and sets :attr:`truncated`, so a runaway sweep degrades
    to partial observability instead of unbounded memory growth.
    """

    __slots__ = ("max_spans", "spans", "dropped", "counters")

    def __init__(self, max_spans: int = 2_000_000):
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.dropped = 0
        self.counters: dict[str, int] = {}

    def add(
        self,
        cat: str,
        name: str,
        track: tuple[str, Any],
        begin: float,
        end: float,
        args: Optional[dict] = None,
    ) -> None:
        """Record one completed span."""
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(Span(cat, name, track, begin, end, args))

    def count(self, name: str, n: int = 1) -> None:
        """Bump a monotonic counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    @property
    def truncated(self) -> bool:
        """True when the span cap was hit and tail spans were dropped."""
        return self.dropped > 0

    # -- views -----------------------------------------------------------------

    def by_category(self, cat: str) -> list[Span]:
        return [s for s in self.spans if s.cat == cat]

    def tracks(self) -> list[tuple[str, Any]]:
        """Distinct tracks: ranks, then links, then the singleton process
        tracks (recovery, staleness) — deterministic order."""
        ranks = sorted({s.track[1] for s in self.spans if s.track[0] == "rank"})
        links = sorted({s.track[1] for s in self.spans if s.track[0] == "link"})
        other = sorted(
            {s.track for s in self.spans if s.track[0] not in ("rank", "link")},
            key=lambda t: (t[0], str(t[1])),
        )
        return (
            [("rank", r) for r in ranks]
            + [("link", name) for name in links]
            + other
        )

    # -- wire format -----------------------------------------------------------
    #
    # The parallel executor serializes results as JSON between workers and
    # through the on-disk cache; spans ride along as compact lists so a
    # traced run is byte-identical at any --jobs count.

    def to_dict(self) -> dict:
        return {
            "spans": [s.to_list() for s in self.spans],
            "counters": dict(sorted(self.counters.items())),
            "dropped": self.dropped,
            "max_spans": self.max_spans,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ObsRecorder":
        rec = cls(max_spans=d.get("max_spans", 2_000_000))
        rec.spans = [Span.from_list(row) for row in d.get("spans", [])]
        rec.counters = dict(d.get("counters", {}))
        rec.dropped = int(d.get("dropped", 0))
        return rec
