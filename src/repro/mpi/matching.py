"""Message matching: posted-receive and unexpected-message queues.

Matching is exact on ``(source, tag)`` with FIFO order within a key — the
collectives in this repository encode the segment index in the tag, so exact
matching reproduces MPI's non-overtaking guarantee for every pattern used
here (DESIGN.md notes this as the one simplification over full wildcard
matching).

The unexpected queue is not free: an eager message that arrives before its
receive is posted is buffered and later *copied* into the user buffer, an
extra memcpy the paper calls out as the reason ADAPT posts more recvs than
sends in flight (``M > N``, Section 2.2.1).

Reliability support (``RuntimeConfig.reliable``, DESIGN.md S17): data
messages carry per-sender sequence numbers; :meth:`Matcher.register_seq`
suppresses redeliveries — a retransmission that raced a slow original, or a
fabric-injected duplicate — so at-least-once transport yields exactly-once
matching.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.mpi.request import Request

#: A wire-level matching key: ``(src, dst, tag)``. Exact matching means a
#: message and a posted recv pair up iff their keys are equal.
MatchKey = tuple[int, int, int]


def match_key(kind: str, rank: int, peer: int, tag: int) -> MatchKey:
    """The wire key ``(src, dst, tag)`` of an operation owned by ``rank``.

    A send from ``rank`` to ``peer`` and a recv on ``peer`` naming ``rank``
    produce the same key — the equality the matcher tests, factored out so
    offline tools (the schedule model checker) enumerate candidates with
    the exact same rule the runtime applies.
    """
    if kind == "send":
        return (rank, peer, tag)
    if kind == "recv":
        return (peer, rank, tag)
    raise ValueError(f"match keys exist only for send/recv, not {kind!r}")


def candidate_matches(
    sends: Iterable[tuple[int, int, int, int]],
    recvs: Iterable[tuple[int, int, int, int]],
) -> dict[MatchKey, tuple[list[int], list[int]]]:
    """Group operations by wire key: ``{key: (send_ids, recv_ids)}``.

    ``sends`` and ``recvs`` are ``(op_id, src, dst, tag)`` tuples. Every key
    seen on either side appears in the result (a key with sends but no
    recvs is how the race detector spots ambiguous in-flight messages, and
    a one-sided key at quiescence is an unmatched operation). Within a key
    the id lists preserve input order — the runtime's FIFO tiebreak.
    """
    out: dict[MatchKey, tuple[list[int], list[int]]] = {}
    for oid, src, dst, tag in sends:
        out.setdefault((src, dst, tag), ([], []))[0].append(oid)
    for oid, src, dst, tag in recvs:
        out.setdefault((src, dst, tag), ([], []))[1].append(oid)
    return out


@dataclass
class InboundMessage:
    """An arrived eager payload, or a rendezvous announcement (RTS)."""

    src: int
    tag: int
    nbytes: int
    eager: bool
    data: Any = None
    # Rendezvous only: opaque handle the runtime uses to send the CTS back.
    rendezvous_token: Any = None
    # Reliable transport only: per-sender delivery sequence number.
    seq: Optional[int] = None
    # End-to-end integrity (DESIGN.md S20): sender checksum of the payload,
    # and the in-flight corruption flag (models a checksum mismatch when the
    # simulation carries no real payload bytes).
    crc: Optional[int] = None
    corrupt: bool = False


@dataclass
class Matcher:
    """Per-rank matching state."""

    posted: dict[tuple[int, int], deque[Request]] = field(default_factory=dict)
    inbound: dict[tuple[int, int], deque[InboundMessage]] = field(default_factory=dict)
    unexpected_eager_count: int = 0
    # Reliable transport: per-source sets of delivered sequence numbers.
    seen_seqs: dict[int, set[int]] = field(default_factory=dict)
    duplicates_suppressed: int = 0

    def register_seq(self, src: int, seq: int) -> bool:
        """Record a delivery; returns False (and counts) for a duplicate."""
        seen = self.seen_seqs.setdefault(src, set())
        if seq in seen:
            self.duplicates_suppressed += 1
            return False
        seen.add(seq)
        return True

    def fresh_deliveries(self) -> int:
        """Distinct reliable messages delivered to this rank."""
        return sum(len(s) for s in self.seen_seqs.values())

    def cancel_recv(self, req: Request) -> bool:
        """Withdraw a posted (unmatched) receive; True if it was queued."""
        key = (req.peer, req.tag)
        queue = self.posted.get(key)
        if not queue or req not in queue:
            return False
        queue.remove(req)
        if not queue:
            del self.posted[key]
        return True

    def post_recv(self, req: Request) -> Optional[InboundMessage]:
        """Register a posted receive; returns a message if one already arrived."""
        key = (req.peer, req.tag)
        queue = self.inbound.get(key)
        if queue:
            msg = queue.popleft()
            if not queue:
                del self.inbound[key]
            return msg
        self.posted.setdefault(key, deque()).append(req)
        return None

    def arrive(self, msg: InboundMessage) -> Optional[Request]:
        """Register an arrival; returns the matching posted recv if any."""
        key = (msg.src, msg.tag)
        queue = self.posted.get(key)
        if queue:
            req = queue.popleft()
            if not queue:
                del self.posted[key]
            return req
        self.inbound.setdefault(key, deque()).append(msg)
        if msg.eager:
            self.unexpected_eager_count += 1
        return None

    def pending_posted(self) -> int:
        return sum(len(q) for q in self.posted.values())

    def pending_inbound(self) -> int:
        return sum(len(q) for q in self.inbound.values())
