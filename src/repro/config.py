"""Tunables shared across the MPI runtime and collective frameworks.

These mirror the knobs the paper discusses: the eager/rendezvous threshold
(whose handshake is the noise-propagation mechanism of Section 2.1.1), the
segment size of pipelined collectives, and ADAPT's pipeline depths ``N``
(in-flight sends per child) and ``M`` (pre-posted recvs from the parent),
with ``M > N`` to avoid unexpected messages (Section 2.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class RuntimeConfig:
    """Point-to-point protocol configuration."""

    # Messages at or below this size are sent eagerly (buffered on the
    # receiver if unexpected); larger messages use the rendezvous handshake.
    eager_threshold: int = 16 * 1024
    # Control messages (RTS/CTS) are latency-only wire messages of this size.
    control_bytes: int = 64
    # Reliability (opt-in, for lossy fabrics — repro.faults): every data
    # message carries a sequence number, the receiver acks delivery, and the
    # sender retransmits on timeout with exponential backoff until the retry
    # budget is exhausted, at which point the peer is reported to the failure
    # detector and the send abandoned. RTS/CTS/acks travel a reliable
    # control channel (credit-based hardware assumption, DESIGN.md S17).
    reliable: bool = False
    # First retransmission fires this long after a transmission.
    ack_timeout: float = 2e-3
    # Each further retransmission waits `backoff` times longer.
    retry_backoff: float = 2.0
    # Transmission attempts per message before declaring the peer failed.
    retry_limit: int = 10

    def with_(self, **kw) -> "RuntimeConfig":
        return replace(self, **kw)


@dataclass(frozen=True)
class CollectiveConfig:
    """Collective algorithm configuration."""

    # Pipelining: messages larger than one segment are split.
    segment_size: int = 128 * 1024
    # ADAPT depths: N concurrent in-flight sends per child, M posted recvs.
    inflight_sends: int = 2
    posted_recvs: int = 3
    # Cap on total segments to keep tiny messages single-segment.
    max_segments: int = 1024

    def with_(self, **kw) -> "CollectiveConfig":
        return replace(self, **kw)

    def segments_for(self, nbytes: int) -> list[int]:
        """Split ``nbytes`` into pipeline segment sizes.

        Every segment is ``segment_size`` bytes except a possibly smaller
        tail; a message never splits into more than ``max_segments`` pieces
        (the segment size grows instead).
        """
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        if nbytes == 0:
            return [0]
        seg = self.segment_size
        nseg = -(-nbytes // seg)  # ceil
        if nseg > self.max_segments:
            seg = -(-nbytes // self.max_segments)
            nseg = -(-nbytes // seg)
        sizes = [seg] * (nseg - 1)
        sizes.append(nbytes - seg * (nseg - 1))
        return sizes


DEFAULT_RUNTIME = RuntimeConfig()
DEFAULT_COLLECTIVE = CollectiveConfig()
