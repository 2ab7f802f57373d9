"""Message segmentation for pipelined collectives.

Big messages split into segments that flow through the tree independently
(paper Section 2.1.1's pipelining). Slicing and reassembling the payloads
themselves is :mod:`repro.mpi.payload`'s job.
"""

from __future__ import annotations

from repro.config import CollectiveConfig


def segment_sizes(nbytes: int, config: CollectiveConfig) -> list[int]:
    """Pipeline segment sizes for a message of ``nbytes``."""
    return config.segments_for(nbytes)


def block_ranges(nbytes: int, nparts: int) -> list[tuple[int, int]]:
    """Split ``nbytes`` into ``nparts`` (offset, length) block ranges; the
    first ``nbytes % nparts`` blocks are one byte longer."""
    base, rem = divmod(nbytes, nparts)
    out, off = [], 0
    for i in range(nparts):
        ln = base + (1 if i < rem else 0)
        out.append((off, ln))
        off += ln
    return out
