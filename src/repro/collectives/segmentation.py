"""Message segmentation for pipelined collectives.

Big messages split into segments that flow through the tree independently
(paper Section 2.1.1's pipelining); these helpers also slice/reassemble real
numpy payloads in data mode so correctness tests can check end-to-end bytes.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

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


def segment_offsets(sizes: Sequence[int]) -> list[int]:
    """Byte offset of each segment."""
    offs = [0]
    for s in sizes[:-1]:
        offs.append(offs[-1] + s)
    return offs


def slice_payload(data: Optional[np.ndarray], sizes: Sequence[int]) -> list[Any]:
    """Split a payload array into per-segment views (None stays None)."""
    if data is None:
        return [None] * len(sizes)
    flat = data.reshape(-1).view(np.uint8)
    if flat.nbytes != sum(sizes):
        raise ValueError(
            f"payload is {flat.nbytes} bytes but segments sum to {sum(sizes)}"
        )
    out = []
    off = 0
    for s in sizes:
        out.append(flat[off : off + s])
        off += s
    return out


def assemble_payload(segments: Sequence[Any]) -> Optional[np.ndarray]:
    """Concatenate received segment payloads back into one byte array."""
    if any(s is None for s in segments):
        return None
    return np.concatenate([np.asarray(s, dtype=np.uint8).reshape(-1) for s in segments])
