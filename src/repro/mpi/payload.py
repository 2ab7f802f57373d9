"""Payload arrays: every array operation the simulator performs on message data.

Data mode (DESIGN.md §4) carries real numpy payloads so that correctness
tests can check end-to-end bytes; timing mode carries ``None`` in their
place. This module is the one place outside :mod:`repro.apps` that calls
numpy on those arrays; callers only slice and copy what it returns. Each
helper returns on a ``None`` payload before touching it and imports numpy
only past that check, so a timing-only run never loads numpy.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

    from repro.mpi.ops import ReduceOp


def copy_payload(data: Any) -> Any:
    """Buffer a payload at send time (value semantics, like MPI)."""
    if data is None:
        return None
    import numpy as np

    return data.copy() if isinstance(data, np.ndarray) else data


def payload_crc(data: Any) -> Optional[int]:
    """Sender-side segment checksum (end-to-end integrity, DESIGN.md S20)."""
    if data is None:
        return None
    import numpy as np

    if isinstance(data, np.ndarray):
        return zlib.crc32(np.ascontiguousarray(data).tobytes())
    return None


def flip_bit(data: Any, bit: int) -> Any:
    """A copy of ``data`` with one bit flipped (in-flight corruption)."""
    if data is None:
        return None
    import numpy as np

    if not isinstance(data, np.ndarray):
        return data
    out = np.ascontiguousarray(data).copy()
    view = out.reshape(-1).view(np.uint8)
    if view.size:
        i = (bit // 8) % view.size
        view[i] ^= np.uint8(1 << (bit % 8))
    return out


def byte_view(data: Any, copy: bool = False) -> Optional[np.ndarray]:
    """A payload as a flat ``uint8`` array: a view, or with ``copy`` a
    writable copy (None stays None)."""
    if data is None:
        return None
    import numpy as np

    flat = np.asarray(data).reshape(-1).view(np.uint8)
    return flat.copy() if copy else flat


def slice_payload(data: Any, sizes: Sequence[int]) -> list[Any]:
    """Split a payload into per-segment byte views (None stays None)."""
    flat = byte_view(data)
    if flat is None:
        return [None] * len(sizes)
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
    """Concatenate payload pieces into one byte array; None when a piece is
    missing or there are none."""
    if not segments or any(s is None for s in segments):
        return None
    import numpy as np

    return np.concatenate([np.asarray(s, dtype=np.uint8).reshape(-1) for s in segments])


def zero_bytes(nbytes: int) -> np.ndarray:
    """A zero-filled byte block (a block no live rank supplied)."""
    import numpy as np

    return np.zeros(nbytes, dtype=np.uint8)


def combine_payloads(op: ReduceOp, acc: Any, operand: Any) -> Any:
    """Numerically combine two payloads with ``op`` (None if either is)."""
    if acc is None or operand is None:
        return None
    import numpy as np

    return op(np.asarray(acc), np.asarray(operand))
