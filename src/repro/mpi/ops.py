"""Predefined MPI reduction operations.

Each op names the actual numpy combine function — used when a simulation
carries real payloads so tests can assert bit-correct reduce results — and
is associative/commutative, matching the predefined MPI ops the paper's
CUDA kernels implement (Section 4.2 footnote). The ufunc is looked up on
first use, so a timing-only run never imports numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ReduceOp:
    """One reduction operator."""

    name: str
    ufunc: str  # name of the numpy ufunc behind ``combine``

    @cached_property
    def combine(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """The numpy ufunc (imports numpy: data mode only)."""
        import numpy as np

        return getattr(np, self.ufunc)

    def __call__(self, a, b):
        """Combine two operands (arrays or scalars) elementwise."""
        return self.combine(a, b)


SUM = ReduceOp("sum", "add")
PROD = ReduceOp("prod", "multiply")
MAX = ReduceOp("max", "maximum")
MIN = ReduceOp("min", "minimum")

ALL_OPS = (SUM, PROD, MAX, MIN)
