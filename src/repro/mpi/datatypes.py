"""MPI datatypes (sizes + numpy dtype mapping)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class DataType:
    """An MPI elementary datatype."""

    name: str
    size: int          # bytes per element
    dtype_name: str    # numpy dtype, resolved by ``np_dtype`` on first use

    @cached_property
    def np_dtype(self) -> np.dtype:
        """The numpy dtype (imports numpy: data mode only)."""
        import numpy as np

        return np.dtype(self.dtype_name)

    def count_for(self, nbytes: int) -> int:
        """Element count in a buffer of ``nbytes`` (must divide evenly)."""
        if nbytes % self.size:
            raise ValueError(f"{nbytes} bytes is not a whole number of {self.name}")
        return nbytes // self.size


BYTE = DataType("byte", 1, "uint8")
INT32 = DataType("int32", 4, "int32")
INT64 = DataType("int64", 8, "int64")
FLOAT32 = DataType("float32", 4, "float32")
FLOAT64 = DataType("float64", 8, "float64")
