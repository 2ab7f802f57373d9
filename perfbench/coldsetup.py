"""One cold set-up of a workload, timed in a fresh interpreter.

Usage (from the repository root)::

    python3 perfbench/coldsetup.py <workload> <seed>

Times the imports, building the workload's cells from the seed and one
untimed warm-up op, and prints the seconds. ``run.py`` runs this several
times and reports the median as ``setup_s``.
"""

import time

_T_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2])).warmup()
print(time.perf_counter() - _T_START)
