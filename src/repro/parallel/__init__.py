"""Parallel sweep execution (DESIGN.md §18).

The paper's figures are parameter sweeps — library x collective x
node-count x message-size grids of *independent* simulations. This package
decomposes them into pure-config :class:`SimJob` cells, fans the cells out
over a process pool, merges results deterministically (tables are
byte-identical to the sequential path), and memoizes every cell in a
content-addressed on-disk cache keyed by config + a hash of the package
source, so a cached result never outlives the code that produced it.
"""

from repro import on_first_use
from repro.parallel.executor import run_jobs
from repro.parallel.jobs import SimJob
from repro.parallel.worker import execute_job, result_from_dict

__all__ = [
    "ResultCache",
    "SimJob",
    "execute_job",
    "result_from_dict",
    "run_jobs",
]

#: Served on first use: tests, benchmarks and every uncached sweep build no
#: result cache.
__getattr__ = on_first_use(__name__, {"ResultCache": "cache"})
