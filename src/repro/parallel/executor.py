"""Fan sweep jobs out over worker processes, deterministically.

``run_jobs`` is the one sweep primitive: it takes an ordered list of
:class:`SimJob` cells and returns their results *in the same order*,
whatever the worker count. Determinism argument (DESIGN.md §18):

* every job is pure config — the worker rebuilds its world from names and
  numbers, so a job's result depends only on the job;
* each simulated world is single-threaded and seeded — identical configs
  yield identical event timelines in any process (the simulator never
  iterates sets whose order feeds float arithmetic without sorting first);
* results travel as JSON dicts and are merged by *input index*, never by
  completion order — and the sequential path round-trips through the same
  serialization, so ``--jobs 1`` and ``--jobs N`` produce identical bytes.

Cache lookups happen before dispatch (hits never spawn work); completed
results are written back as they land, so even an interrupted sweep warms
the cache for the next run.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.parallel.jobs import SimJob
from repro.parallel.worker import execute_job, result_from_dict

if TYPE_CHECKING:
    from repro.parallel.cache import ResultCache

#: Cap on queued-but-unsubmitted futures per worker; bounds memory on huge
#: sweeps without idling the pool.
_BACKLOG_PER_WORKER = 4


def run_jobs(
    jobs: Sequence[SimJob],
    *,
    n_jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> list:
    """Execute ``jobs`` and return their results in input order.

    ``n_jobs`` is the worker-process count (None = ``REPRO_JOBS`` env or 1;
    1 = in-process). ``cache`` short-circuits jobs whose key is already
    stored and records fresh results. ``progress(done, total)`` is called
    after every completed job (cache hits included).
    """
    if n_jobs is None:
        n_jobs = int(os.environ.get("REPRO_JOBS", "1"))
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")

    total = len(jobs)
    results: list[Optional[dict]] = [None] * total
    done = 0

    pending: list[int] = []
    for i, job in enumerate(jobs):
        hit = cache.get(job) if cache is not None else None
        if hit is not None:
            results[i] = hit
            done += 1
            if progress is not None:
                progress(done, total)
        else:
            pending.append(i)

    def _record(i: int, result: dict) -> None:
        nonlocal done
        results[i] = result
        if cache is not None:
            cache.put(jobs[i], result)
        done += 1
        if progress is not None:
            progress(done, total)

    if pending and (n_jobs == 1 or len(pending) == 1):
        for i in pending:
            _record(i, execute_job(jobs[i]))
    elif pending:
        # Deferred: an in-process run never loads multiprocessing.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        workers = min(n_jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            backlog = workers * _BACKLOG_PER_WORKER
            queue = iter(pending)
            in_flight = {}
            for i in queue:
                in_flight[pool.submit(execute_job, jobs[i])] = i
                if len(in_flight) >= backlog:
                    break
            while in_flight:
                finished, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for fut in finished:
                    _record(in_flight.pop(fut), fut.result())
                for i in queue:
                    in_flight[pool.submit(execute_job, jobs[i])] = i
                    if len(in_flight) >= backlog:
                        break

    # Both paths round-trip through the dict form: byte-identical tables.
    assert all(d is not None for d in results)
    return [result_from_dict(d) for d in results]
