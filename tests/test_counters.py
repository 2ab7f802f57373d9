"""Structural counters: one committed row of exact counts per perfbench cell.

ADAPT moves a message only through completion callbacks (paper §2.2), so
the simulator's host cost per send is a count before it is a time: engine
events, flow finishes scheduled, max-min solves, finish-queue wakes, route
builds, Python calls. This module pins those counts for every seed-0 cell
of the collective perfbench workloads (``perfbench/workloads.py``,
imported, not copied) and for the four 1 MiB cells of the Figure 9a sweep,
against ``tests/golden/counters.json``.

Each count comes from a counter the simulator already keeps where one
exists (``RunResult.engine_stats``, ``gc.get_stats()``); the rest are
calls to simulator internals, counted by :func:`_count` for the length of
one run. Nothing in ``src/`` keeps a counter for this test.

Two columns depend on the interpreter as well as on the simulator, so
they are checked only on the CPython minor version the golden was
recorded on (its ``"python"`` key):

* ``calls_per_send``: Python ``call`` profile events per
  ``RankRuntime.isend`` on the Figure 9a cells, measured after the cell
  has run once; it may drift by up to :data:`CALLS_SLACK` either way (a
  patch release may count a frame differently);
* ``gc.young``: what one allreduce cell leaves in the young generation
  with the collector off, after the cell has run once. The census counts
  of named types beside it hold on every version.

A perf PR shows its structural effect as a diff of the golden. A
deliberate change regenerates it as ``{"python": PYTHON, "cells":
{cell: count_cell(cell) for cell in CELLS}}``, written with
``json.dumps(golden, indent=1)`` and a final newline, and says why.
"""

from __future__ import annotations

import gc
import heapq
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.harness.bench import _collections
from repro.harness.runner import run_collective
from repro.mpi.runtime import RankRuntime
from repro.network import fairshare
from repro.network.fabric import Fabric
from repro.network.fairshare import FairShareNetwork, Flow
from repro.parallel import run_jobs
from repro.sim.engine import Engine, EventHandle

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "counters.json"
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"

#: How far ``calls_per_send`` may drift from its recorded value.
CALLS_SLACK = 1.0

#: The types whose young instances the census names.
CENSUS = ("CollectiveHandle", "_RankFailures")


def _import_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _import_workloads()


def _cells() -> dict:
    """Cell name -> a call that runs the cell once and returns its result."""
    cells = {}
    for name in ("bcast-large", "allreduce-noisy-lossy", "alltoall-contended"):
        for cell in workloads.WORKLOADS[name](0).cells:
            cells[f"{name}/{cell.label}"] = (
                lambda kwargs=cell.kwargs: run_collective(**kwargs))
    sweep = workloads.Fig09Sweep(0)
    for job, label in zip(sweep.jobs, sweep.labels()):
        if job.nbytes == 1 << 20:
            cells[f"fig09-sweep/{label}"] = (
                lambda job=job: run_jobs([job], n_jobs=1, cache=None)[0])
    return cells


CELLS = _cells()
#: The cell whose young generation is censused (256 ranks, 5 iterations).
CENSUS_CELL = next(c for c in CELLS if c.startswith("allreduce-noisy-lossy/"))


def _count(mp, counts, owner, name, column, weight=None):
    """Wrap ``owner.name`` so that each call adds ``weight(*args)`` (1 if
    None) to ``counts[column]``, then runs the original."""
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[column] += 1 if weight is None else weight(*args, **kwargs)
        return inner(*args, **kwargs)

    mp.setattr(owner, name, counted)


def _counted_run(run) -> dict:
    """Run the cell once with every call counter installed."""
    counts: dict[str, int] = {}
    with pytest.MonkeyPatch.context() as mp:
        # The finish queue's heapq, alone, so that its pushes can be counted.
        mp.setattr(fairshare, "heapq", SimpleNamespace(**vars(heapq)))
        for owner, name, column, weight in (
            (Engine, "post_entry", "engine.post_entries", None),
            (Engine, "discard", "engine.discards", None),
            (Engine, "wake_at", "engine.wakes", None),
            (EventHandle, "cancel", "engine.cancelled",
             lambda handle: handle.fn is not None),
            (fairshare, "maxmin_rates", "net.solves", None),
            # Every counted cell runs on the flat fabric.
            (Fabric, "_route_uncached", "net.routes", None),
            (fairshare, "_flow_rates", "net.per_flow_solves", None),
            (FairShareNetwork, "_schedule", "net.dues",
             lambda net, singles, batches, since:
                 len(singles) + sum(len(c.flows) for c in batches)),
            (FairShareNetwork, "_schedule", "net.cohort_dues",
             lambda net, singles, batches, since: sum(len(c.flows) for c in batches)),
            (fairshare.heapq, "heappush", "net.queue_pushes",
             lambda heap, item: type(item[-1]) is Flow),
            (RankRuntime, "_start", "mpi.rndv_sends",
             lambda rt, req, kind, *rest: kind == "rts"),
        ):
            counts[column] = 0
            _count(mp, counts, owner, name, column, weight)
        gc.collect()  # as `repro bench` does: start from a full collection
        before = _collections()
        result = run()
        collections = [a - b for a, b in zip(_collections(), before)]
    return {
        "engine.events": int(result.engine_stats["events_processed"]),
        **dict(sorted(counts.items())),
        "gc.collections": collections,
    }


def _calls_per_send(run) -> float:
    """Python ``call`` profile events per ``RankRuntime.isend``."""
    isend = RankRuntime.isend.__code__
    counts = [0, 0]  # calls, sends

    def profile(frame, event, arg):
        if event == "call":
            counts[0] += 1
            if frame.f_code is isend:
                counts[1] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return round(counts[0] / counts[1], 2)


def _young_census(run) -> dict:
    """What one run leaves in the young generation, collector off."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        young = gc.get_objects(0)  # before the genexpr's function exists
        names = Counter(type(o).__name__ for o in young)
    finally:
        if was:
            gc.enable()
    return {"gc.young": sum(names.values()),
            **{f"gc.young.{name}": names[name] for name in CENSUS}}


def count_cell(cell: str) -> dict:
    """One golden row: the counted run, then (for the cells that have them)
    the census and calls-per-send passes, which the first run warms up."""
    run = CELLS[cell]
    row = _counted_run(run)
    if cell == CENSUS_CELL:
        row.update(_young_census(run))
    if cell.startswith("fig09-sweep/"):
        row["calls_per_send"] = _calls_per_send(run)
    return row


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_cell(golden):
    assert sorted(golden["cells"]) == sorted(CELLS)


def _differs(column: str, got, want) -> bool:
    if column == "calls_per_send" and None not in (got, want):
        return abs(got - want) > CALLS_SLACK
    return got != want


@pytest.mark.parametrize("cell", CELLS)
def test_cell_matches_golden(cell, golden):
    got, want = count_cell(cell), dict(golden["cells"][cell])
    if golden["python"] != PYTHON:
        for row in (got, want):
            row.pop("calls_per_send", None)
            row.pop("gc.young", None)
    diff = {column: (got.get(column), want.get(column))
            for column in sorted(got.keys() | want.keys())
            if _differs(column, got.get(column), want.get(column))}
    assert not diff, f"{cell}: column -> (counted, golden): {diff}"


def test_golden_keeps_the_design_rules(golden):
    """Rules a regenerated golden must still obey, whatever its counts."""
    cells = golden["cells"]
    for cell, row in cells.items():
        # The runner pauses the collector and frees its world with one
        # young collection after the run (DESIGN.md, "Collector policy").
        assert row["gc.collections"] == [1, 0, 0], cell
        # Every solve starts from the class census, never flow by flow.
        assert row["net.per_flow_solves"] == 0, cell
    census = cells[CENSUS_CELL]
    # Routes are built per endpoint signature, not per rank pair: the
    # 32-rank alltoall's 992 pairs sit on 2 sockets and share 4 routes.
    assert cells["alltoall-contended/alltoall-64KiB-32r"]["net.routes"] == 4
    # Flows that never contend post their finishes with no queue wake.
    assert cells["bcast-large/bcast-4MiB-256r"]["engine.wakes"] == 0
    assert census["engine.wakes"] == 0
    # A harness world keeps no failure subscription, and each of the five
    # iterations keeps one allreduce, one reduce and one bcast handle.
    assert census["gc.young._RankFailures"] == 0
    assert census["gc.young.CollectiveHandle"] == 3 * 5
    assert census["gc.young"] < 8000
