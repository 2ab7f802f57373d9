"""4K-rank scale smoke tests (slow).

Three properties of a world two orders of magnitude past the unit-test
sizes, where the perf machinery (epoch draining, shape cache, lazy
drain, the class solver) actually engages:

* a 4096-rank ADAPT bcast **completes** and fully drains the engine;
* the simulation is **deterministic**: two identical runs serialize to
  byte-identical result dicts (the golden-trace property at scale);
* the shape cache is **transparent**: solving every component afresh
  (``_HEAP_THRESHOLD``, the cache's size gate, patched to 1 flow, so no
  component is cached) reproduces the default run's result dict exactly —
  same floats, same event counts. The gate's name is older than the class
  solver; there is one solver, so the patch selects no other tier.
"""

from __future__ import annotations

import pytest

from repro.harness.runner import run_collective
from repro.machine import for_ranks
from repro.network import fairshare

pytestmark = pytest.mark.slow

RANKS = 4096


def _run(nbytes: int):
    spec = for_ranks("cori", RANKS)
    return run_collective(
        spec, RANKS, "OMPI-adapt", "bcast", nbytes=nbytes, iterations=1
    )


def test_4k_bcast_completes():
    res = _run(1 << 20)
    assert res.mean_time > 0.0
    stats = res.engine_stats
    assert stats["events_processed"] > 100_000
    assert stats["pending"] == 0  # nothing live left behind


def test_4k_bcast_deterministic_and_heap_bit_identical(monkeypatch):
    base = _run(1 << 16).to_dict()

    again = _run(1 << 16).to_dict()
    assert again == base

    # Solve every component, even single-flow ones, without the shape
    # cache.
    monkeypatch.setattr(fairshare, "_HEAP_THRESHOLD", 1)
    heap = _run(1 << 16).to_dict()
    assert heap == base
