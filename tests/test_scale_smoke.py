"""4K-rank scale smoke tests (slow).

Two properties of a world two orders of magnitude past the unit-test
sizes, where the perf machinery (epoch draining, the uncontended settle,
lazy drain) actually engages:

* a 4096-rank ADAPT bcast **completes** and fully drains the engine;
* the simulation is **deterministic**: two identical runs serialize to
  byte-identical result dicts (the golden-trace property at scale).
"""

from __future__ import annotations

import pytest

from repro.harness.runner import run_collective
from repro.machine import for_ranks

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


def test_4k_bcast_deterministic():
    base = _run(1 << 16).to_dict()

    again = _run(1 << 16).to_dict()
    assert again == base
