"""Golden transport timeline: exact simulated times of the wire protocol.

Each cell runs one data-mode ADAPT broadcast over the point-to-point
transport and pins every rank's completion time (as a float ``repr``) plus
the world's ``transport_stats()`` against ``tests/golden/transport_timeline.json``.
The grid crosses the two wire protocols — eager (8 KiB segments) and
rendezvous (64 KiB segments) — with five transport settings: raw, reliable
on a clean fabric, reliable with 5% drops, reliable with 10% corruption,
and raw with 10% corruption (a checksum failure there is a silent drop, so
the broadcast strands and the unfinished ranks record ``None``).

Every cell runs observed, so the same comparison also proves the span
recorder never perturbs the wire protocol, and each cell's ``fault`` spans
must tally with its transport counters (none at all on a clean fabric).

The fixture was recorded from the transport before its eager/RTS/data
launch paths were merged; a refactor of ``repro.mpi.runtime`` must keep
every value byte-identical. A deliberate timing change regenerates the
fixture as ``{cell: run_cell(cell) for cell in CELLS}`` and says why.
"""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.collectives import bcast_adapt
from repro.collectives.base import CollectiveContext
from repro.config import CollectiveConfig, RuntimeConfig
from repro.faults import FaultInjector, FaultPlan, LossSpec
from repro.faults.plan import CorruptSpec
from repro.machine import small_test_machine
from repro.mpi import Communicator, MpiWorld
from repro.obs.spans import CAT_FAULT
from repro.trees import topology_aware_tree

GOLDEN = Path(__file__).resolve().parent / "golden" / "transport_timeline.json"
NRANKS = 16

#: protocol -> (broadcast bytes, segment bytes); eager threshold is 16 KiB.
SIZES = {"eager": (64 * 1024, 8 * 1024), "rndv": (256 * 1024, 64 * 1024)}

#: transport setting -> (reliable, fault plan or None).
MODES = {
    "raw": (False, None),
    "reliable": (True, None),
    "reliable-drop": (True, FaultPlan(losses=[LossSpec(drop=0.05)], seed=3)),
    "reliable-corrupt": (True, FaultPlan(corrupts=[CorruptSpec(rate=0.1)], seed=3)),
    "raw-corrupt": (False, FaultPlan(corrupts=[CorruptSpec(rate=0.1)], seed=3)),
}

CELLS = [f"{size}/{mode}" for size in SIZES for mode in MODES]


def run_cell(cell: str) -> dict:
    """One broadcast on a fresh world; returns its times and counters."""
    size, mode = cell.split("/")
    nbytes, segment = SIZES[size]
    reliable, plan = MODES[mode]
    world = MpiWorld(
        small_test_machine(), NRANKS,
        config=RuntimeConfig(reliable=reliable), carry_data=True,
        sanitize=mode != "raw-corrupt",  # a stranded broadcast never drains
        observe=True,
    )
    comm = Communicator(world)
    data = np.random.default_rng(0).integers(0, 256, size=nbytes, dtype=np.uint8)
    tree = topology_aware_tree(world.topology, list(comm.ranks), 0)
    config = CollectiveConfig(segment_size=segment, inflight_sends=2, posted_recvs=3)
    handle = bcast_adapt(
        CollectiveContext(comm, 0, nbytes, config, tree=tree, data=data)
    )
    if plan is not None:
        FaultInjector(world, plan).arm(0.05)
    world.run()
    for rank, out in handle.output.items():
        assert np.array_equal(out, data), f"{cell}: rank {rank} got a wrong payload"
    stats = world.transport_stats()
    faults = Counter(s.name for s in world.obs.by_category(CAT_FAULT))
    assert faults["retransmit"] == stats["retransmits"], cell
    assert faults["crc-reject"] == stats["checksum_rejects"], cell
    assert faults["dup-suppressed"] == stats["duplicates_suppressed"], cell
    if plan is None:
        assert not faults, f"{cell}: fault spans on a fault-free run"
    return {
        "times": [
            repr(handle.done_time[r]) if r in handle.done_time else None
            for r in range(NRANKS)
        ],
        "transport": stats,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_the_grid(golden):
    assert sorted(golden) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_cell_matches_golden(cell, golden):
    assert run_cell(cell) == golden[cell]


def test_grid_reaches_every_transport_branch(golden):
    """The fixture is only a guard if its cells take the branches it pins."""
    stats = {cell: golden[cell]["transport"] for cell in CELLS}
    for size in SIZES:
        assert stats[f"{size}/raw"]["transmissions"] == 0
        assert stats[f"{size}/reliable"]["retransmits"] == 0
        assert stats[f"{size}/reliable-drop"]["retransmits"] > 0
        # Reliable corruption: checksum failure -> NACK -> retransmit.
        assert stats[f"{size}/reliable-corrupt"]["nacks_sent"] > 0
        # Raw corruption: checksum failure is a drop, the broadcast strands.
        assert stats[f"{size}/raw-corrupt"]["checksum_rejects"] > 0
        assert None in golden[f"{size}/raw-corrupt"]["times"]
