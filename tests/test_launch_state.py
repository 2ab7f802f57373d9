"""Per-launch state is freed during the run, not kept until it ends.

A finished launch's rank states should be garbage that reference counting
frees; what the run keeps alive in cycles stays in the young generation
until the runner's one collection. These tests pin that census with the
collector off, and check the two changes that keep it small:

* a harness world with no failure detector keeps no failure subscription
  (a buffered one would hold its rank state), and constructing a detector
  on such a world raises instead of silently missing launches;
* the IMB loop's partial launches of ``allreduce_adapt`` join one reduce
  instead of making one reduce handle per rank.
"""

import gc
from collections import Counter

import numpy as np
import pytest

from repro.collectives import allreduce_adapt
from repro.collectives.base import CollectiveContext
from repro.collectives.models import COLLECTIVES
from repro.config import CollectiveConfig
from repro.faults import FailureDetector, FaultPlan, KillSpec, LossSpec
from repro.harness import run_collective
from repro.harness.runner import _build_world
from repro.libraries.presets import PreparedCollective
from repro.machine import small_test_machine
from repro.mpi import SUM, Communicator, MpiWorld
from repro.trees import topology_aware_tree

_CENSUS = ("_RankFailures", "_AdaptReduceRank", "_AdaptBcastRank",
           "CollectiveHandle")


def _young_census(run) -> Counter:
    """Run ``run()`` with the collector off; count what stays young.

    With the collector disabled the runner does not collect either, so
    generation 0 holds exactly what the run left in cycles.
    """
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        counts = Counter(type(o).__name__ for o in gc.get_objects(0))
        return Counter({name: counts[name] for name in _CENSUS})
    finally:
        if was:
            gc.enable()
        gc.collect()


class TestCensus:
    def test_lossy_allreduce_keeps_one_reduce_per_iteration(self):
        census = _young_census(lambda: run_collective(
            small_test_machine(nodes=4), 32, "OMPI-adapt", "allreduce",
            8 * 1024, iterations=3,
            fault_plan=FaultPlan(losses=[LossSpec(drop=0.01)]),
        ))
        # Per iteration: the allreduce, its reduce and its bcast handle.
        assert census == Counter({"CollectiveHandle": 9})

    # The per-iteration handles each op keeps in cycles: three per
    # allreduce-style op (itself, its reduce, its bcast), two per quorum op
    # built from two phases, one for the rest.
    HANDLES = {name: 3 for name in COLLECTIVES}
    HANDLES.update(allreduce=9, bcast_quorum=6, allreduce_quorum=6)

    @pytest.mark.parametrize("operation", sorted(COLLECTIVES))
    def test_handles_per_operation(self, operation):
        census = _young_census(lambda: run_collective(
            small_test_machine(), 16, "OMPI-adapt", operation, 64 * 1024,
            iterations=3,
        ))
        assert census == Counter({"CollectiveHandle": self.HANDLES[operation]})


class TestClosedSubscriptionBuffer:
    def _world(self, plan):
        return _build_world(small_test_machine(), 8, fault_plan=plan)[0]

    def test_loss_only_world_keeps_no_subscription(self):
        world = self._world(FaultPlan(losses=[LossSpec(drop=0.05)]))
        assert world.failure_detector is None
        world.subscribe_failures(lambda rank: None)
        assert world._failure_subscribers is None

    def test_detector_on_closed_world_raises(self):
        world = self._world(FaultPlan(losses=[LossSpec(drop=0.05)]))
        with pytest.raises(RuntimeError, match="closed"):
            FailureDetector(world)
        assert world.failure_detector is None

    def test_kill_world_keeps_its_detector(self):
        world = self._world(FaultPlan(kills=[KillSpec(rank=5, time=5e-6)]))
        assert world.failure_detector is not None
        assert world._failure_subscribers == []

    def test_degraded_bcast_still_reports_degraded(self):
        result = run_collective(
            small_test_machine(), 16, "OMPI-adapt", "bcast", 256 * 1024,
            iterations=1,
            fault_plan=FaultPlan(kills=[KillSpec(rank=5, time=5e-6)]),
        )
        assert result.degraded

    def test_other_worlds_keep_the_buffer(self):
        world = MpiWorld(small_test_machine(), 8)
        world.subscribe_failures(lambda rank: None)
        assert len(world._failure_subscribers) == 1
        FailureDetector(world)
        assert world._failure_subscribers == []
        assert len(world.failure_detector._subscribers) == 1


def test_partial_launches_join_one_reduce():
    """Rank-by-rank launches through one PreparedCollective, root last."""
    world = MpiWorld(small_test_machine(), 12, carry_data=True, sanitize=True)
    comm = Communicator(world)
    nbytes = 16 * 1024
    rng = np.random.default_rng(3)
    data = {r: rng.integers(0, 50, size=nbytes, dtype=np.uint8)
            for r in range(comm.size)}
    tree = topology_aware_tree(world.topology, list(comm.ranks), 0)
    ctx = CollectiveContext(
        comm, 0, nbytes, CollectiveConfig(segment_size=4 * 1024), tree=tree,
        data=data, op=SUM,
    )
    prep = PreparedCollective(
        lambda handle, ranks: allreduce_adapt(ctx, handle=handle, ranks=ranks)
    )
    for delay, local in enumerate(reversed(range(comm.size))):
        comm.runtime(local).cpu.execute(
            1e-6 * delay, lambda local=local: prep.launch(ranks=[local])
        )
    world.run()
    expected = data[0].copy()
    for r in range(1, comm.size):
        expected = SUM(expected, data[r])
    handle = prep.handle
    assert handle.done
    for local in range(comm.size):
        np.testing.assert_array_equal(handle.output[local], expected)
    assert sorted(ctx.scratch.done_time) == list(range(comm.size))
