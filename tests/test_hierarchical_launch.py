"""Tests for the hierarchical classes' partial-launch API and the
PreparedCollective chaining used by the IMB runner."""

import numpy as np
import pytest

from repro.collectives.base import CollectiveContext
from repro.collectives.hierarchical import HierarchicalBcast, HierarchicalReduce
from repro.config import CollectiveConfig
from repro.libraries import library_by_name
from repro.machine import small_test_machine
from repro.mpi import SUM, Communicator, MpiWorld

CFG = CollectiveConfig(segment_size=8 * 1024)


def make_world(nranks=24, carry=True):
    w = MpiWorld(small_test_machine(), nranks, carry_data=carry)
    return w, Communicator(w)


class TestHierarchicalBcastLaunch:
    def test_chain_ranks_are_the_leaders(self):
        w, comm = make_world()
        ctx = CollectiveContext(comm, 0, 64 << 10, CFG)
        hb = HierarchicalBcast(ctx)
        assert hb.chain_ranks == {0, 8, 16}

    def test_staggered_leader_launch_completes(self):
        w, comm = make_world()
        data = np.arange(64 << 10, dtype=np.uint8) % 251
        ctx = CollectiveContext(comm, 0, 64 << 10, CFG, data=data)
        hb = HierarchicalBcast(ctx)
        hb.launch(ranks=[0])         # root leader enters first
        w.run()
        # Other leaders have not entered: their groups cannot finish.
        assert not hb.handle.done
        hb.launch(ranks=[8, 16])
        w.run()
        assert hb.handle.done
        for r in range(24):
            np.testing.assert_array_equal(
                np.asarray(hb.handle.output[r]).view(np.uint8), data
            )

    def test_non_leader_launch_is_noop(self):
        w, comm = make_world()
        ctx = CollectiveContext(comm, 0, 64 << 10, CFG)
        hb = HierarchicalBcast(ctx)
        hb.launch(ranks=[5])  # not a leader
        w.run()
        assert len(hb.handle.done_time) == 0

    def test_single_rank_world(self):
        w, comm = make_world(nranks=1)
        ctx = CollectiveContext(comm, 0, 1024, CFG, data=np.ones(1024, np.uint8))
        hb = HierarchicalBcast(ctx)
        hb.launch()
        w.run()
        assert hb.handle.done

    def test_a_lone_rank_node_is_its_own_group(self):
        # Nine ranks: the second node holds rank 8 alone, which its leader
        # phase delivers to directly.
        w, comm = make_world(nranks=9)
        data = np.arange(64 << 10, dtype=np.uint8) % 251
        hb = HierarchicalBcast(CollectiveContext(comm, 0, 64 << 10, CFG, data=data))
        assert hb.groups[1] == [8]
        hb.launch()
        w.run()
        assert hb.handle.done and len(hb.handle.done_time) == 9
        for r in range(9):
            np.testing.assert_array_equal(
                np.asarray(hb.handle.output[r]).view(np.uint8), data)

    def test_relaunch_on_one_node_runs_its_group_once(self):
        w, comm = make_world(nranks=8)
        hb = HierarchicalBcast(CollectiveContext(comm, 0, 64 << 10, CFG))
        hb.launch()
        hb.launch()  # one leader, already launched: nothing more starts
        w.run()
        assert hb.handle.done and len(hb.handle.done_time) == 8


class TestHierarchicalReduceLaunch:
    def test_all_ranks_chain(self):
        w, comm = make_world()
        ctx = CollectiveContext(comm, 0, 32 << 10, CFG, op=SUM)
        hr = HierarchicalReduce(ctx)
        assert hr.chain_ranks == set(range(24))

    def test_staggered_entry_still_reduces_correctly(self):
        w, comm = make_world()
        nbytes = 32 << 10
        rng = np.random.default_rng(3)
        data = {r: rng.integers(0, 9, nbytes, dtype=np.uint8) for r in range(24)}
        ctx = CollectiveContext(comm, 0, nbytes, CFG, data=data, op=SUM)
        hr = HierarchicalReduce(ctx)
        # Half the ranks enter now, half after the first batch drains.
        hr.launch(ranks=range(0, 24, 2))
        w.run()
        assert not hr.handle.done
        hr.launch(ranks=range(1, 24, 2))
        w.run()
        assert hr.handle.done
        expected = sum(data[r].astype(np.uint64) for r in range(24)).astype(np.uint8)
        # uint8 SUM wraps identically in both orders (mod 256).
        got = np.asarray(hr.handle.output[0]).view(np.uint8)
        np.testing.assert_array_equal(got, expected)

    def test_a_lone_rank_node_enters_the_leader_level_directly(self):
        w, comm = make_world(nranks=9)
        nbytes = 32 << 10
        rng = np.random.default_rng(4)
        data = {r: rng.integers(0, 9, nbytes, dtype=np.uint8) for r in range(9)}
        hr = HierarchicalReduce(CollectiveContext(comm, 0, nbytes, CFG, data=data, op=SUM))
        assert hr.groups[1] == [8] and hr._inner[1] is None
        hr.launch()
        hr.launch(ranks=[8])  # a second entry of the lone rank is ignored
        w.run()
        assert hr.handle.done
        expected = sum(data[r].astype(np.uint64) for r in range(9)).astype(np.uint8)
        np.testing.assert_array_equal(np.asarray(hr.handle.output[0]).view(np.uint8), expected)

    def test_single_rank_world(self):
        w, comm = make_world(nranks=1)
        data = {0: np.arange(1024, dtype=np.uint8)}
        hr = HierarchicalReduce(CollectiveContext(comm, 0, 1024, CFG, data=data, op=SUM))
        assert hr.launch() is hr.handle and hr.handle.done  # done at launch
        np.testing.assert_array_equal(hr.handle.output[0], data[0])


class TestPreparedChaining:
    def test_prepared_launch_joins_same_operation(self):
        w, comm = make_world(carry=False)
        model = library_by_name("OMPI-adapt")
        prep = model.bcast(comm, 0, 128 << 10, CFG)
        h1 = prep.launch(ranks=[0, 1, 2])
        w.run()
        assert not h1.done
        h2 = prep.launch(ranks=list(range(3, 24)))
        assert h2 is h1
        w.run()
        assert h1.done

    def test_recovering_launch_starts_every_rank_once(self):
        from repro.config import DEFAULT_COLLECTIVE
        from repro.libraries.presets import prepare_operation

        w, comm = make_world(nranks=8, carry=False)
        prep = prepare_operation(library_by_name("OMPI-adapt"), "bcast", recover=True)
        pc = prep(comm, 0, 64 << 10, DEFAULT_COLLECTIVE)
        handle = pc.launch(ranks=[0])  # the first call launches all ranks
        assert pc.launch(ranks=[1]) is handle
        w.run()
        assert handle.done and len(handle.done_time) == 8

    @pytest.mark.parametrize("op", ["bcast", "reduce"])
    def test_iterations_chain_past_a_launch_that_completes_at_once(self, op):
        # On one rank the hierarchical launch marks the rank done before
        # the runner hooks the handle; the hook still chains every iteration.
        from repro.harness.runner import run_collective

        r = run_collective(small_test_machine(), 1, "Intel MPI", op, 4096, iterations=3)
        assert r.completed and r.times == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("lib", ["OMPI-adapt", "Cray MPI", "MVAPICH", "Intel MPI", "OMPI-default", "OMPI-default-topo"])
    def test_all_models_expose_prepared_api(self, lib):
        w, comm = make_world(carry=False)
        model = library_by_name(lib)
        prep = model.bcast(comm, 0, 256 << 10, CFG)
        chain = prep.chain_ranks
        handle = prep.launch()
        w.run()
        assert handle.done, lib
        prep_r = model.reduce(comm, 0, 256 << 10, CFG, op=SUM)
        handle_r = prep_r.launch()
        w.run()
        assert handle_r.done, lib
