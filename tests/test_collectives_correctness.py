"""End-to-end correctness of every collective implementation.

These tests run collectives in **data mode**: real numpy payloads travel
through the simulated network, so a bug in segmentation, matching, tree
construction, or protocol handling shows up as wrong bytes, not just wrong
timing.
"""

import numpy as np
import pytest

from repro.collectives import (
    bcast_adapt,
    bcast_blocking,
    bcast_hierarchical,
    bcast_nonblocking,
    bcast_scatter_allgather,
    bcast_tuned,
    reduce_adapt,
    reduce_blocking,
    reduce_hierarchical,
    reduce_nonblocking,
    reduce_rabenseifner,
    reduce_shumilin,
    reduce_tuned,
)
from repro.collectives.base import CollectiveContext
from repro.config import CollectiveConfig
from repro.machine import small_test_machine
from repro.mpi import SUM, MAX, Communicator, MpiWorld
from repro.trees import binomial_tree, chain_tree, topology_aware_tree

BCAST_TREE_ALGOS = [bcast_blocking, bcast_nonblocking, bcast_adapt]
REDUCE_TREE_ALGOS = [reduce_blocking, reduce_nonblocking, reduce_adapt]

SMALL_CONFIG = CollectiveConfig(segment_size=4 * 1024, inflight_sends=2, posted_recvs=3)


def make_world(nranks=24, **kw):
    spec = small_test_machine()  # 3 nodes x 2 sockets x 4 cores = 24 slots
    # Run the whole correctness suite under the runtime sanitizer: every
    # request must complete, matchers must drain, windows must stay in
    # bounds, fair-share must conserve capacity.
    kw.setdefault("sanitize", True)
    return MpiWorld(spec, nranks, carry_data=True, **kw)


def bcast_payload(nbytes, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8)


def reduce_payloads(nranks, nbytes, seed=0):
    rng = np.random.default_rng(seed)
    return {
        r: rng.integers(0, 50, size=nbytes, dtype=np.uint8) for r in range(nranks)
    }


def run_bcast(algo, world, root=0, nbytes=64 * 1024, tree_builder=None, config=SMALL_CONFIG, **kw):
    comm = Communicator(world)
    data = bcast_payload(nbytes)
    if tree_builder is None:
        tree = topology_aware_tree(world.topology, list(comm.ranks), root)
    else:
        tree = tree_builder(comm.size).reroot_relabelled(root)
    ctx = CollectiveContext(comm, root, nbytes, config, tree=tree, data=data, **kw)
    handle = algo(ctx)
    world.run()
    assert handle.done, f"{handle.name}: {len(handle.done_time)}/{handle.size} done"
    return handle, data


def run_reduce(algo, world, root=0, nbytes=64 * 1024, op=SUM, tree_builder=None, config=SMALL_CONFIG, **kw):
    comm = Communicator(world)
    data = reduce_payloads(comm.size, nbytes)
    if tree_builder is None:
        tree = topology_aware_tree(world.topology, list(comm.ranks), root)
    else:
        tree = tree_builder(comm.size).reroot_relabelled(root)
    ctx = CollectiveContext(comm, root, nbytes, config, tree=tree, data=data, op=op, **kw)
    handle = algo(ctx)
    world.run()
    assert handle.done, f"{handle.name}: {len(handle.done_time)}/{handle.size} done"
    return handle, data


def expected_reduce(data, op=SUM):
    acc = None
    for r in sorted(data):
        acc = data[r].copy() if acc is None else op(acc, data[r])
    return acc


class TestBcastCorrectness:
    @pytest.mark.parametrize("algo", BCAST_TREE_ALGOS)
    def test_all_ranks_get_root_payload(self, algo):
        world = make_world()
        handle, data = run_bcast(algo, world)
        for r in range(world.nranks):
            np.testing.assert_array_equal(
                np.asarray(handle.output[r]).view(np.uint8), data,
                err_msg=f"{handle.name} rank {r}",
            )

    @pytest.mark.parametrize("algo", BCAST_TREE_ALGOS)
    @pytest.mark.parametrize("root", [0, 5, 23])
    def test_nonzero_roots(self, algo, root):
        world = make_world()
        handle, data = run_bcast(algo, world, root=root)
        for r in range(world.nranks):
            np.testing.assert_array_equal(np.asarray(handle.output[r]).view(np.uint8), data)

    @pytest.mark.parametrize("algo", BCAST_TREE_ALGOS)
    @pytest.mark.parametrize("tree_builder", [chain_tree, binomial_tree])
    def test_classic_trees(self, algo, tree_builder):
        world = make_world()
        handle, data = run_bcast(algo, world, tree_builder=tree_builder)
        for r in range(world.nranks):
            np.testing.assert_array_equal(np.asarray(handle.output[r]).view(np.uint8), data)

    @pytest.mark.parametrize("algo", BCAST_TREE_ALGOS)
    def test_single_segment_message(self, algo):
        world = make_world()
        handle, data = run_bcast(algo, world, nbytes=512)
        for r in range(world.nranks):
            np.testing.assert_array_equal(np.asarray(handle.output[r]).view(np.uint8), data)

    @pytest.mark.parametrize("algo", BCAST_TREE_ALGOS)
    def test_two_rank_world(self, algo):
        world = make_world(nranks=2)
        handle, data = run_bcast(algo, world)
        np.testing.assert_array_equal(np.asarray(handle.output[1]).view(np.uint8), data)

    @pytest.mark.parametrize("algo", BCAST_TREE_ALGOS)
    def test_single_rank_world(self, algo):
        world = make_world(nranks=1)
        handle, data = run_bcast(algo, world, nbytes=1024)
        assert handle.done

    def test_scatter_allgather(self):
        world = make_world()
        comm = Communicator(world)
        nbytes = 96 * 1024
        data = bcast_payload(nbytes)
        ctx = CollectiveContext(comm, 0, nbytes, SMALL_CONFIG, data=data)
        handle = bcast_scatter_allgather(ctx)
        world.run()
        assert handle.done
        for r in range(world.nranks):
            np.testing.assert_array_equal(
                np.asarray(handle.output[r]).view(np.uint8), data,
                err_msg=f"rank {r}",
            )

    def test_scatter_allgather_one_rank_and_ring_step_count(self):
        world = make_world(nranks=1)
        data = bcast_payload(4096)
        ctx = CollectiveContext(Communicator(world), 0, 4096, SMALL_CONFIG, data=data)
        handle = bcast_scatter_allgather(ctx)
        assert handle.done_time == {0: 0.0}  # done at launch
        np.testing.assert_array_equal(handle.output[0], data)
        # Observed: every rank counts its P - 1 ring steps.
        world = make_world(nranks=4, observe=True)
        ctx = CollectiveContext(Communicator(world), 0, 4096, SMALL_CONFIG, data=data)
        handle = bcast_scatter_allgather(ctx)
        world.run()
        assert handle.done and world.obs.counters["classic.sag.ring_steps"] == 4 * 3

    def test_scatter_allgather_nonzero_root(self):
        world = make_world()
        comm = Communicator(world)
        nbytes = 64 * 1024 + 13  # uneven blocks
        data = bcast_payload(nbytes)
        ctx = CollectiveContext(comm, 7, nbytes, SMALL_CONFIG, data=data)
        handle = bcast_scatter_allgather(ctx)
        world.run()
        for r in range(world.nranks):
            np.testing.assert_array_equal(np.asarray(handle.output[r]).view(np.uint8), data)

    @pytest.mark.parametrize("outer,inner", [("binomial", "flat"), ("chain", "knomial4")])
    def test_hierarchical(self, outer, inner):
        world = make_world()
        comm = Communicator(world)
        nbytes = 64 * 1024
        data = bcast_payload(nbytes)
        ctx = CollectiveContext(comm, 0, nbytes, SMALL_CONFIG, data=data)
        handle = bcast_hierarchical(ctx, outer=outer, inner=inner)
        world.run()
        assert handle.done
        for r in range(world.nranks):
            np.testing.assert_array_equal(np.asarray(handle.output[r]).view(np.uint8), data)

    def test_hierarchical_nonzero_root(self):
        world = make_world()
        comm = Communicator(world)
        data = bcast_payload(32 * 1024)
        ctx = CollectiveContext(comm, 9, 32 * 1024, SMALL_CONFIG, data=data)
        handle = bcast_hierarchical(ctx)
        world.run()
        for r in range(world.nranks):
            np.testing.assert_array_equal(np.asarray(handle.output[r]).view(np.uint8), data)

    @pytest.mark.parametrize("nbytes", [100, 8 * 1024, 64 * 1024, 512 * 1024])
    def test_tuned_all_size_regimes(self, nbytes):
        world = make_world()
        comm = Communicator(world)
        data = bcast_payload(nbytes)
        ctx = CollectiveContext(comm, 0, nbytes, CollectiveConfig(), data=data)
        handle = bcast_tuned(ctx)
        world.run()
        assert handle.done
        for r in range(world.nranks):
            np.testing.assert_array_equal(np.asarray(handle.output[r]).view(np.uint8), data)

    @pytest.mark.parametrize("algo", BCAST_TREE_ALGOS)
    def test_odd_message_size(self, algo):
        world = make_world()
        handle, data = run_bcast(algo, world, nbytes=10_001)
        for r in range(world.nranks):
            np.testing.assert_array_equal(np.asarray(handle.output[r]).view(np.uint8), data)


class TestReduceCorrectness:
    @pytest.mark.parametrize("algo", REDUCE_TREE_ALGOS)
    def test_sum_at_root(self, algo):
        world = make_world()
        handle, data = run_reduce(algo, world)
        expect = expected_reduce(data)
        np.testing.assert_array_equal(
            np.asarray(handle.output[0]).view(np.uint8), expect,
            err_msg=handle.name,
        )

    @pytest.mark.parametrize("algo", REDUCE_TREE_ALGOS)
    def test_max_op(self, algo):
        world = make_world()
        handle, data = run_reduce(algo, world, op=MAX)
        expect = expected_reduce(data, op=MAX)
        np.testing.assert_array_equal(np.asarray(handle.output[0]).view(np.uint8), expect)

    @pytest.mark.parametrize("algo", REDUCE_TREE_ALGOS)
    @pytest.mark.parametrize("root", [3, 16])
    def test_nonzero_roots(self, algo, root):
        world = make_world()
        handle, data = run_reduce(algo, world, root=root)
        expect = expected_reduce(data)
        np.testing.assert_array_equal(np.asarray(handle.output[root]).view(np.uint8), expect)

    @pytest.mark.parametrize("algo", REDUCE_TREE_ALGOS)
    def test_chain_tree(self, algo):
        world = make_world()
        handle, data = run_reduce(algo, world, tree_builder=chain_tree)
        expect = expected_reduce(data)
        np.testing.assert_array_equal(np.asarray(handle.output[0]).view(np.uint8), expect)

    @pytest.mark.parametrize("nranks", [2, 3, 8, 16, 24])
    def test_rabenseifner_all_sizes(self, nranks):
        world = make_world(nranks=nranks)
        comm = Communicator(world)
        nbytes = 32 * 1024
        data = reduce_payloads(nranks, nbytes)
        ctx = CollectiveContext(comm, 0, nbytes, SMALL_CONFIG, data=data, op=SUM)
        handle = reduce_rabenseifner(ctx)
        world.run()
        assert handle.done
        expect = expected_reduce(data)
        np.testing.assert_array_equal(
            np.asarray(handle.output[0]).view(np.uint8), expect,
            err_msg=f"nranks={nranks}",
        )

    def test_rabenseifner_one_rank_completes_at_launch(self):
        world = make_world(nranks=1)
        data = reduce_payloads(1, 4096)
        ctx = CollectiveContext(Communicator(world), 0, 4096, SMALL_CONFIG, data=data, op=SUM)
        handle = reduce_rabenseifner(ctx)
        assert handle.done_time == {0: 0.0}
        np.testing.assert_array_equal(handle.output[0], data[0])

    def test_rabenseifner_nonzero_root(self):
        world = make_world(nranks=16)
        comm = Communicator(world)
        data = reduce_payloads(16, 16 * 1024)
        ctx = CollectiveContext(comm, 5, 16 * 1024, SMALL_CONFIG, data=data, op=SUM)
        handle = reduce_rabenseifner(ctx)
        world.run()
        expect = expected_reduce(data)
        np.testing.assert_array_equal(np.asarray(handle.output[5]).view(np.uint8), expect)

    def test_shumilin(self):
        world = make_world()
        comm = Communicator(world)
        data = reduce_payloads(world.nranks, 32 * 1024)
        ctx = CollectiveContext(comm, 0, 32 * 1024, SMALL_CONFIG, data=data, op=SUM)
        handle = reduce_shumilin(ctx)
        world.run()
        expect = expected_reduce(data)
        np.testing.assert_array_equal(np.asarray(handle.output[0]).view(np.uint8), expect)

    @pytest.mark.parametrize("outer,inner", [("binomial", "flat"), ("binomial", "knomial4")])
    def test_hierarchical(self, outer, inner):
        world = make_world()
        comm = Communicator(world)
        data = reduce_payloads(world.nranks, 32 * 1024)
        ctx = CollectiveContext(comm, 0, 32 * 1024, SMALL_CONFIG, data=data, op=SUM)
        handle = reduce_hierarchical(ctx, outer=outer, inner=inner)
        world.run()
        assert handle.done
        expect = expected_reduce(data)
        np.testing.assert_array_equal(np.asarray(handle.output[0]).view(np.uint8), expect)

    @pytest.mark.parametrize("nbytes", [100, 64 * 1024, 512 * 1024])
    def test_tuned_all_size_regimes(self, nbytes):
        world = make_world()
        comm = Communicator(world)
        data = reduce_payloads(world.nranks, nbytes)
        ctx = CollectiveContext(comm, 0, nbytes, CollectiveConfig(), data=data, op=SUM)
        handle = reduce_tuned(ctx)
        world.run()
        expect = expected_reduce(data)
        np.testing.assert_array_equal(np.asarray(handle.output[0]).view(np.uint8), expect)

    @pytest.mark.parametrize("algo", REDUCE_TREE_ALGOS)
    def test_single_rank(self, algo):
        world = make_world(nranks=1)
        comm = Communicator(world)
        data = {0: bcast_payload(1024)}
        tree = chain_tree(1)
        ctx = CollectiveContext(comm, 0, 1024, SMALL_CONFIG, tree=tree, data=data, op=SUM)
        handle = algo(ctx)
        world.run()
        assert handle.done


class TestBackToBackCollectives:
    def test_two_bcasts_share_world_without_tag_collision(self):
        world = make_world()
        comm = Communicator(world)
        d1, d2 = bcast_payload(32 * 1024, seed=1), bcast_payload(32 * 1024, seed=2)
        tree = topology_aware_tree(world.topology, list(comm.ranks), 0)
        c1 = CollectiveContext(comm, 0, 32 * 1024, SMALL_CONFIG, tree=tree, data=d1)
        c2 = CollectiveContext(comm, 0, 32 * 1024, SMALL_CONFIG, tree=tree, data=d2)
        h1 = bcast_adapt(c1)
        h2 = bcast_adapt(c2)  # concurrent!
        world.run()
        assert h1.done and h2.done
        for r in range(world.nranks):
            np.testing.assert_array_equal(np.asarray(h1.output[r]).view(np.uint8), d1)
            np.testing.assert_array_equal(np.asarray(h2.output[r]).view(np.uint8), d2)

    def test_bcast_then_reduce(self):
        world = make_world()
        comm = Communicator(world)
        data = bcast_payload(16 * 1024)
        tree = topology_aware_tree(world.topology, list(comm.ranks), 0)
        ctx = CollectiveContext(comm, 0, 16 * 1024, SMALL_CONFIG, tree=tree, data=data)
        h1 = bcast_adapt(ctx)
        world.run()
        rdata = {r: np.asarray(h1.output[r]).view(np.uint8) for r in range(comm.size)}
        ctx2 = CollectiveContext(comm, 0, 16 * 1024, SMALL_CONFIG, tree=tree, data=rdata, op=MAX)
        h2 = reduce_adapt(ctx2)
        world.run()
        # max over identical copies == the copy itself
        np.testing.assert_array_equal(np.asarray(h2.output[0]).view(np.uint8), data)
