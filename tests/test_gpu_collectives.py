"""GPU-data collective tests (paper Section 4).

Verify payload correctness through the GPU paths (PCIe lanes, staging
buffers, cross-socket host staging), and the performance mechanisms: leader
egress congestion without staging, its relief with staging, and CUDA-stream
reduction offload.
"""

import numpy as np
import pytest

from repro.collectives import bcast_adapt, reduce_adapt
from repro.collectives.base import CollectiveContext
from repro.config import CollectiveConfig
from repro.libraries.presets import _staging_ranks
from repro.machine import psg_gpu
from repro.mpi import SUM, Communicator, MpiWorld
from repro.trees import topology_aware_tree

CFG = CollectiveConfig(segment_size=256 * 1024)


def make_gpu_world(nodes=2, carry=True):
    spec = psg_gpu(nodes=nodes)
    world = MpiWorld(spec, spec.total_gpus, gpu_bound=True, carry_data=carry)
    return world, Communicator(world)


class TestGpuBcastCorrectness:
    @pytest.mark.parametrize("staging", [False, True])
    def test_payload_survives_gpu_paths(self, staging):
        world, comm = make_gpu_world()
        tree = topology_aware_tree(world.topology, list(comm.ranks), 0)
        staged = _staging_ranks(comm, tree, 0) if staging else set()
        data = np.random.default_rng(1).integers(0, 256, 1 << 20, dtype=np.uint8)
        ctx = CollectiveContext(
            comm, 0, data.nbytes, CFG, tree=tree, data=data, host_staging=staged
        )
        handle = bcast_adapt(ctx)
        world.run()
        assert handle.done
        for r in range(comm.size):
            np.testing.assert_array_equal(
                np.asarray(handle.output[r]).view(np.uint8), data,
                err_msg=f"rank {r} staging={staging}",
            )

    def test_staging_ranks_are_node_leaders_plus_root(self):
        world, comm = make_gpu_world(nodes=2)
        tree = topology_aware_tree(world.topology, list(comm.ranks), 0)
        staged = _staging_ranks(comm, tree, 0)
        # Root (rank 0) and node 1's leader (rank 4).
        assert 0 in staged
        assert any(world.topology.node_of(comm.world_rank(r)) == 1 for r in staged)

    def test_gpu_reduce_correctness_with_offload(self):
        world, comm = make_gpu_world()
        tree = topology_aware_tree(world.topology, list(comm.ranks), 0)
        rng = np.random.default_rng(2)
        nbytes = 512 * 1024
        data = {r: rng.integers(0, 30, nbytes, dtype=np.uint8) for r in range(comm.size)}
        ctx = CollectiveContext(
            comm, 0, nbytes, CFG, tree=tree, data=data, op=SUM, reduce_on_gpu=True
        )
        handle = reduce_adapt(ctx)
        world.run()
        expected = sum(data[r].astype(np.uint64) for r in range(comm.size)).astype(np.uint8)
        np.testing.assert_array_equal(
            np.asarray(handle.output[0]).view(np.uint8), expected
        )


class TestGpuPerformanceMechanisms:
    def _bcast_time(self, staging, nodes=4, nbytes=8 << 20):
        world, comm = make_gpu_world(nodes=nodes, carry=False)
        tree = topology_aware_tree(world.topology, list(comm.ranks), 0)
        staged = _staging_ranks(comm, tree, 0) if staging else set()
        ctx = CollectiveContext(
            comm, 0, nbytes, CFG, tree=tree, host_staging=staged
        )
        handle = bcast_adapt(ctx)
        world.run()
        return handle.elapsed(), world

    def test_staging_reduces_leader_egress_traffic(self):
        _, world_plain = self._bcast_time(False)
        _, world_staged = self._bcast_time(True)
        # Without staging, a non-root node leader's GPU egress lane carries
        # its forwards to the next node + socket leader + neighbour; with
        # staging it carries nothing (all forwards come from the CPU buffer).
        def leader_egress(world):
            links = world.fabric.links()
            # node 1's leader is GPU 0 on socket 0 of node 1.
            name = "pcie-out:n1.s0.g0"
            return links[name].bytes_carried if name in links else 0.0

        assert leader_egress(world_staged) < leader_egress(world_plain)

    def test_staging_speeds_up_bcast(self):
        t_plain, _ = self._bcast_time(False)
        t_staged, _ = self._bcast_time(True)
        assert t_staged < t_plain

    def test_offload_overlaps_reduction(self):
        def run(offload):
            world, comm = make_gpu_world(nodes=4, carry=False)
            tree = topology_aware_tree(world.topology, list(comm.ranks), 0)
            ctx = CollectiveContext(
                comm, 0, 8 << 20, CFG, tree=tree, op=SUM, reduce_on_gpu=offload
            )
            handle = reduce_adapt(ctx)
            world.run()
            return handle.elapsed()

        assert run(True) < run(False) / 1.5

    def test_one_rank_per_gpu_binding(self):
        world, comm = make_gpu_world(nodes=1)
        assert comm.size == 4  # 2 sockets x 2 GPUs
        gpus = {
            (world.topology.placement(r).socket, world.topology.placement(r).gpu)
            for r in range(4)
        }
        assert len(gpus) == 4
