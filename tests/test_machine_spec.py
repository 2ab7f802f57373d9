"""Unit tests for machine specifications and presets."""

import pytest

from repro.machine import (
    CommLevel,
    GpuSpec,
    MachineSpec,
    NodeSpec,
    cori,
    for_ranks,
    psg_gpu,
    small_test_machine,
    stampede2,
)
from repro.machine.presets import default_nranks


class TestSpecs:
    def test_default_nranks(self):
        spec = cori(nodes=1)
        assert default_nranks(spec) == 32
        assert default_nranks(spec, 5) == 5
        # nranks=0 used to fall through to the default world size.
        with pytest.raises(ValueError, match="nranks must be at least 1"):
            default_nranks(spec, 0)
        with pytest.raises(ValueError, match="nranks must be at least 1"):
            default_nranks(spec, -2)

    def test_cori_shape(self):
        spec = cori(nodes=4)
        assert spec.total_cores == 4 * 32
        assert spec.node.gpus == 0
        assert spec.total_gpus == 0

    def test_stampede2_shape(self):
        spec = stampede2(nodes=2)
        assert spec.node.cores == 48
        assert spec.total_cores == 96

    def test_psg_shape(self):
        spec = psg_gpu(nodes=8)
        assert spec.total_gpus == 32
        assert spec.node.gpus == 4
        assert spec.node.gpu.gpus_per_socket == 2

    def test_level_params_ordering(self):
        # The paper's premise: inner levels are faster per pair.
        for spec in (cori(), stampede2(), psg_gpu()):
            assert (
                spec.level_params(CommLevel.INTRA_SOCKET).bandwidth
                >= spec.level_params(CommLevel.INTER_SOCKET).bandwidth
                >= spec.level_params(CommLevel.INTER_NODE).bandwidth
            ), spec.name
            assert (
                spec.level_params(CommLevel.INTRA_SOCKET).alpha
                <= spec.level_params(CommLevel.INTER_NODE).alpha
            ), spec.name

    def test_level_params_rejects_self(self):
        with pytest.raises(ValueError):
            cori().level_params(CommLevel.SELF)

    def test_gpu_spec_defaults(self):
        g = GpuSpec(gpus_per_socket=2)
        assert g.streams >= 1
        assert g.reduce_bandwidth > 0

    def test_custom_machine(self):
        spec = MachineSpec(
            name="custom",
            nodes=2,
            node=NodeSpec(sockets=1, cores_per_socket=2),
        )
        assert spec.total_cores == 4

    def test_small_test_machine_is_figure5(self):
        spec = small_test_machine()
        assert spec.node.sockets == 2
        assert spec.node.cores_per_socket == 4
        assert spec.nodes == 3

    def test_frozen_dataclasses(self):
        spec = cori()
        with pytest.raises(Exception):
            spec.nodes = 99


class TestPresetResolution:
    def test_for_ranks_rejects_a_bad_size_or_name(self):
        with pytest.raises(ValueError, match="world_size must be >= 1"):
            for_ranks("cori", 0)
        with pytest.raises(ValueError, match="unknown preset 'nope'"):
            for_ranks("nope", 4)

    def test_resolve_compiles_a_family_at_the_node_count(self):
        from repro.machine.presets import resolve

        spec = resolve("fattree", nodes=4)
        assert spec.nodes == 4 and spec.compiled is not None
        assert default_nranks(spec) == spec.compiled.ranks == 128
        with pytest.raises(ValueError, match="unknown machine preset 'nope'"):
            resolve("nope")

    def test_machine_from_topo_is_the_topo_lowering(self):
        from repro import machine, topo

        spec = topo.FatTreeSpec()
        assert machine.from_topo(spec) == topo.from_topo(spec)

    def test_group_key_names_only_the_three_levels(self):
        from repro.machine.topology import Topology

        with pytest.raises(ValueError, match="no grouping at level 'socket'"):
            Topology(small_test_machine(), 24).group_key(1, "socket")


class TestTopologyLifetime:
    """Regression: a topology's placements belong to it, so a finished
    world's topology is freed with the world. A cache keyed on the
    topology itself once kept every topology ever built alive."""

    def test_finished_world_frees_its_topology(self):
        import gc
        import weakref

        from repro.collectives import bcast_adapt
        from repro.collectives.base import CollectiveContext
        from repro.mpi import Communicator, MpiWorld
        from repro.trees import binomial_tree

        world = MpiWorld(small_test_machine(), 16)
        ctx = CollectiveContext(Communicator(world), 0, 1 << 16,
                                tree=binomial_tree(16))
        handle = bcast_adapt(ctx)
        world.run()
        assert sorted(handle.done_time) == list(range(16))
        topology = weakref.ref(world.topology)
        del world, ctx, handle
        gc.collect()
        assert topology() is None
