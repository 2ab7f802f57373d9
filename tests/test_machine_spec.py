"""Unit tests for machine specifications and presets."""

import pytest

from repro.machine import (
    CommLevel,
    GpuSpec,
    LinkParams,
    MachineSpec,
    NodeSpec,
    cori,
    psg_gpu,
    small_test_machine,
    stampede2,
)
from repro.machine.presets import default_nranks


class TestLinkParams:
    def test_transfer_time(self):
        lp = LinkParams(alpha=1e-6, bandwidth=1e9)
        assert lp.transfer_time(1000) == pytest.approx(2e-6)

    def test_zero_bytes_is_latency_only(self):
        lp = LinkParams(alpha=5e-6, bandwidth=1e9)
        assert lp.transfer_time(0) == pytest.approx(5e-6)


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


class TestPlacementSocketGlobal:
    """Regression: the machine-wide socket key must never collide.

    The old arithmetic encoding (``node * 1_000_000 + socket``) aliased
    ``Placement(node=0, socket=1_000_000)`` with ``(node=1, socket=0)``;
    the structural tuple cannot.
    """

    def test_tuple_key_is_collision_free(self):
        from repro.machine.topology import Placement

        a = Placement(rank=0, node=0, socket=1_000_000, core=0, gpu=None)
        b = Placement(rank=1, node=1, socket=0, core=0, gpu=None)
        assert a.socket_global != b.socket_global
        assert a.socket_global == (0, 1_000_000)
        assert b.socket_global == (1, 0)

    def test_matches_topology_socket_of(self):
        from repro.machine.topology import Topology

        spec = cori(nodes=2)
        topo = Topology(spec, spec.total_cores)
        for rank in range(spec.total_cores):
            p = topo.placement(rank)
            assert p.socket_global == topo.socket_of(rank)
