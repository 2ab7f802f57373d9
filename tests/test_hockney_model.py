"""The simulator vs Hockney's analytic model (paper Section 5.2.1).

The paper interprets its measurements through T = alpha + beta*m and the
pipelined-chain formula (P + ns - 2)(alpha + beta*m_seg). These tests check
the simulator reproduces the model's *predictions* in the regimes where the
model is exact, and its *trends* (flat strong scaling) elsewhere — the same
argument structure as the paper's analysis.
"""

import pytest

from repro.collectives import bcast_adapt
from repro.collectives.base import CollectiveContext
from repro.config import CollectiveConfig
from repro.machine import CommLevel, cori, psg_gpu
from repro.model import (
    HockneyParams,
    chain_pipeline_time,
    point_to_point_time,
    predict_adapt_bcast,
)
from repro.mpi import Communicator, MpiWorld
from repro.trees import chain_tree, topology_aware_tree


class TestModelAlgebra:
    def test_p2p_time(self):
        p = HockneyParams(alpha=1e-6, beta=1e-9)
        assert point_to_point_time(p, 1000) == pytest.approx(2e-6)

    def test_p2p_with_gamma(self):
        p = HockneyParams(alpha=0.0, beta=1e-9, gamma=1e-9)
        assert point_to_point_time(p, 1000) == pytest.approx(2e-6)

    def test_chain_degenerates_to_p2p(self):
        p = HockneyParams(alpha=1e-6, beta=1e-9)
        assert chain_pipeline_time(p, 1000, nproc=2, nseg=1) == pytest.approx(
            point_to_point_time(p, 1000)
        )

    def test_chain_independent_of_p_for_many_segments(self):
        # (P + ns - 2) ~ ns when ns >> P: the flat-scaling argument.
        p = HockneyParams(alpha=1e-6, beta=1e-9)
        t_small = chain_pipeline_time(p, 1 << 22, nproc=4, nseg=1024)
        t_large = chain_pipeline_time(p, 1 << 22, nproc=64, nseg=1024)
        assert t_large / t_small < 1.07

    def test_invalid_inputs(self):
        p = HockneyParams(1e-6, 1e-9)
        with pytest.raises(ValueError):
            chain_pipeline_time(p, 100, 0, 1)
        with pytest.raises(ValueError):
            chain_pipeline_time(p, 100, 2, 0)

    def test_params_from_spec(self):
        spec = cori(nodes=2)
        p = HockneyParams.of(spec, CommLevel.INTER_NODE)
        assert p.alpha == spec.fabric.alpha
        assert p.beta == pytest.approx(1 / spec.fabric.bandwidth)
        pr = HockneyParams.of(spec, CommLevel.INTER_NODE, reduce_=True)
        assert pr.gamma == pytest.approx(1 / spec.cpu_reduce_bandwidth)


def _simulate_chain_bcast(spec, ranks, nbytes, seg):
    world = MpiWorld(spec, max(ranks) + 1)
    comm = Communicator(world, ranks)
    ctx = CollectiveContext(
        comm, 0, nbytes, CollectiveConfig(segment_size=seg),
        tree=chain_tree(len(ranks)),
    )
    handle = bcast_adapt(ctx)
    world.run()
    return handle.elapsed()


class TestSimulatorVsModel:
    def test_inter_node_chain_matches_model_within_overheads(self):
        # Pure inter-node chain over node leaders: the regime where the
        # chain formula is exact up to CPU overheads.
        spec = cori(nodes=4)
        ranks = [0, 32, 64, 96]
        nbytes, seg = 4 << 20, 128 << 10
        t_sim = _simulate_chain_bcast(spec, ranks, nbytes, seg)
        p = HockneyParams.of(spec, CommLevel.INTER_NODE)
        t_model = chain_pipeline_time(p, nbytes, nproc=4, nseg=nbytes // seg)
        # Simulation adds handshakes and per-message CPU overhead: it must
        # sit above the model but within ~40% of it.
        assert t_sim >= t_model * 0.95
        assert t_sim <= t_model * 1.4, (t_sim, t_model)

    def test_model_predicts_scaling_trend(self):
        # The model says doubling node count barely changes the time; the
        # simulator must agree on the trend.
        spec4, spec8 = cori(nodes=4), cori(nodes=8)
        nbytes, seg = 4 << 20, 128 << 10
        t4 = _simulate_chain_bcast(spec4, [32 * i for i in range(4)], nbytes, seg)
        t8 = _simulate_chain_bcast(spec8, [32 * i for i in range(8)], nbytes, seg)
        p = HockneyParams.of(spec4, CommLevel.INTER_NODE)
        m4 = chain_pipeline_time(p, nbytes, 4, nbytes // seg)
        m8 = chain_pipeline_time(p, nbytes, 8, nbytes // seg)
        assert t8 / t4 == pytest.approx(m8 / m4, rel=0.2)

    def test_topo_tree_prediction_bounds_simulation(self):
        spec = cori(nodes=2)
        world = MpiWorld(spec, 64)
        comm = Communicator(world)
        tree = topology_aware_tree(world.topology, list(comm.ranks), 0)
        config = CollectiveConfig(segment_size=128 << 10)
        nbytes = 4 << 20
        ctx = CollectiveContext(comm, 0, nbytes, config, tree=tree)
        handle = bcast_adapt(ctx)
        world.run()
        t_sim = handle.elapsed()
        t_model = predict_adapt_bcast(
            spec, tree, world.topology.level, nbytes, config
        )
        assert 0.7 * t_model <= t_sim <= 2.0 * t_model, (t_sim, t_model)

    def test_segment_size_tradeoff_matches_model_shape(self):
        # Model: with several hops, whole-message store-and-forward pays the
        # full transfer per hop, while pipelining overlaps them; but tiny
        # segments are alpha-dominated. The optimum is interior — on a
        # multi-hop chain (pipelining cannot help a single hop).
        spec = cori(nodes=8)
        ranks = [32 * i for i in range(8)]
        times = {}
        for seg in (2 << 10, 128 << 10, 4 << 20):
            times[seg] = _simulate_chain_bcast(spec, ranks, 4 << 20, seg)
        assert times[128 << 10] < times[4 << 20]
        assert times[128 << 10] < times[2 << 10]


class TestFig11bStep:
    """Figure 11b's "near-flat ADAPT scaling" claim fails at 1 -> 4 nodes
    (EXPERIMENTS.md). The model says why: the step is a regime change."""

    @staticmethod
    def _predict(nodes: int) -> float:
        spec = psg_gpu(nodes=nodes)
        world = MpiWorld(spec, spec.total_gpus, gpu_bound=True)
        tree = topology_aware_tree(world.topology, list(range(spec.total_gpus)), 0)
        return predict_adapt_bcast(spec, tree, world.topology.level, 8 << 20)

    def test_model_predicts_the_step_where_the_nic_hop_enters(self):
        t1, t2, t4 = (self._predict(n) for n in (1, 2, 4))
        # One node: the slowest hop is QPI (12 GB/s); from two nodes on it is
        # the NIC (5 GB/s), so the drain term steps by about their ratio ...
        spec = psg_gpu(nodes=2)
        qpi = HockneyParams.of(spec, CommLevel.INTER_SOCKET).beta
        nic = HockneyParams.of(spec, CommLevel.INTER_NODE).beta
        assert t2 / t1 == pytest.approx(nic / qpi, rel=0.05)
        assert t2 / t1 > 2.0
        # ... and is flat once the NIC hop is in (the chain model's regime).
        assert t4 / t2 < 1.05
