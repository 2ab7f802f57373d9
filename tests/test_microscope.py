"""Tests for the noise-propagation microscope (Figure 2 as a measurement)."""

import pytest

from repro.collectives import bcast_adapt, bcast_blocking, bcast_nonblocking
from repro.config import CollectiveConfig
from repro.machine import cori, small_test_machine
from repro.noise import classify_relation, probe_propagation
from repro.trees import Tree, binomial_tree, topology_aware_tree


class TestClassifyRelation:
    def setup_method(self):
        self.tree = binomial_tree(16)

    def test_source_is_descendant_class(self):
        assert classify_relation(self.tree, 4, 4) == "descendant"

    def test_descendants(self):
        # In binomial(16), 4's subtree is {5, 6, 7}.
        for r in (5, 6, 7):
            assert classify_relation(self.tree, 4, r) == "descendant"

    def test_siblings(self):
        # 4's parent is 0; 0's children are 8, 4, 2, 1.
        for r in (8, 2, 1):
            assert classify_relation(self.tree, 4, r) == "sibling"

    def test_ancestor(self):
        assert classify_relation(self.tree, 4, 0) == "ancestor"
        assert classify_relation(self.tree, 13, 12) == "ancestor"
        assert classify_relation(self.tree, 13, 8) == "ancestor"

    def test_unrelated(self):
        # 9 is under 8; relative to source 4 it is neither ancestor,
        # descendant, nor sibling.
        assert classify_relation(self.tree, 4, 9) == "unrelated"


def topo_tree_builder(world, comm):
    return topology_aware_tree(world.topology, list(comm.ranks), 0)


def star_tree_builder(world, comm):
    return Tree.from_parents([None] + [0] * (comm.size - 1), root=0)


CFG = CollectiveConfig(segment_size=64 * 1024)


class TestPropagation:
    """The paper's Figure 2 claims, measured."""

    def test_adapt_isolates_siblings(self):
        # Section 2.2.2: child independence — the frozen child's siblings
        # are unaffected. (The parent still finishes late: it must deliver
        # the data to the frozen child before its own bcast returns, a data
        # dependency no design can remove.)
        spec = cori(nodes=1)
        report = probe_propagation(
            spec, 16, bcast_adapt, star_tree_builder, source=3,
            noise=5e-3, config=CFG,
        )
        assert report.max_delay("descendant") > 4e-3
        assert report.max_delay("sibling") < 1e-3

    def test_blocking_delays_siblings(self):
        spec = cori(nodes=1)
        report = probe_propagation(
            spec, 16, bcast_blocking, star_tree_builder, source=3,
            noise=5e-3, config=CFG,
        )
        assert report.max_delay("sibling") > 3e-3

    def test_waitall_delays_siblings(self):
        spec = cori(nodes=1)
        report = probe_propagation(
            spec, 16, bcast_nonblocking, star_tree_builder, source=3,
            noise=5e-3, config=CFG,
        )
        assert report.max_delay("sibling") > 3e-3

    def test_adapt_on_topology_tree(self):
        spec = small_test_machine()
        report = probe_propagation(
            spec, 24, bcast_adapt, topo_tree_builder, source=4,
            noise=5e-3, config=CFG,
        )
        # Rank 4 leads socket (0,1): its subtree is delayed, nothing else.
        assert report.max_delay("descendant") > 4e-3
        assert report.max_delay("unrelated") < 1e-3

    def test_summary_text(self):
        spec = cori(nodes=1)
        report = probe_propagation(
            spec, 8, bcast_adapt, star_tree_builder, source=2, noise=1e-3,
            config=CFG,
        )
        text = report.summary()
        assert "bcast_adapt" in text and "sibling" in text

    def test_affected_listing(self):
        spec = cori(nodes=1)
        report = probe_propagation(
            spec, 16, bcast_blocking, star_tree_builder, source=3,
            noise=5e-3, config=CFG,
        )
        assert 3 in report.affected("descendant", 1e-3)
        assert len(report.affected("sibling", 1e-3)) > 0


class TestUtilizationReport:
    def test_bottleneck_is_the_fabric(self):
        from repro.collectives.base import CollectiveContext
        from repro.mpi import Communicator, MpiWorld
        from repro.obs import compute_metrics

        spec = cori(nodes=2)
        world = MpiWorld(spec, 64, observe=True)
        comm = Communicator(world)
        tree = topology_aware_tree(world.topology, list(comm.ranks), 0)
        ctx = CollectiveContext(comm, 0, 4 << 20, CFG, tree=tree)
        handle = bcast_adapt(ctx)
        world.run()
        report = compute_metrics(world, handle.elapsed())
        # The inter-node NIC moved a full message copy and is the most
        # utilized link class.
        top = max(report.links, key=lambda lm: lm.utilization)
        assert top.name.startswith("nic")
        nic = report.link("nic-out:n0")
        assert 0 < nic.utilization <= 1.01
        # Byte accounting: the NIC carried exactly one message copy.
        assert nic.nbytes == pytest.approx(4 << 20, rel=1e-3)
        with pytest.raises(KeyError):
            report.link("no-such-link")
