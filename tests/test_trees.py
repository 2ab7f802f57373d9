"""Unit + property tests for communication trees."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import CommLevel, Topology, small_test_machine
from repro.trees import (
    Tree,
    binary_tree,
    binomial_tree,
    chain_tree,
    flat_tree,
    kary_tree,
    knomial_tree,
    topology_aware_tree,
)

ALL_BUILDERS = [
    chain_tree,
    flat_tree,
    binary_tree,
    binomial_tree,
    lambda n: kary_tree(n, 3),
    lambda n: knomial_tree(n, 4),
]


class TestShapes:
    def test_chain_structure(self):
        t = chain_tree(5)
        assert t.parent == [None, 0, 1, 2, 3]
        assert t.height() == 4
        assert t.max_fanout() == 1

    def test_flat_structure(self):
        t = flat_tree(5)
        assert t.children[0] == [1, 2, 3, 4]
        assert t.height() == 1

    def test_binary_structure(self):
        t = binary_tree(7)
        assert t.children[0] == [1, 2]
        assert t.children[1] == [3, 4]
        assert t.height() == 2

    def test_binomial_parent_clears_lowest_bit(self):
        t = binomial_tree(16)
        assert t.parent[12] == 8
        assert t.parent[5] == 4
        assert t.parent[8] == 0
        # log2(n) height and fanout at the root
        assert t.height() == 4
        assert len(t.children[0]) == 4

    def test_binomial_children_largest_subtree_first(self):
        t = binomial_tree(16)
        assert t.children[0] == [8, 4, 2, 1]

    def test_knomial_reduces_height(self):
        t2 = binomial_tree(64)
        t4 = knomial_tree(64, 4)
        assert t4.height() < t2.height()

    def test_knomial_k2_matches_binomial_parents(self):
        assert knomial_tree(32, 2).parent == binomial_tree(32).parent

    def test_single_rank(self):
        for build in ALL_BUILDERS:
            t = build(1)
            assert t.parent == [None]
            assert t.height() == 0

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            chain_tree(0)
        with pytest.raises(ValueError):
            kary_tree(4, 0)
        with pytest.raises(ValueError):
            knomial_tree(4, 1)


class TestTreeOps:
    def test_validate_rejects_cycle(self):
        t = chain_tree(4)
        t.parent[1] = 3
        t.children[0] = []
        t.children[3] = [1]
        with pytest.raises(ValueError):
            t.validate()

    def test_validate_rejects_non_spanning(self):
        with pytest.raises(ValueError):
            Tree.from_parents([None, 0, None, 2], root=0)

    def test_reroot_relabelled(self):
        t = binomial_tree(8).reroot_relabelled(3)
        t.validate()
        assert t.root == 3
        assert t.parent[3] is None
        # Shape preserved: same height/fanout as the original
        assert t.height() == binomial_tree(8).height()

    def test_descendants(self):
        t = binary_tree(7)
        assert set(t.descendants(1)) == {3, 4}
        assert set(t.descendants(0)) == {1, 2, 3, 4, 5, 6}

    def test_depth_of(self):
        t = chain_tree(6)
        assert [t.depth_of(r) for r in range(6)] == [0, 1, 2, 3, 4, 5]


@given(
    n=st.integers(min_value=1, max_value=200),
    builder=st.sampled_from(range(len(ALL_BUILDERS))),
)
@settings(max_examples=60, deadline=None)
def test_property_every_builder_spans(n, builder):
    t = ALL_BUILDERS[builder](n)
    t.validate()  # spanning, acyclic, mirrored parent/children
    assert t.size == n
    assert t.parent[t.root] is None


@given(
    n=st.integers(min_value=2, max_value=64),
    root=st.integers(min_value=0, max_value=63),
)
@settings(max_examples=40, deadline=None)
def test_property_reroot_valid_for_any_root(n, root):
    root %= n
    t = binomial_tree(n).reroot_relabelled(root)
    t.validate()
    assert t.root == root


class TestTreeValidation:
    @pytest.mark.parametrize("tree, problem", [
        (Tree(0, [None, 0], [[1]]), "parent/children length mismatch"),
        (Tree(2, [None, 0], [[1], []]), "root 2 out of range"),
        (Tree(0, [1, 0], [[1], []]), "root must have parent None"),
        (Tree(0, [None, None], [[1], []]), "child link 0->1 not mirrored"),
        (Tree(0, [None, 0], [[1, 1], []]), "rank 1 reached twice"),
        (Tree(0, [None, 0, None], [[1], [], []]), r"missing ranks \[2\]"),
    ])
    def test_validate_names_the_malformation(self, tree, problem):
        with pytest.raises(ValueError, match=problem):
            tree.validate()


class TestTopologyAwareTree:
    def setup_method(self):
        # Figure 5's machine: 4 cores/socket, 2 sockets/node, 3 nodes.
        self.spec = small_test_machine(nodes=3, sockets=2, cores_per_socket=4)
        self.topo = Topology(self.spec, 24)

    def test_figure5_layout(self):
        t = topology_aware_tree(self.topo, list(range(24)), root=0)
        t.validate()
        # Socket chains: 0->1->2->3, 4->5->6->7, ...
        assert t.parent[1] == 0 and t.parent[2] == 1 and t.parent[3] == 2
        assert t.parent[5] == 4 and t.parent[6] == 5 and t.parent[7] == 6
        # Socket leaders chain to the node leader: 0 -> 4 (inter-socket).
        assert t.parent[4] == 0
        # Node leaders chain: 0 -> 8 -> 16 (inter-node).
        assert t.parent[8] == 0
        assert t.parent[16] == 8

    def test_every_edge_stays_within_one_level(self):
        t = topology_aware_tree(self.topo, list(range(24)), root=0)
        for r in range(24):
            p = t.parent[r]
            if p is None:
                continue
            level = self.topo.level(r, p)
            # Inter-node edges only between node leaders; intra-socket edges
            # between socket members, etc. Just check no edge is SELF.
            assert level != CommLevel.SELF

    def test_edge_level_histogram(self):
        t = topology_aware_tree(self.topo, list(range(24)), root=0)
        levels = [self.topo.level(r, t.parent[r]) for r in range(24) if t.parent[r] is not None]
        # 3 nodes -> 2 inter-node edges; 6 sockets -> 3 inter-socket edges
        # (one per node); remaining 18 edges intra-socket.
        assert levels.count(CommLevel.INTER_NODE) == 2
        assert levels.count(CommLevel.INTER_SOCKET) == 3
        assert levels.count(CommLevel.INTRA_SOCKET) == 18

    def test_nonzero_root(self):
        t = topology_aware_tree(self.topo, list(range(24)), root=13)
        t.validate()
        assert t.root == 13
        # Root is its socket's leader and its node's leader.
        assert t.parent[13] is None
        # The root's node's other socket leader hangs off the root.
        p8 = t.parent[8]
        assert p8 == 13  # rank 8 leads socket (1,0); node leader is 13

    def test_per_level_shapes(self):
        shapes = {
            CommLevel.INTRA_SOCKET: "flat",
            CommLevel.INTER_NODE: "binomial",
        }
        t = topology_aware_tree(self.topo, list(range(24)), root=0, shapes=shapes)
        t.validate()
        # Flat socket group: 1,2,3 all hang directly off 0.
        assert t.parent[1] == t.parent[2] == t.parent[3] == 0

    def test_fanout_shapes_per_level(self):
        # A 4-ary socket group and a 4-nomial node level: every socket's
        # three members hang off its leader, and the three node leaders
        # hang off the root's node leader.
        shapes = {CommLevel.INTRA_SOCKET: "kary4", CommLevel.INTER_NODE: "knomial4"}
        t = topology_aware_tree(self.topo, list(range(24)), root=0, shapes=shapes)
        t.validate()
        assert t.children[0][:3] == [1, 2, 3] and t.parent[13] == 12
        assert t.parent[8] == 0 and t.parent[16] == 0

    def test_root_out_of_range_is_rejected(self):
        with pytest.raises(ValueError, match="root 24 out of range for 24 ranks"):
            topology_aware_tree(self.topo, list(range(24)), root=24)

    def test_subset_communicator(self):
        # Tree over a strided subset of ranks still spans and validates.
        ranks = list(range(0, 24, 2))
        t = topology_aware_tree(self.topo, ranks, root=0)
        t.validate()
        assert t.size == 12

    def test_gpu_machine_tree(self):
        from repro.machine import psg_gpu

        spec = psg_gpu(nodes=4)
        topo = Topology(spec, 16, gpu_bound=True)
        t = topology_aware_tree(topo, list(range(16)), root=0)
        t.validate()
        # 4 nodes -> 3 inter-node edges.
        levels = [topo.level(r, t.parent[r]) for r in range(16) if t.parent[r] is not None]
        assert levels.count(CommLevel.INTER_NODE) == 3


@given(
    nodes=st.integers(min_value=1, max_value=4),
    sockets=st.integers(min_value=1, max_value=2),
    cores=st.integers(min_value=1, max_value=4),
    root_seed=st.integers(min_value=0, max_value=1000),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_property_topo_tree_spans_any_machine(nodes, sockets, cores, root_seed, data):
    spec = small_test_machine(nodes=nodes, sockets=sockets, cores_per_socket=cores)
    total = spec.total_cores
    nranks = data.draw(st.integers(min_value=1, max_value=total))
    topo = Topology(spec, nranks)
    root = root_seed % nranks
    t = topology_aware_tree(topo, list(range(nranks)), root=root)
    t.validate()
    assert t.root == root
