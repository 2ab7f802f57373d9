"""Unit tests for communicators and the hierarchical collectives' node split."""

import pytest

from repro.collectives.base import CollectiveContext
from repro.collectives.hierarchical import _node_groups
from repro.machine import small_test_machine
from repro.mpi import Communicator, MpiWorld


def make_world(nranks=24):
    return MpiWorld(small_test_machine(), nranks)


class TestCommunicator:
    def test_world_communicator_covers_all_ranks(self):
        w = make_world()
        comm = Communicator(w)
        assert comm.size == 24
        assert comm.world_rank(5) == 5
        assert comm.local_rank(5) == 5

    def test_sub_communicator_translation(self):
        w = make_world()
        comm = Communicator(w, [3, 9, 17])
        assert comm.size == 3
        assert comm.world_rank(1) == 9
        assert comm.local_rank(17) == 2
        assert 9 in comm and 4 not in comm

    def test_duplicate_ranks_rejected(self):
        w = make_world()
        with pytest.raises(ValueError):
            Communicator(w, [1, 1, 2])

    def test_runtime_accessor(self):
        w = make_world()
        comm = Communicator(w, [4, 8])
        assert comm.runtime(1) is w.ranks[8]

    # -- the hierarchical collectives' per-node split and leader choice ------

    @staticmethod
    def node_groups(ranks=None, root=0):
        comm = Communicator(make_world(), ranks)
        return _node_groups(CollectiveContext(comm, root, 1024))

    def test_split_by_node(self):
        groups, _ = self.node_groups()
        assert groups == [list(range(0, 8)), list(range(8, 16)), list(range(16, 24))]

    def test_leaders_comm(self):
        _, leaders = self.node_groups()
        assert leaders == [0, 8, 16]

    def test_root_leads_its_node(self):
        groups, leaders = self.node_groups(root=11)
        assert len(groups) == 3
        assert leaders == [0, 11, 16]

    def test_split_of_subset(self):
        # Local ranks of the subset 0,3,...,21: nodes hold world 0-7, 8-15, 16-23.
        groups, leaders = self.node_groups(ranks=list(range(0, 24, 3)))
        assert groups == [[0, 1, 2], [3, 4, 5], [6, 7]]
        assert leaders == [0, 3, 6]
