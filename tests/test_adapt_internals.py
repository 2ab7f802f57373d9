"""White-box tests of the ADAPT state machines (segment pool, windows,
child independence) — the paper's Section 2.2 mechanics."""

import numpy as np

from repro.collectives import bcast_adapt, reduce_adapt
from repro.collectives.base import CollectiveContext
from repro.config import CollectiveConfig, RuntimeConfig
from repro.machine import cori, small_test_machine
from repro.mpi import SUM, Communicator, MpiWorld
from repro.trees import Tree, chain_tree


def star(n):
    return Tree.from_parents([None] + [0] * (n - 1), root=0)


class TestSendWindows:
    def test_inflight_never_exceeds_n(self):
        # The sanitizer checks 0 <= in-flight <= N every time a send window
        # moves and raises on the first violation; a clean run plus a count
        # of the window checks proves the cap held throughout.
        spec = small_test_machine()
        world = MpiWorld(spec, 2, sanitize=True)
        windows = []
        check = world.sanitizer.window

        def spy(rank, peer, value, cap):
            windows.append((rank, value, cap))
            check(rank, peer, value, cap)

        world.sanitizer.window = spy
        comm = Communicator(world)
        # Segments above the eager threshold: rendezvous sends complete when
        # the data drains, so the window really fills up to N.
        cfg = CollectiveConfig(segment_size=32 * 1024, inflight_sends=2, posted_recvs=3)
        ctx = CollectiveContext(comm, 0, 512 * 1024, cfg, tree=chain_tree(2))
        handle = bcast_adapt(ctx)
        world.run()
        assert handle.done
        root = [value for rank, value, _ in windows if rank == 0]
        # One check when each segment's send is posted, one when it completes.
        assert len(root) == 2 * len(cfg.segments_for(512 * 1024))
        assert max(root) == cfg.inflight_sends
        assert all(cap == cfg.inflight_sends for _, _, cap in windows)

    def test_all_segments_sent_exactly_once_per_child(self):
        spec = small_test_machine()
        world = MpiWorld(spec, 5)
        comm = Communicator(world)
        cfg = CollectiveConfig(segment_size=8 * 1024)
        nbytes = 64 * 1024
        ctx = CollectiveContext(comm, 0, nbytes, cfg, tree=star(5))
        bcast_adapt(ctx)
        world.run()
        nseg = len(cfg.segments_for(nbytes))
        assert world.ranks[0].sends_posted == nseg * 4
        for child in range(1, 5):
            assert world.ranks[child].recvs_posted == nseg

    def test_bytes_accounting(self):
        spec = small_test_machine()
        world = MpiWorld(spec, 3)
        comm = Communicator(world)
        nbytes = 100 * 1000
        ctx = CollectiveContext(
            comm, 0, nbytes, CollectiveConfig(segment_size=9999), tree=chain_tree(3)
        )
        bcast_adapt(ctx)
        world.run()
        assert world.ranks[0].bytes_sent == nbytes
        assert world.ranks[1].bytes_sent == nbytes  # forwarded once
        assert world.ranks[2].bytes_sent == 0


class TestChildIndependence:
    def test_fast_child_finishes_while_slow_child_stalls(self):
        # Root with two children; child 2 frozen. Child 1 must complete its
        # recvs without waiting for child 2 at all.
        spec = cori(nodes=1)
        world = MpiWorld(spec, 3)
        comm = Communicator(world)
        cfg = CollectiveConfig(segment_size=64 * 1024)
        ctx = CollectiveContext(comm, 0, 1 << 20, cfg, tree=star(3))
        world.inject_noise(2, 10e-3)
        handle = bcast_adapt(ctx)
        world.run()
        assert handle.done_time[1] < 2e-3
        assert handle.done_time[2] > 10e-3

    def test_reduce_slow_leaf_does_not_block_sibling_contributions(self):
        spec = cori(nodes=1)
        world = MpiWorld(spec, 3)
        comm = Communicator(world)
        cfg = CollectiveConfig(segment_size=64 * 1024)
        ctx = CollectiveContext(comm, 0, 1 << 20, cfg, tree=star(3), op=SUM)
        world.inject_noise(2, 10e-3)
        handle = reduce_adapt(ctx)
        world.run()
        # Rank 1's sends all complete long before rank 2 even starts.
        assert handle.done_time[1] < 2e-3
        assert handle.done_time[0] > 10e-3  # root needs rank 2's data


class TestDegenerateConfigs:
    def test_window_larger_than_segments(self):
        spec = small_test_machine()
        world = MpiWorld(spec, 4)
        comm = Communicator(world)
        cfg = CollectiveConfig(segment_size=1 << 20, inflight_sends=16, posted_recvs=32)
        ctx = CollectiveContext(comm, 0, 4096, cfg, tree=chain_tree(4))
        handle = bcast_adapt(ctx)
        world.run()
        assert handle.done

    def test_single_byte_message(self):
        spec = small_test_machine()
        world = MpiWorld(spec, 4, carry_data=True)
        comm = Communicator(world)
        data = np.array([42], dtype=np.uint8)
        ctx = CollectiveContext(comm, 0, 1, CollectiveConfig(), tree=chain_tree(4), data=data)
        handle = bcast_adapt(ctx)
        world.run()
        for r in range(1, 4):
            assert np.asarray(handle.output[r]).view(np.uint8)[0] == 42

    def test_zero_byte_broadcast(self):
        spec = small_test_machine()
        world = MpiWorld(spec, 4)
        comm = Communicator(world)
        ctx = CollectiveContext(comm, 0, 0, CollectiveConfig(), tree=chain_tree(4))
        handle = bcast_adapt(ctx)
        world.run()
        assert handle.done

    def test_deep_chain_many_segments(self):
        spec = small_test_machine()
        world = MpiWorld(spec, 24)
        comm = Communicator(world)
        cfg = CollectiveConfig(segment_size=1024)
        ctx = CollectiveContext(comm, 0, 64 * 1024, cfg, tree=chain_tree(24))
        handle = bcast_adapt(ctx)
        world.run()
        assert handle.done
        assert len(handle.done_time) == 24

    def test_rendezvous_and_eager_mixed_segments(self):
        # Tail segment below the eager threshold, others above: both
        # protocols in one collective.
        spec = small_test_machine()
        world = MpiWorld(
            spec, 4, carry_data=True, config=RuntimeConfig(eager_threshold=16 * 1024)
        )
        comm = Communicator(world)
        data = np.random.default_rng(0).integers(0, 256, 100_000, dtype=np.uint8)
        cfg = CollectiveConfig(segment_size=32 * 1024)  # tail = 1696 B, eager
        ctx = CollectiveContext(comm, 0, 100_000, cfg, tree=chain_tree(4), data=data)
        handle = bcast_adapt(ctx)
        world.run()
        for r in range(4):
            np.testing.assert_array_equal(np.asarray(handle.output[r]).view(np.uint8), data)
