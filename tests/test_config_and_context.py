"""Tests for CollectiveContext plumbing (tags, spaces, combine)."""

import numpy as np
import pytest

from repro.collectives.base import CollectiveContext, CollectiveHandle, new_handle
from repro.config import CollectiveConfig
from repro.machine import psg_gpu, small_test_machine
from repro.mpi import SUM, Communicator, MpiWorld
from repro.network import MemSpace


def make_ctx(**kw):
    world = MpiWorld(small_test_machine(), 8, carry_data=True)
    comm = Communicator(world)
    return CollectiveContext(comm, 0, 64 << 10, CollectiveConfig(), **kw), world


class TestContext:
    def test_tag_ranges_do_not_overlap(self):
        ctx1, world = make_ctx()
        ctx2 = CollectiveContext(ctx1.comm, 0, 64 << 10, CollectiveConfig())
        nseg = len(ctx1.config.segments_for(64 << 10))
        assert ctx2.base_tag >= ctx1.base_tag + nseg

    def test_seg_tag_offsets(self):
        ctx, _ = make_ctx()
        assert ctx.seg_tag(3) == ctx.base_tag + 3

    def test_combine_applies_op(self):
        ctx, _ = make_ctx(op=SUM)
        out = ctx.combine(np.array([1, 2]), np.array([3, 4]))
        np.testing.assert_array_equal(out, [4, 6])

    def test_combine_none_passthrough(self):
        ctx, _ = make_ctx(op=SUM)
        assert ctx.combine(None, np.array([1])) is None
        assert ctx.combine(np.array([1]), None) is None

    def test_host_staging_overrides_spaces(self):
        spec = psg_gpu(nodes=2)
        world = MpiWorld(spec, 8, gpu_bound=True)
        comm = Communicator(world)
        ctx = CollectiveContext(
            comm, 0, 1024, CollectiveConfig(), host_staging={0}
        )
        src_space, dst_space = ctx._spaces(0, 1)
        assert src_space == MemSpace.HOST  # staged rank sends from host
        assert dst_space is None           # non-staged keeps its default (GPU)
        src_space, dst_space = ctx._spaces(1, 0)
        assert src_space is None
        assert dst_space == MemSpace.HOST  # staged rank receives into host


class TestHandle:
    def test_elapsed_requires_completion(self):
        h = CollectiveHandle("x", start_time=0.0, size=2)
        h.mark_done(0, 1.0)
        with pytest.raises(RuntimeError):
            h.elapsed()
        h.mark_done(1, 2.0)
        assert h.elapsed() == pytest.approx(2.0)

    def test_double_mark_rejected(self):
        h = CollectiveHandle("x", start_time=0.0, size=1)
        h.mark_done(0, 1.0)
        with pytest.raises(RuntimeError):
            h.mark_done(0, 2.0)

    def test_elapsed_needs_one_finished_rank(self):
        h = CollectiveHandle("x", start_time=0.0, size=2)
        h.excuse(0)
        h.excuse(1)
        assert h.done
        with pytest.raises(RuntimeError, match="no rank completed"):
            h.elapsed()

    def test_failed_locals_without_a_detector_is_empty(self):
        ctx, world = make_ctx()
        world.kill_rank(3)
        world.kill_rank(3)  # a dead rank stays dead: nothing more happens
        assert world.failed_ranks == {3} and not world.ranks[3].alive
        assert world.failure_detector is None and ctx.failed_locals() == set()

    def test_rank_done_hook_order(self):
        h = CollectiveHandle("x", start_time=0.0, size=3)
        seen = []
        h.on_rank_done.append(lambda r, t: seen.append(r))
        h.mark_done(2, 1.0)
        h.mark_done(0, 2.0)
        assert seen == [2, 0]

    def test_new_handle_uses_engine_time(self):
        ctx, world = make_ctx()
        world.engine.call_at(1e-3, lambda: None)
        world.run()
        h = new_handle(ctx, "late")
        assert h.start_time == pytest.approx(1e-3)


def test_a_lazily_loaded_package_refuses_an_unknown_name():
    import repro.parallel

    with pytest.raises(AttributeError, match="'repro.parallel' has no attribute 'nope'"):
        repro.parallel.nope  # noqa: B018
