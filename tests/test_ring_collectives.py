"""Tests for the event-driven ring collectives (allgather, reduce-scatter)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import allgather_adapt, reduce_scatter_adapt
from repro.collectives.base import CollectiveContext
from repro.config import CollectiveConfig
from repro.machine import small_test_machine
from repro.mpi import SUM, MAX, Communicator, MpiWorld

CFG = CollectiveConfig(segment_size=8 * 1024)


def block_ranges(nbytes, nparts):
    base, rem = divmod(nbytes, nparts)
    out, off = [], 0
    for i in range(nparts):
        ln = base + (1 if i < rem else 0)
        out.append((off, ln))
        off += ln
    return out


def make_world(nranks=24):
    w = MpiWorld(small_test_machine(), nranks, carry_data=True)
    return w, Communicator(w)


# ``members=`` rings over a survivor subset (the epoch-restart relaunch):
# every rank, a subset without interior rank 2 and end rank 5, one survivor.
MEMBER_SETS = [list(range(6)), [0, 1, 3, 4], [3]]


def _fold(vectors, op):
    full = None
    for v in vectors:
        full = v.copy() if full is None else op(full, v)
    return full


class TestAllgather:
    @pytest.mark.parametrize("nranks", [2, 3, 8, 24])
    def test_every_rank_assembles_all_blocks(self, nranks):
        w, comm = make_world(nranks)
        nbytes = nranks * 300 + 7
        ranges = block_ranges(nbytes, nranks)
        rng = np.random.default_rng(nranks)
        data = {
            r: rng.integers(0, 256, ranges[r][1], dtype=np.uint8)
            for r in range(nranks)
        }
        ctx = CollectiveContext(comm, 0, nbytes, CFG, data=data)
        handle = allgather_adapt(ctx)
        w.run()
        assert handle.done
        expected = np.concatenate([data[r] for r in range(nranks)])
        for r in range(nranks):
            np.testing.assert_array_equal(
                np.asarray(handle.output[r]).view(np.uint8), expected,
                err_msg=f"rank {r}",
            )

    def test_single_rank(self):
        w, comm = make_world(1)
        data = {0: np.arange(100, dtype=np.uint8)}
        ctx = CollectiveContext(comm, 0, 100, CFG, data=data)
        handle = allgather_adapt(ctx)
        w.run()
        np.testing.assert_array_equal(
            np.asarray(handle.output[0]).view(np.uint8), data[0]
        )

    def test_timing_mode(self):
        w = MpiWorld(small_test_machine(), 24, carry_data=False)
        comm = Communicator(w)
        ctx = CollectiveContext(comm, 0, 24 * 1024, CFG)
        handle = allgather_adapt(ctx)
        w.run()
        assert handle.done
        assert handle.elapsed() > 0

    @pytest.mark.parametrize("members", MEMBER_SETS)
    def test_members_assemble_survivor_blocks(self, members):
        # Survivor oracle: member-origin blocks exact, dead-origin blocks
        # zero-filled, non-members never run.
        nranks = 6
        w, comm = make_world(nranks)
        nbytes = nranks * 300 + 7
        ranges = block_ranges(nbytes, nranks)
        rng = np.random.default_rng(31)
        data = {
            r: rng.integers(1, 256, ranges[r][1], dtype=np.uint8)
            for r in range(nranks)
        }
        ctx = CollectiveContext(comm, 0, nbytes, CFG, data=data)
        handle = allgather_adapt(ctx, members=members)
        w.run()
        assert sorted(handle.done_time) == members
        expected = np.concatenate([
            data[s] if s in members else np.zeros(ranges[s][1], dtype=np.uint8)
            for s in range(nranks)
        ])
        for r in members:
            np.testing.assert_array_equal(
                np.asarray(handle.output[r]).view(np.uint8), expected,
                err_msg=f"member {r}",
            )


class TestReduceScatter:
    @pytest.mark.parametrize("op", [SUM, MAX])
    @pytest.mark.parametrize("nranks", [2, 5, 24])
    def test_each_rank_gets_reduced_block(self, op, nranks):
        w, comm = make_world(nranks)
        nbytes = nranks * 200 + 3
        rng = np.random.default_rng(17)
        data = {
            r: rng.integers(0, 40, nbytes, dtype=np.uint8) for r in range(nranks)
        }
        ctx = CollectiveContext(comm, 0, nbytes, CFG, data=data, op=op)
        handle = reduce_scatter_adapt(ctx)
        w.run()
        assert handle.done
        full = None
        for r in range(nranks):
            full = data[r].copy() if full is None else op(full, data[r])
        for r, (off, ln) in enumerate(block_ranges(nbytes, nranks)):
            np.testing.assert_array_equal(
                np.asarray(handle.output[r]).view(np.uint8), full[off : off + ln],
                err_msg=f"rank {r}",
            )

    def test_single_rank(self):
        w, comm = make_world(1)
        data = {0: np.arange(64, dtype=np.uint8)}
        ctx = CollectiveContext(comm, 0, 64, CFG, data=data, op=SUM)
        handle = reduce_scatter_adapt(ctx)
        w.run()
        assert handle.done

    @pytest.mark.parametrize("op", [SUM, MAX])
    @pytest.mark.parametrize("members", MEMBER_SETS)
    def test_members_fold_survivors_only(self, members, op):
        # Survivor oracle: member m ends with block m of the fold over the
        # members' contributions; non-members never run.
        nranks = 6
        w, comm = make_world(nranks)
        nbytes = nranks * 200 + 3
        rng = np.random.default_rng(37)
        data = {
            r: rng.integers(0, 40, nbytes, dtype=np.uint8) for r in range(nranks)
        }
        ctx = CollectiveContext(comm, 0, nbytes, CFG, data=data, op=op)
        handle = reduce_scatter_adapt(ctx, members=members)
        w.run()
        assert sorted(handle.done_time) == members
        full = _fold([data[r] for r in members], op)
        ranges = block_ranges(nbytes, nranks)
        for r in members:
            off, ln = ranges[r]
            np.testing.assert_array_equal(
                np.asarray(handle.output[r]).view(np.uint8), full[off : off + ln],
                err_msg=f"member {r}",
            )

    @pytest.mark.parametrize("nranks", [2, 3])
    def test_rendezvous_blocks_complete_once(self, nranks):
        # Regression: with per-rank blocks above the eager threshold the
        # rendezvous send completes at the same sim time as the final
        # receive, and the completion check used to fire twice (once from
        # the send callback, once after the charge_reduce delay) —
        # "rank N finished 'reduce-scatter-adapt' twice". Found by the
        # property fuzz sweep (seed 99, cases 71/175).
        w = MpiWorld(small_test_machine(), nranks, carry_data=True,
                     sanitize=True)
        comm = Communicator(w)
        nbytes = nranks * (16 * 1024 + 1)  # one byte past eager per block
        cfg = CollectiveConfig(segment_size=1024, inflight_sends=2,
                               posted_recvs=2)
        rng = np.random.default_rng(99)
        data = {r: rng.integers(0, 256, nbytes, dtype=np.uint8)
                for r in range(nranks)}
        ctx = CollectiveContext(comm, 0, nbytes, cfg, data=data, op=MAX)
        handle = reduce_scatter_adapt(ctx)
        w.run()
        assert handle.done
        full = None
        for r in range(nranks):
            full = data[r].copy() if full is None else MAX(full, data[r])
        for r, (off, ln) in enumerate(block_ranges(nbytes, nranks)):
            np.testing.assert_array_equal(
                np.asarray(handle.output[r]).view(np.uint8),
                full[off : off + ln], err_msg=f"rank {r}",
            )

    def test_reduce_scatter_then_allgather_equals_allreduce(self):
        # The classic composition identity, checked end to end.
        nranks = 8
        w, comm = make_world(nranks)
        nbytes = nranks * 128
        rng = np.random.default_rng(23)
        data = {r: rng.integers(0, 30, nbytes, dtype=np.uint8) for r in range(nranks)}
        ctx = CollectiveContext(comm, 0, nbytes, CFG, data=data, op=SUM)
        h1 = reduce_scatter_adapt(ctx)
        w.run()
        scattered = {r: np.asarray(h1.output[r]).view(np.uint8) for r in range(nranks)}
        ctx2 = CollectiveContext(comm, 0, nbytes, CFG, data=scattered)
        h2 = allgather_adapt(ctx2)
        w.run()
        full = sum(data[r].astype(np.uint64) for r in range(nranks)).astype(np.uint8)
        for r in range(nranks):
            np.testing.assert_array_equal(
                np.asarray(h2.output[r]).view(np.uint8), full
            )


@given(
    nranks=st.integers(min_value=2, max_value=16),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=10, deadline=None)
def test_property_allgather_any_size(nranks, seed):
    w, comm = make_world(nranks)
    nbytes = nranks * (seed % 50 + 10) + seed % 7
    ranges = block_ranges(nbytes, nranks)
    rng = np.random.default_rng(seed)
    data = {r: rng.integers(0, 256, ranges[r][1], dtype=np.uint8) for r in range(nranks)}
    ctx = CollectiveContext(comm, 0, nbytes, CFG, data=data)
    handle = allgather_adapt(ctx)
    w.run()
    assert handle.done
    expected = np.concatenate([data[r] for r in range(nranks)])
    for r in range(nranks):
        np.testing.assert_array_equal(np.asarray(handle.output[r]).view(np.uint8), expected)
