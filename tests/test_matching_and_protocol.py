"""Unit tests for message matching and the M>N unexpected-message story."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import bcast_adapt
from repro.collectives.base import CollectiveContext
from repro.config import CollectiveConfig, RuntimeConfig
from repro.machine import small_test_machine
from repro.mpi import Communicator, MpiWorld
from repro.mpi.matching import InboundMessage, Matcher
from repro.mpi.request import Request
from repro.trees import chain_tree


def req(rank=1, peer=0, tag=0, nbytes=10, kind="recv"):
    return Request(None, kind, rank, peer, tag, nbytes)


def msg(src=0, tag=0, nbytes=10, eager=True):
    return InboundMessage(src=src, tag=tag, nbytes=nbytes, eager=eager)


def test_match_key_pairs_a_send_with_its_recv():
    from repro.mpi.matching import match_key

    assert match_key("send", 0, 1, 7) == match_key("recv", 1, 0, 7) == (0, 1, 7)
    with pytest.raises(ValueError, match="not 'reduce'"):
        match_key("reduce", 0, 1, 7)


class TestMatcher:
    def test_posted_then_arrival_matches(self):
        m = Matcher()
        r = req(tag=5)
        assert m.post_recv(r) is None
        assert m.arrive(msg(tag=5)) is r
        assert m.pending_posted() == 0

    def test_arrival_then_posted_matches(self):
        m = Matcher()
        inbound = msg(tag=5)
        assert m.arrive(inbound) is None
        assert m.unexpected_eager_count == 1
        assert m.post_recv(req(tag=5)) is inbound

    def test_different_tags_do_not_match(self):
        m = Matcher()
        m.post_recv(req(tag=1))
        assert m.arrive(msg(tag=2)) is None
        assert m.pending_posted() == 1
        assert m.pending_inbound() == 1

    def test_different_sources_do_not_match(self):
        m = Matcher()
        m.post_recv(req(peer=3, tag=0))
        assert m.arrive(msg(src=4, tag=0)) is None

    def test_fifo_within_key(self):
        m = Matcher()
        r1, r2 = req(tag=0), req(tag=0)
        m.post_recv(r1)
        m.post_recv(r2)
        assert m.arrive(msg(tag=0)) is r1
        assert m.arrive(msg(tag=0)) is r2

    def test_rendezvous_arrivals_not_counted_unexpected(self):
        m = Matcher()
        m.arrive(msg(tag=0, eager=False))
        assert m.unexpected_eager_count == 0


@given(
    order=st.permutations(list(range(8))),
    post_first=st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_property_matching_pairs_posts_and_arrivals(order, post_first):
    """Any interleaving of 8 posts and 8 arrivals (distinct tags) pairs each
    recv with the arrival of the same tag exactly once."""
    m = Matcher()
    matched = {}
    recvs = {t: req(tag=t) for t in range(8)}
    arrivals = {t: msg(tag=t) for t in range(8)}
    if post_first:
        for t in range(8):
            assert m.post_recv(recvs[t]) is None
        for t in order:
            matched[t] = m.arrive(arrivals[t])
        assert all(matched[t] is recvs[t] for t in range(8))
    else:
        for t in order:
            assert m.arrive(arrivals[t]) is None
        for t in range(8):
            got = m.post_recv(recvs[t])
            assert got is arrivals[t]
    assert m.pending_posted() == 0
    assert m.pending_inbound() == 0


class TestUnexpectedMessageCost:
    """Section 2.2.1: M (posted recvs) > N (in-flight sends) avoids the
    unexpected-message copy; M < N provokes it and costs time."""

    def _run(self, inflight, posted, eager_threshold):
        spec = small_test_machine()
        world = MpiWorld(
            spec, 8, config=RuntimeConfig(eager_threshold=eager_threshold)
        )
        comm = Communicator(world)
        cfg = CollectiveConfig(
            segment_size=4 * 1024, inflight_sends=inflight, posted_recvs=posted
        )
        ctx = CollectiveContext(comm, 0, 256 * 1024, cfg, tree=chain_tree(8))
        handle = bcast_adapt(ctx)
        world.run()
        assert handle.done
        return handle.elapsed(), world.total_unexpected()

    def test_eager_flood_produces_unexpected_messages(self):
        # Eager senders complete locally and can flood a receiver whose CPU
        # cannot re-post receives fast enough: unexpected messages appear —
        # the cost (buffer + extra copy) the paper's M > N rule is about.
        _, unexpected = self._run(inflight=2, posted=1, eager_threshold=64 * 1024)
        assert unexpected > 0

    def test_rendezvous_never_unexpected(self):
        # Below-threshold eager forced off: rendezvous data always lands in
        # a posted buffer.
        _, unexpected = self._run(4, 1, eager_threshold=64)
        assert unexpected == 0
