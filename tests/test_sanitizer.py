"""Unit and integration coverage for the runtime sanitizer."""

from types import SimpleNamespace

import pytest

from repro.analysis import Sanitizer, SanitizerError
from repro.collectives import bcast_adapt
from repro.collectives.base import CollectiveContext
from repro.config import CollectiveConfig
from repro.machine import small_test_machine
from repro.mpi import Communicator, MpiWorld
from repro.network import Flow, Link
from repro.trees import binary_tree


def make_world(nranks=8, **kw):
    nodes = max(1, -(-nranks // 8))
    return MpiWorld(small_test_machine(nodes=nodes), nranks, sanitize=True, **kw)


def fake_sanitizer():
    """A sanitizer detached from any world (unit-testing the pure checks)."""
    world = SimpleNamespace(engine=SimpleNamespace(now=0.0), ranks=[])
    return Sanitizer(world)


class TestWindowChecks:
    def test_in_bounds_passes(self):
        s = fake_sanitizer()
        for v in range(4):
            s.window(0, 1, v, cap=3)

    def test_negative_raises(self):
        with pytest.raises(SanitizerError, match="negative"):
            fake_sanitizer().window(2, 5, -1, cap=3)

    def test_over_cap_raises(self):
        with pytest.raises(SanitizerError, match="exceeds N"):
            fake_sanitizer().window(2, 5, 4, cap=3)


class TestRateChecks:
    @staticmethod
    def flow(fid, rate, cap, done=False, remaining=100.0):
        return SimpleNamespace(
            fid=fid, rate=rate, rate_cap=cap, done=done, remaining=remaining,
            path=[],
        )

    @staticmethod
    def link(name, capacity, flows):
        """A link carrying ``flows``: each crosses it once."""
        link = SimpleNamespace(name=name, capacity=capacity, flows=flows)
        for f in flows:
            f.path.append(link)
        return link

    def test_conserving_allocation_passes(self):
        f1, f2 = self.flow(1, 4.0, 10.0), self.flow(2, 6.0, 10.0)
        fake_sanitizer().check_rates([f1, f2], [self.link("l", 10.0, [f1, f2])])

    def test_overcommitted_link_raises(self):
        f1, f2 = self.flow(1, 7.0, 10.0), self.flow(2, 6.0, 10.0)
        with pytest.raises(SanitizerError, match="exceeds\\s+capacity"):
            fake_sanitizer().check_rates([f1, f2], [self.link("l", 10.0, [f1, f2])])

    def test_rate_above_flow_cap_raises(self):
        f = self.flow(1, 11.0, 10.0)
        with pytest.raises(SanitizerError, match="exceeds its cap"):
            fake_sanitizer().check_rates([f], [])

    def test_negative_rate_raises(self):
        f = self.flow(1, -0.5, 10.0)
        with pytest.raises(SanitizerError, match="negative rate"):
            fake_sanitizer().check_rates([f], [])

    def test_drained_flow_stale_rate_ignored(self):
        # A fully drained flow awaiting its _finish callback keeps its last
        # rate but carries no more bytes — it must not count against the
        # link's capacity (regression: false alarm on shared global links).
        drained = self.flow(1, 10.0, 10.0, remaining=0.0)
        live = self.flow(2, 10.0, 10.0)
        fake_sanitizer().check_rates(
            [drained, live], [self.link("l", 10.0, [drained, live])]
        )

    def test_flow_crossing_a_link_twice_claims_its_rate_twice(self):
        link = Link("l", 1e9)
        f = Flow(1, [link, link], 1000, 1e9, None)
        f.rate = 0.75e9
        link.flows.add(f)
        with pytest.raises(SanitizerError, match="exceeds\\s+capacity"):
            fake_sanitizer().check_rates([f], [link])

    def test_done_flows_ignored(self):
        stale = self.flow(1, 999.0, 10.0, done=True)
        live = self.flow(2, 5.0, 10.0)
        fake_sanitizer().check_rates(
            [stale, live], [self.link("l", 10.0, [stale, live])]
        )


class TestTraceMonotonicity:
    """Request events (post, completion, cancellation) never run a rank's
    clock backwards; the check is keyed by the request's rank."""

    class Req:
        """A hashable stand-in for a request owned by ``rank``."""

        def __init__(self, rank):
            self.rank = rank

    @staticmethod
    def at(s, now, hook, req):
        s.world.engine.now = now
        hook(req)

    def test_forward_time_passes(self):
        s = fake_sanitizer()
        a, b, c = self.Req(0), self.Req(0), self.Req(1)
        self.at(s, 1.0, s.on_post, a)
        self.at(s, 1.0, s.on_post, b)
        self.at(s, 2.0, s.on_complete, a)
        self.at(s, 0.5, s.on_post, c)  # other ranks are independent clocks
        self.at(s, 2.0, s.on_cancel, b)

    def test_backwards_time_raises(self):
        for last in ("on_post", "on_complete", "on_cancel"):
            s = fake_sanitizer()
            a, b = self.Req(0), self.Req(0)
            self.at(s, 1.0, s.on_post, a)
            self.at(s, 2.0, s.on_post, b)
            with pytest.raises(SanitizerError, match="backwards"):
                self.at(s, 1.5, getattr(s, last), a)


class TestRequestLifecycle:
    def test_double_post_raises(self):
        s = fake_sanitizer()
        req = object()
        s.on_post(req)
        with pytest.raises(SanitizerError, match="posted twice"):
            s.on_post(req)

    def test_unknown_completion_raises(self):
        with pytest.raises(SanitizerError, match="never posted"):
            fake_sanitizer().on_complete(object())

    def test_drain_with_inflight_raises(self):
        s = fake_sanitizer()
        s.on_post(object())
        with pytest.raises(SanitizerError, match="in flight"):
            s.check_drained()


class TestSanitizedWorld:
    def test_clean_collective_passes_all_checks(self):
        world = make_world()
        comm = Communicator(world)
        cfg = CollectiveConfig(segment_size=8 * 1024)
        ctx = CollectiveContext(comm, 0, 64 * 1024, cfg, tree=binary_tree(8))
        handle = bcast_adapt(ctx)
        world.run()
        assert handle.done
        # Posting, completion, window, rate and drain checks all ran.
        assert world.sanitizer.checks_run > 100

    def test_stranded_recv_fails_drain(self):
        world = make_world(nranks=2)
        world.ranks[0].irecv(1, tag=9, nbytes=1024)  # no send will ever come
        with pytest.raises(SanitizerError, match="still in flight"):
            world.run()

    def test_run_until_skips_drain_check(self):
        world = make_world(nranks=2)
        world.ranks[0].irecv(1, tag=9, nbytes=1024)
        world.run(until=1.0)  # bounded run: world may legitimately be mid-flight

    def test_queued_flow_left_at_drain_fails(self):
        world = make_world(nranks=2)
        net = world.fabric.network
        # A lost wake: the network believes the engine will wake it, so the
        # flows' finishes stay in the queue and never fire. The two flows
        # contend on one link, so the second arrival moves the first one's
        # rate and both finishes go through the queue (a lone flow posts
        # its finish into the engine and needs no wake).
        net._armed = 0.0
        link = Link("wire", 1e9)
        for tag in (8, 9):
            net.submit([link], 4096, 1e12, 1e-6, lambda f: None,
                       taginfo=("data", 0, 1, tag))
        with pytest.raises(SanitizerError, match="still active or queued"):
            world.run()

    def test_cohort_member_lost_at_drain_is_reported(self):
        # Three flows of one class share a schedule, and only the first to
        # finish heads the finish queue. With the wake lost and the other
        # two gone from the active set, only their cohort still holds
        # them: the drain check must count them as queued all the same.
        world = make_world(nranks=2)
        net = world.fabric.network
        net._armed = 0.0
        link = Link("wire", 1e9)
        for tag in (7, 8, 9):
            net.submit([link], 4096, 1e12, 1e-6, lambda f: None,
                       taginfo=("data", 0, 1, tag))

        def lose_members():
            (head,) = [f for _, stamp, f in net.queue if f.stamp == stamp]
            assert len(net.pending_flows()) == 3
            net.active.intersection_update({head})

        world.engine.post_at(1e-3, lose_members)
        with pytest.raises(SanitizerError, match="^3 flow"):
            world.run()

    def test_flow_left_at_drain_to_a_failed_rank_is_excused(self):
        # Two contending flows, as above, so the lost wake strands both.
        world = make_world(nranks=2)
        net = world.fabric.network
        net._armed = 0.0
        link = Link("wire", 1e9)
        flows = [net.submit([link], 4096, 1e12, 1e-6, lambda f: None,
                            taginfo=("data", 0, 1, tag))
                 for tag in (8, 9)]
        world.failed_ranks.add(1)
        world.run()
        assert net.pending_flows() == set(flows)

    def test_flow_finish_off_its_due_time_raises(self):
        s = fake_sanitizer()
        flow = SimpleNamespace(fid=3, stamp=7, due=2.0)
        s.check_flow_fire(flow, 7, 2.0)
        with pytest.raises(SanitizerError, match="due"):
            s.check_flow_fire(flow, 7, 1.5)
        with pytest.raises(SanitizerError, match="stale stamp"):
            s.check_flow_fire(flow, 6, 2.0)

    def test_default_world_has_no_sanitizer(self):
        world = MpiWorld(small_test_machine(), 8)
        assert world.sanitizer is None
        assert world.fabric.network.sanitizer is None
