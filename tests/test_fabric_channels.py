"""Tests for the in-order data channels and control-plane shortcut of the
fabric (the BTL-queue model added during calibration — DESIGN.md S4)."""

import pytest

from repro.machine import cori, small_test_machine, Topology
from repro.network import Fabric
from repro.sim import Engine


def make_fabric(spec=None):
    spec = spec or small_test_machine()
    eng = Engine()
    topo = Topology(spec, spec.total_cores)
    return eng, Fabric(eng, spec, topo)


class TestOrderedChannels:
    def test_same_pair_data_serializes_in_order(self):
        eng, fab = make_fabric()
        done = []
        # Two transfers, same (src, dst): the second must not finish before
        # the first even though it is smaller.
        fab.start_transfer(0, 8, 1_000_000, lambda f: done.append("big"))
        fab.start_transfer(0, 8, 10_000, lambda f: done.append("small"))
        eng.run()
        assert done == ["big", "small"]

    def test_different_pairs_do_not_serialize(self):
        eng, fab = make_fabric()
        done = []
        fab.start_transfer(0, 8, 4_000_000, lambda f: done.append("slowpair"))
        fab.start_transfer(1, 9, 10_000, lambda f: done.append("fastpair"))
        eng.run()
        # The small transfer on an unrelated pair overtakes.
        assert done[0] == "fastpair"

    def test_queued_transfer_returns_none(self):
        eng, fab = make_fabric()
        first = fab.start_transfer(0, 8, 1000, lambda f: None)
        second = fab.start_transfer(0, 8, 1000, lambda f: None)
        assert first is not None
        assert second is None  # queued behind the channel head
        eng.run()

    def test_channel_reusable_after_drain(self):
        eng, fab = make_fabric()
        done = []
        fab.start_transfer(0, 8, 1000, lambda f: done.append(1))
        eng.run()
        flow = fab.start_transfer(0, 8, 1000, lambda f: done.append(2))
        assert flow is not None  # channel idle again
        eng.run()
        assert done == [1, 2]

    def test_long_queue_drains_fifo(self):
        eng, fab = make_fabric()
        done = []
        for i in range(10):
            fab.start_transfer(0, 8, 50_000, lambda f, i=i: done.append(i))
        eng.run()
        assert done == list(range(10))


class TestControlPlane:
    def test_control_latency_only(self):
        eng, fab = make_fabric()
        done = []
        fab.start_control(0, 8, 64, lambda: done.append(eng.now))
        eng.run()
        route = fab.route(0, 8)
        expected = route.latency + 64 / route.rate_cap
        assert done == [pytest.approx(expected)]

    def test_control_does_not_occupy_links(self):
        eng, fab = make_fabric()
        fab.start_control(0, 8, 64, lambda: None)
        # No flow was registered on any link.
        assert all(len(l.flows) == 0 for l in fab.links().values())
        eng.run()

    def test_control_unaffected_by_bulk_congestion(self):
        eng, fab = make_fabric(cori(nodes=2))
        t_clean = []
        fab.start_control(0, 32, 64, lambda: t_clean.append(eng.now))
        eng.run()

        eng2, fab2 = make_fabric(cori(nodes=2))
        t_busy = []
        fab2.start_transfer(0, 32, 8 << 20, lambda f: None)
        fab2.start_control(0, 32, 64, lambda: t_busy.append(eng2.now))
        eng2.run()
        assert t_busy[0] == pytest.approx(t_clean[0])
