"""Unit tests for the fair-share network and fabric routing."""

import pytest

from repro.machine import CommLevel, Topology, small_test_machine, psg_gpu
from repro.network import Fabric, FairShareNetwork, Flow, Link, MemSpace
from repro.network.fairshare import maxmin_rates
from repro.sim import Engine


def make_fabric(spec=None, nranks=None, gpu_bound=False, **kw):
    spec = spec or small_test_machine()
    nranks = nranks or spec.total_cores
    eng = Engine()
    topo = Topology(spec, nranks, gpu_bound=gpu_bound)
    return eng, Fabric(eng, spec, topo, **kw)


class TestMaxMinRates:
    def test_single_flow_gets_cap(self):
        link = Link("l", 10e9)
        f = Flow(1, [link], 1000, rate_cap=4e9, on_complete=lambda fl: None)
        link.flows.add(f)
        rates = maxmin_rates([f], [link])
        assert rates[f] == pytest.approx(4e9)

    def test_equal_share_on_bottleneck(self):
        link = Link("l", 9e9)
        flows = [
            Flow(i, [link], 1000, rate_cap=100e9, on_complete=lambda fl: None)
            for i in range(3)
        ]
        for f in flows:
            link.flows.add(f)
        rates = maxmin_rates(flows, [link])
        for f in flows:
            assert rates[f] == pytest.approx(3e9)

    def test_capped_flow_releases_bandwidth(self):
        link = Link("l", 10e9)
        capped = Flow(1, [link], 1000, rate_cap=2e9, on_complete=lambda fl: None)
        free = Flow(2, [link], 1000, rate_cap=100e9, on_complete=lambda fl: None)
        for f in (capped, free):
            link.flows.add(f)
        rates = maxmin_rates([capped, free], [link])
        assert rates[capped] == pytest.approx(2e9)
        assert rates[free] == pytest.approx(8e9)

    def test_two_links_bottleneck_chain(self):
        # f1 crosses A and B; f2 crosses only B. B is the bottleneck for f1
        # only if its share there is smaller.
        a = Link("a", 4e9)
        b = Link("b", 10e9)
        f1 = Flow(1, [a, b], 1, rate_cap=1e12, on_complete=lambda fl: None)
        f2 = Flow(2, [b], 1, rate_cap=1e12, on_complete=lambda fl: None)
        a.flows.add(f1)
        b.flows.update((f1, f2))
        rates = maxmin_rates([f1, f2], [a, b])
        assert rates[f1] == pytest.approx(4e9)
        assert rates[f2] == pytest.approx(6e9)  # leftover of B

    def test_capacity_never_exceeded(self):
        links = [Link(f"l{i}", 5e9) for i in range(3)]
        flows = []
        paths = [[0], [0, 1], [1, 2], [2], [0, 2]]
        for i, p in enumerate(paths):
            f = Flow(i, [links[j] for j in p], 1, 1e12, on_complete=lambda fl: None)
            flows.append(f)
            for j in p:
                links[j].flows.add(f)
        rates = maxmin_rates(flows, links)
        for link in links:
            load = sum(rates[f] for f in flows if link in f.path)
            assert load <= link.capacity * (1 + 1e-9)


class TestFairShareNetwork:
    def test_flow_completes_at_expected_time(self):
        eng = Engine()
        net = FairShareNetwork(eng)
        link = Link("l", 1e9)
        done = []
        net.submit([link], 1000, rate_cap=1e9, latency=1e-6,
                   on_complete=lambda f: done.append(eng.now))
        eng.run()
        # 1 us latency + 1000 B / 1 GB/s = 1 us
        assert done == [pytest.approx(2e-6)]

    def test_two_flows_share_then_speed_up(self):
        eng = Engine()
        net = FairShareNetwork(eng)
        link = Link("l", 1e9)
        done = {}
        net.submit([link], 1000, 1e12, 0.0, lambda f: done.setdefault("a", eng.now))
        net.submit([link], 3000, 1e12, 0.0, lambda f: done.setdefault("b", eng.now))
        eng.run()
        # Both run at 0.5 GB/s until a finishes at 2 us; b then has
        # 3000-1000=2000 B left at 1 GB/s -> finishes at 4 us.
        assert done["a"] == pytest.approx(2e-6)
        assert done["b"] == pytest.approx(4e-6)

    def test_zero_byte_flow_completes_after_latency(self):
        eng = Engine()
        net = FairShareNetwork(eng)
        done = []
        net.submit([], 0, 1e9, 5e-6, lambda f: done.append(eng.now))
        eng.run()
        assert done == [pytest.approx(5e-6)]

    def test_loopback_flow_uses_cap(self):
        eng = Engine()
        net = FairShareNetwork(eng)
        done = []
        net.submit([], 1000, 1e9, 0.0, lambda f: done.append(eng.now))
        eng.run()
        assert done == [pytest.approx(1e-6)]

    def test_disjoint_components_independent(self):
        eng = Engine()
        net = FairShareNetwork(eng)
        l1, l2 = Link("l1", 1e9), Link("l2", 1e9)
        done = {}
        net.submit([l1], 1000, 1e12, 0.0, lambda f: done.setdefault("x", eng.now))
        net.submit([l2], 1000, 1e12, 0.0, lambda f: done.setdefault("y", eng.now))
        eng.run()
        assert done["x"] == pytest.approx(1e-6)
        assert done["y"] == pytest.approx(1e-6)

    def test_finish_tied_with_a_later_post_fires_first(self):
        # A flow whose last reschedule precedes a post to its exact due
        # instant finishes before that post, as an eager call_at at the
        # reschedule would. The flow is not the queue head when the post
        # lands (b finishes first, on its own link), so a single timer
        # re-armed at the head would be scheduled after the post instead.
        eng = Engine()
        net = FairShareNetwork(eng)
        order = []
        a = net.submit([Link("la", 1e9)], 1000, 1e12, 0.0,
                       lambda f: order.append("a"))
        net.submit([Link("lb", 1e9)], 500, 1e12, 0.0,
                   lambda f: order.append("b"))
        assert a.due == 1e-6
        eng.post_at(1e-6, order.append, "post")
        eng.run()
        assert order == ["b", "a", "post"]

    def test_rescheduled_flows_hold_no_engine_events(self):
        eng = Engine()
        net = FairShareNetwork(eng)
        link = Link("l", 1e9)
        for _ in range(20):
            net.submit([link], 10_000, 1e12, 0.0, lambda f: None)
        assert eng.pending() == 0
        assert len(net.queue) >= 20
        eng.run()
        assert net.flows_completed == 20
        assert not net.active and eng.pending() == 0

    def test_many_flows_complete(self):
        eng = Engine()
        net = FairShareNetwork(eng)
        link = Link("l", 1e9)
        done = []
        for _ in range(50):
            net.submit([link], 10_000, 1e12, 0.0, lambda f: done.append(eng.now))
        eng.run()
        assert len(done) == 50
        assert net.flows_completed == 50
        # Total work conservation: 50 * 10 kB at 1 GB/s = 500 us.
        assert eng.now == pytest.approx(500e-6, rel=1e-6)


class TestFabricRouting:
    def test_intra_socket_path(self):
        eng, fab = make_fabric()
        r = fab.route(0, 1)
        assert [l.name for l in r.links] == ["shm:n0.s0"]
        assert r.rate_cap == pytest.approx(fab.spec.shm.bandwidth)

    def test_inter_socket_path(self):
        eng, fab = make_fabric()
        # ranks 0..3 socket 0, ranks 4..7 socket 1 on node 0
        r = fab.route(0, 4)
        assert [l.name for l in r.links] == ["qpi:n0:0->1"]

    def test_inter_node_path(self):
        eng, fab = make_fabric()
        r = fab.route(0, 8)  # node 0 -> node 1
        assert [l.name for l in r.links] == ["nic-out:n0", "nic-in:n1"]
        assert r.rate_cap == pytest.approx(fab.spec.fabric.bandwidth)

    def test_loopback_path(self):
        eng, fab = make_fabric()
        r = fab.route(3, 3)
        assert r.links == ()
        assert r.rate_cap == pytest.approx(fab.spec.memcpy_bandwidth)

    def test_route_cache_returns_same_object(self):
        eng, fab = make_fabric()
        assert fab.route(0, 8) is fab.route(0, 8)

    def test_gpu_same_socket_uses_peer_lanes(self):
        spec = psg_gpu(nodes=2)
        eng, fab = make_fabric(spec, nranks=8, gpu_bound=True)
        r = fab.route(0, 1, MemSpace.GPU, MemSpace.GPU)
        assert [l.name for l in r.links] == ["pcie-out:n0.s0.g0", "pcie-in:n0.s0.g1"]

    def test_gpu_cross_socket_staged_through_host(self):
        spec = psg_gpu(nodes=2)
        eng, fab = make_fabric(spec, nranks=8, gpu_bound=True)
        r = fab.route(0, 2, MemSpace.GPU, MemSpace.GPU)
        names = [l.name for l in r.links]
        assert names == ["pcie-out:n0.s0.g0", "qpi:n0:0->1", "pcie-in:n0.s1.g0"]

    def test_gpu_inter_node_gpudirect(self):
        spec = psg_gpu(nodes=2)
        eng, fab = make_fabric(spec, nranks=8, gpu_bound=True, gpudirect=True)
        r = fab.route(0, 4, MemSpace.GPU, MemSpace.GPU)
        names = [l.name for l in r.links]
        assert names == [
            "pcie-out:n0.s0.g0", "nic-out:n0", "nic-in:n1", "pcie-in:n1.s0.g0",
        ]

    def test_gpu_inter_node_staged_is_slower(self):
        spec = psg_gpu(nodes=2)
        _, fab_gd = make_fabric(spec, nranks=8, gpu_bound=True, gpudirect=True)
        _, fab_st = make_fabric(spec, nranks=8, gpu_bound=True, gpudirect=False)
        t_gd = fab_gd.route(0, 4, MemSpace.GPU, MemSpace.GPU).uncontended_time(1 << 20)
        t_st = fab_st.route(0, 4, MemSpace.GPU, MemSpace.GPU).uncontended_time(1 << 20)
        assert t_st > t_gd

    def test_gpu_to_host_send_path(self):
        spec = psg_gpu(nodes=2)
        eng, fab = make_fabric(spec, nranks=8, gpu_bound=True)
        r = fab.route(0, 4, MemSpace.GPU, MemSpace.HOST)
        names = [l.name for l in r.links]
        assert names == ["pcie-out:n0.s0.g0", "nic-out:n0", "nic-in:n1"]

    def test_host_to_gpu_recv_path(self):
        spec = psg_gpu(nodes=2)
        eng, fab = make_fabric(spec, nranks=8, gpu_bound=True)
        r = fab.route(0, 4, MemSpace.HOST, MemSpace.GPU)
        names = [l.name for l in r.links]
        assert names == ["nic-out:n0", "nic-in:n1", "pcie-in:n1.s0.g0"]

    def test_transfer_end_to_end(self):
        eng, fab = make_fabric()
        done = []
        fab.start_transfer(0, 8, 1_000_000, lambda f: done.append(eng.now))
        eng.run()
        expected = fab.spec.fabric.alpha + 1_000_000 / fab.spec.fabric.bandwidth
        assert done == [pytest.approx(expected, rel=1e-6)]

    def test_nic_contention_three_flows(self):
        # Three inter-node flows from node 0 share its single NIC.
        eng, fab = make_fabric()
        done = []
        for dst in (8, 9, 16):
            fab.start_transfer(0, dst, 1_000_000, lambda f: done.append(eng.now))
        eng.run()
        b = fab.spec.fabric.bandwidth
        # Fair share: each flow runs at B/3 the whole time.
        expected = fab.spec.fabric.alpha + 1_000_000 / (b / 3)
        assert done[-1] == pytest.approx(expected, rel=1e-3)


class TestTopology:
    def test_placement_block_mapping(self):
        spec = small_test_machine()  # 2 sockets x 4 cores, 3 nodes
        topo = Topology(spec, 24)
        p = topo.placement(13)
        assert (p.node, p.socket, p.core) == (1, 1, 1)

    def test_levels(self):
        spec = small_test_machine()
        topo = Topology(spec, 24)
        assert topo.level(0, 0) == CommLevel.SELF
        assert topo.level(0, 3) == CommLevel.INTRA_SOCKET
        assert topo.level(0, 4) == CommLevel.INTER_SOCKET
        assert topo.level(0, 8) == CommLevel.INTER_NODE

    def test_too_many_ranks_rejected(self):
        spec = small_test_machine()
        with pytest.raises(ValueError):
            Topology(spec, 1000)

    def test_gpu_bound_placement(self):
        spec = psg_gpu(nodes=2)
        topo = Topology(spec, 8, gpu_bound=True)
        p = topo.placement(5)
        assert (p.node, p.socket, p.gpu) == (1, 0, 1)

    def test_gpu_bound_requires_gpus(self):
        with pytest.raises(ValueError):
            Topology(small_test_machine(), 4, gpu_bound=True)

    def test_group_keys(self):
        spec = small_test_machine()
        topo = Topology(spec, 24)
        assert topo.group_key(5, CommLevel.INTRA_SOCKET) == (0, 1)
        assert topo.group_key(5, CommLevel.INTER_SOCKET) == (0,)
        assert topo.group_key(5, CommLevel.INTER_NODE) == ()

    def test_ranks_on_socket(self):
        spec = small_test_machine()
        topo = Topology(spec, 24)
        assert topo.ranks_on_socket(1, 0) == [8, 9, 10, 11]
