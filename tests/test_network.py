"""Unit tests for the fair-share network and fabric routing."""

import json
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.machine import CommLevel, Topology, small_test_machine, psg_gpu
from repro.network import Fabric, FairShareNetwork, Flow, Link, MemSpace, fairshare
from repro.network.fairshare import (
    _EPSILON_BYTES, _HEADROOM, _Cohort, maxmin_rates, maxmin_rates_reference,
)
from repro.sim import Engine


def make_fabric(spec=None, nranks=None, gpu_bound=False, **kw):
    spec = spec or small_test_machine()
    nranks = nranks or spec.total_cores
    eng = Engine()
    topo = Topology(spec, nranks, gpu_bound=gpu_bound)
    return eng, Fabric(eng, spec, topo, **kw)


class TestValidation:
    def test_links_and_flows_reject_impossible_sizes(self):
        with pytest.raises(ValueError, match="needs positive capacity"):
            Link("l", 0.0)
        link = Link("l", 1e9)
        with pytest.raises(ValueError, match="negative flow size"):
            Flow(1, [link], -1, 1e9, None)
        with pytest.raises(ValueError, match="rate cap must be positive"):
            Flow(1, [link], 10, 0.0, None)

    def test_gpu_links_need_a_gpu_machine(self):
        _, fab = make_fabric()
        with pytest.raises(ValueError, match="has no GPUs"):
            fab.gpu_out_link(0, 0, 0)


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
        # The first flow arrives alone and posts its finish at once; each
        # later arrival moves the rates, so that entry is withdrawn and
        # every finish waits in the queue for its epoch.
        eng = Engine()
        net = FairShareNetwork(eng)
        link = Link("l", 1e9)
        flows = [net.submit([link], 10_000, 1e12, 0.0, lambda f: None)
                 for _ in range(20)]
        assert eng.pending() == 0
        assert all(f.entry is None for f in flows)
        assert net.pending_flows() == set(flows)
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
        eng, fab = make_fabric(spec, nranks=8, gpu_bound=True)
        r = fab.route(0, 4, MemSpace.GPU, MemSpace.GPU)
        names = [l.name for l in r.links]
        assert names == [
            "pcie-out:n0.s0.g0", "nic-out:n0", "nic-in:n1", "pcie-in:n1.s0.g0",
        ]

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

    def test_placement_rejects_out_of_range_ranks(self):
        topo = Topology(small_test_machine(), 24)
        for rank in (-1, 24):
            with pytest.raises(ValueError, match="out of range"):
                topo.placement(rank)
        with pytest.raises(ValueError, match="out of range"):
            topo.level(0, -1)


# -- route equivalence: one build per endpoint signature ----------------------

def _route_worlds():
    """A (fabric factory, nranks) param for every preset and compiled family
    at 8, 40 and 64 ranks, bound to cores and, on GPU machines, to GPUs."""
    from repro.machine import for_ranks
    from repro.machine.presets import PRESETS, TOPO_FAMILY_NAMES
    from repro.network.topofabric import TopoFabric

    worlds = []
    for name in (*PRESETS, *TOPO_FAMILY_NAMES):
        for nranks in (8, 40, 64):
            spec = for_ranks(name, nranks)
            for gpu_bound in (False, True) if spec.node.gpu else (False,):
                def build(spec=spec, nranks=nranks, gpu_bound=gpu_bound):
                    topo = Topology(spec, nranks, gpu_bound=gpu_bound)
                    if spec.compiled is None:
                        return Fabric(Engine(), spec, topo)
                    return TopoFabric(Engine(), spec, topo, spec.compiled)
                worlds.append(pytest.param(
                    build, nranks, id=f"{name}-{nranks}r-gpu_bound={gpu_bound}"))
    return worlds


@pytest.mark.parametrize("build, nranks", _route_worlds())
def test_routes_match_uncached_and_share_per_signature(build, nranks):
    """``route`` returns what a fresh ``_route_uncached`` builds for every
    pair and space, and pairs with one endpoint signature share a Route.
    Links are created in the order a fabric that builds every pair would
    create them, so ``links()`` lists them alike."""
    fab, ref = build(), build()
    topo = fab.topology
    spaces = ((MemSpace.HOST, MemSpace.HOST),)
    if fab.spec.node.gpu is not None:
        spaces = tuple((a, b) for a in MemSpace for b in MemSpace)
    by_signature = {}
    checked = 0
    for src in range(nranks):
        for dst in range(nranks):
            for src_space, dst_space in spaces:
                # A pair the machine cannot route (a GPU space on a core-bound
                # rank, two cores behind one rail-pod GPU) must raise alike.
                try:
                    ref._route_uncached(src, dst, src_space, dst_space)
                except (AssertionError, KeyError, ValueError) as exc:
                    with pytest.raises(type(exc)):
                        fab.route(src, dst, src_space, dst_space)
                    continue
                got = fab.route(src, dst, src_space, dst_space)
                want = fab._route_uncached(src, dst, src_space, dst_space)
                where = (src, dst, src_space, dst_space)
                assert len(got.links) == len(want.links), where
                assert all(a is b for a, b in zip(got.links, want.links)), where
                assert got.latency == want.latency, where
                assert got.rate_cap == want.rate_cap, where
                signature = (fab.endpoint(topo.placement(src)),
                             fab.endpoint(topo.placement(dst)),
                             src == dst, src_space, dst_space)
                assert by_signature.setdefault(signature, got) is got, where
                checked += 1
    assert checked
    assert list(fab.links()) == list(ref.links())


# -- per-class rescheduling against a per-flow oracle -------------------------

class PerFlowNetwork:
    """The allocator's per-flow rules, with eager finish events.

    Every flow whose rate moves is drained and gets a fresh ``call_at``
    for its finish, one flow at a time in fid order; a flow that keeps its
    rate keeps its event and drains later. ``FairShareNetwork`` must match
    it float for float: the same finish instants, the same callback order
    within each epoch, and the same per-link byte counts. It finds each
    component with its own walk over flows, independent of the network's
    walk over classes.
    """

    def __init__(self, engine):
        self.engine = engine
        self.active = set()
        self.handles = {}
        self._next_fid = 0

    def submit(self, path, nbytes, rate_cap, latency, on_complete):
        self._next_fid += 1
        flow = Flow(self._next_fid, path, nbytes, rate_cap, on_complete)
        flow.start_time = self.engine.now
        if latency > 0.0:
            self.engine.post_after(latency, self._activate, flow)
        else:
            self._activate(flow)
        return flow

    def refresh(self, links):
        seen = set()
        for link in links:
            for flow in list(link.flows):
                if flow in seen or flow.done:
                    continue
                seen.update(self._components(flow.path)[0][0])
                self._rebalance(flow)

    def _activate(self, flow):
        flow.last_update = self.engine.now
        self.active.add(flow)
        for link in flow.path:
            link.flows.add(flow)
        self._rebalance(flow)

    def _schedule(self, flow):
        self._withdraw(flow)
        due = self.engine.now + flow.remaining / flow.rate
        self.handles[flow] = self.engine.call_at(due, self._finish, flow)

    def _withdraw(self, flow):
        handle = self.handles.pop(flow, None)
        if handle is not None:
            handle.cancel()

    def _finish(self, flow):
        if flow.done:
            return
        now = self.engine.now
        flow.drain(now)
        flow.remaining = 0.0
        flow.finish_time = now
        self._withdraw(flow)
        self.active.discard(flow)
        for link in flow.path:
            link.flows.discard(flow)
        flow.on_complete(flow)
        self._rebalance(flow)

    @staticmethod
    def _components(path):
        """The connected components of flows and links among ``path``'s
        links, found flow by flow, each as ``(flows, links)``."""
        out = []
        seen = set()
        for start in path:
            if start in seen or not start.flows:
                continue
            seen.add(start)
            flows, links = set(), [start]
            for link in links:
                for f in link.flows - flows:
                    flows.add(f)
                    for other in f.path:
                        if other not in seen:
                            seen.add(other)
                            links.append(other)
            out.append((flows, links))
        return out

    def _rebalance(self, seed):
        now = self.engine.now
        if not seed.done and seed in self.active and all(
            len(link.flows) == 1 for link in seed.path
        ):
            seed.drain(now)
            if seed.remaining <= _EPSILON_BYTES:
                self._finish(seed)
                return
            # Each crossing of a link takes its share of the capacity.
            rate = min(
                min(link.capacity / seed.path.count(link) for link in seed.path),
                seed.rate_cap,
            )
            if (abs(rate - seed.rate) > 1e-9 * max(rate, seed.rate)
                    or seed not in self.handles):
                seed.rate = rate
                self._schedule(seed)
            return
        finished = []
        for flows, links in self._components(seed.path):
            flows = sorted(flows, key=lambda f: f.fid)
            links = sorted(links, key=lambda l: l.name)
            finished += self._solve(flows, links)
        for f in sorted(finished, key=lambda f: f.fid):
            self._finish(f)

    def _solve(self, flows, links):
        """Rates of one component; returns the flows already drained."""
        now = self.engine.now
        rates = maxmin_rates(flows, links)
        finished = []
        for f in flows:
            new_rate = rates[f]
            rem = f.remaining
            if f.rate > 0.0 and now - f.last_update > 0.0:
                rem = max(rem - f.rate * (now - f.last_update), 0.0)
            if rem <= _EPSILON_BYTES:
                finished.append(f)
                continue
            if f in self.handles and (
                abs(new_rate - f.rate) <= 1e-9 * max(new_rate, f.rate)
            ):
                continue
            f.drain(now)
            f.rate = new_rate
            if new_rate > 0.0:
                self._schedule(f)
            else:
                self._withdraw(f)
        return finished


# Link i of a run is named f"l{i}"; paths share links, and one crosses
# a link twice. l4 is below every cap, so path (4, 0) arrives on a link
# of its own that bounds it and on l0, which it may share.
_CAPACITIES = (1e9, 2.5e9, 1e9 / 3, 7e8, 2e8)
_PATHS = ((0,), (0, 1), (1, 2), (2,), (0, 2), (1, 1, 3), (3,), (1,), (4, 0))
# Two flows capped at _EDGE fill l0 to its headroom margin exactly; the
# caps one ulp either side land just outside and just inside it, and two
# flows at 5e8 fill l0 to its capacity.
_EDGE = _CAPACITIES[0] * _HEADROOM / 2
_RATE_CAPS = (
    2e9, 7e8, 3e8, 5e8, _EDGE, math.nextafter(_EDGE, math.inf), math.nextafter(_EDGE, 0.0),
)


def _drive(network_cls, flows, caps, markers, refresh, times, late=(),
           echoes=(), spawns=()):
    """Run ``flows`` through a fresh network; return the callback log and
    each link's bytes carried.

    ``echoes`` and ``spawns`` act from the finish callback of flow ``k``
    of ``flows``, which may run inside a finish cascade. An echo ``(k, j)``
    posts a marker at the ``j``-th finish instant of the plain run still to
    come: the due instant of a flow that is still live, often one whose
    rate moved earlier in this instant. A spawn ``(k, nbytes, c)`` submits
    a zero-latency flow on flow ``k``'s path, into its component.
    """
    eng = Engine()
    net = network_cls(eng)
    links = [Link(f"l{i}", cap) for i, cap in enumerate(_CAPACITIES)]
    log = []
    acts = {}  # fid -> what its finish callback does
    for k, j in echoes:
        acts.setdefault(k % len(flows) + 1, []).append((None, j, None))
    for k, nbytes, c in spawns:
        acts.setdefault(k % len(flows) + 1, []).append((flows[k % len(flows)][1], nbytes, c))

    def finished(f):
        log.append((eng.now, "finish", f.fid))
        for p, arg, c in acts.get(f.fid, ()):
            if p is None:
                later = [t for t in times if t > eng.now]
                if later:
                    eng.post_at(later[arg % len(later)],
                                lambda k=f.fid: log.append((eng.now, "echo", k)))
            else:
                submit(0.0, p, arg, c)

    def submit(arrival, p, nbytes, c):
        net.submit(
            [links[i] for i in _PATHS[p]], nbytes, _RATE_CAPS[caps[c % len(caps)]],
            arrival, finished,
        )

    for spec in flows:
        submit(*spec)

    def post(k, target):
        if target >= eng.now:
            eng.post_at(target, lambda: log.append((eng.now, "marker", k)))

    for k, (src, dst) in enumerate(markers):
        # A marker posted at ``times[src]`` (or up front) for
        # ``times[dst]``: a finish instant of the plain run.
        target = times[dst % len(times)]
        if src is None:
            post(k, target)
        else:
            eng.post_at(times[src % len(times)], post, k, target)
    for at, early, p, nbytes, c in late:
        # A flow that arrives at a finish instant of the plain run, or one
        # float step before it, when the flow due then holds a residual
        # under the epsilon.
        t = times[at % len(times)]
        eng.post_at(math.nextafter(t, 0.0) if early else t, submit, 0.0, p, nbytes, c)
    if refresh is not None:
        at, i, factor = refresh

        def flap():
            log.append((eng.now, "refresh", i))
            links[i].capacity *= factor
            net.refresh([links[i]])

        eng.post_at(times[at % len(times)], flap)
    eng.run()
    return log, [link.bytes_carried for link in links]


_flow_specs = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1e-6, 2e-6, 3.3e-6, 5e-6]),  # latency
        st.integers(0, len(_PATHS) - 1),
        st.sampled_from([1000, 1500, 4096, 65536, 100_000]),
        st.integers(0, 2),
    ),
    min_size=1, max_size=24,
)
# Up to three caps per run (indices into _RATE_CAPS), so classes repeat.
_cap_specs = st.lists(
    st.integers(0, len(_RATE_CAPS) - 1), min_size=1, max_size=3, unique=True,
)
_marker_specs = st.lists(
    st.tuples(st.none() | st.integers(0, 63), st.integers(0, 63)), max_size=8,
)
_refresh_specs = st.none() | st.tuples(
    st.integers(0, 63), st.integers(0, len(_CAPACITIES) - 1),
    st.sampled_from([0.5, 2.0, 0.3, 1.7]),
)
_late_specs = st.lists(
    st.tuples(
        st.integers(0, 63), st.booleans(), st.integers(0, len(_PATHS) - 1),
        st.sampled_from([1000, 65536]), st.integers(0, 2),
    ),
    max_size=3,
)


class _CensusChecked(FairShareNetwork):
    """``FairShareNetwork`` that checks its class census and each link's
    classes against the live flows after every rebalance. Each event that
    adds or removes a live flow ends in a rebalance."""

    def __init__(self, engine):
        super().__init__(engine)
        self.touched = set()  # every link a rebalanced flow crossed

    def _rebalance(self, seed, parts=None):
        super()._rebalance(seed, parts)
        live = [f for f in self.active if f.path]
        # Plain dicts: a class counted down to zero must be gone.
        assert self._census == dict(Counter((f.path, f.rate_cap) for f in live))
        self.touched.update(seed.path)
        for link in self.touched:
            assert link.classes.keys() == {f.key for f in link.flows}


def _one_component(flows, links, census):
    """Whether a solve's input is one whole connected component: its
    flows connected through the links they share, its links theirs and
    holding no other flow, and its census theirs."""
    flows = set(flows)
    if set(links) != {link for f in flows for link in f.path}:
        return False
    if any(link.flows - flows for link in links):
        return False
    if census != Counter(f.key for f in flows):
        return False
    reached = set(list(flows)[:1])
    todo = list(reached)
    while todo:
        links = set(todo.pop().path)
        for g in flows - reached:
            if links.intersection(g.path):
                reached.add(g)
                todo.append(g)
    return reached == flows


class _WalkCounted(set):
    """A component's flows, counting how often the solver walks them."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_flow_specs, _cap_specs, _marker_specs, _refresh_specs, _late_specs)
# Two flows on l0 at its headroom margin, one ulp outside and inside it,
# and at its full capacity.
@example([(0.0, 0, 1000, 0), (0.0, 0, 4096, 0)], [4], [], None, [])
@example([(0.0, 0, 1000, 0), (0.0, 0, 4096, 0)], [5], [], None, [])
@example([(0.0, 0, 1000, 0), (0.0, 0, 4096, 0)], [6], [], None, [])
@example([(0.0, 0, 1000, 0), (0.0, 0, 4096, 0)], [3], [], None, [])
# An arrival on l0 whose own link l4 bounds it below its cap.
@example([(0.0, 0, 4096, 0), (1e-6, 8, 1000, 0)], [2], [], None, [])
# A loose flow and a two-flow cohort, each finished by an arrival one
# float step before it is due; the cohort forms while l0 is contended
# and two of its members finish together.
@example([(0.0, 0, 1000, 0), (0.0, 0, 100_000, 0)], [2], [], None,
         [(0, True, 0, 1000, 0)])
@example([(0.0, 0, 1000, 0)] * 2 + [(0.0, 0, 100_000, 0)] * 2, [2], [], None,
         [(1, True, 0, 1000, 0)])
# A refresh that doubles l0 under two flows it held below their caps.
@example([(0.0, 0, 1000, 0)] + [(0.0, 0, 100_000, 0)] * 2, [1], [], (0, 0, 2.0), [])
# 66 retirements, with flows of two classes left on l0 and l1 (past the
# 64 after which a union-find component index used to rebuild).
@example([(0.0, 0, 1000, 0)] * 66 + [(0.0, 1, 100_000, 1), (0.0, 0, 100_000, 0)] * 2,
         [0, 3], [], None, [])
# A lone flow posts its finish at its arrival (1 us): one marker posted at
# set-up, before that, and one posted at 3 us, after it, share its finish
# instant, and it fires between them.
@example([(1e-6, 0, 4096, 0), (0.0, 3, 1000, 0)], [0], [(None, 1), (0, 1)], None, [])
# A posted finish that a later arrival contends: its entry is withdrawn
# and the flow goes through the finish queue.
@example([(0.0, 0, 4096, 0), (1e-6, 0, 1000, 0)], [0], [], None, [])
# A posted finish that the early-finish sweep takes first: an arrival one
# float step before its due finds it drained, in a solve (cap 2e9) and in
# an uncontended settle (cap 3e8).
@example([(0.0, 0, 1000, 0)], [0], [], None, [(0, True, 0, 1000, 0)])
@example([(0.0, 0, 1000, 0)], [2], [], None, [(0, True, 0, 1000, 0)])
# Three flows of one class on l0: the third arrival contends, the first
# finish still counts three flows, and the second finish settles without
# a solve one ulp inside the headroom margin (cap 6) but not one ulp
# outside it (cap 5).
@example([(0.0, 0, 100_000, 0), (0.0, 0, 65536, 0), (0.0, 0, 4096, 0)], [6], [], None, [])
@example([(0.0, 0, 100_000, 0), (0.0, 0, 65536, 0), (0.0, 0, 4096, 0)], [5], [], None, [])
def _cohorts_match_per_flow(flows, caps, markers, refresh, late):
    plain, _ = _drive(PerFlowNetwork, flows, caps, (), None, [0.0])
    times = sorted({t for t, _, _ in plain})
    want = _drive(PerFlowNetwork, flows, caps, markers, refresh, times, late)
    got = _drive(_CensusChecked, flows, caps, markers, refresh, times, late)
    assert got == want
    assert sum(1 for _, kind, _ in got[0] if kind == "finish") == len(flows) + len(late)


def test_property_cohorts_match_per_flow_rescheduling(monkeypatch):
    """The cohort network matches the per-flow one float for float, its
    class census and link classes match its flows after every rebalance,
    and it solves one component at a time."""
    solve = fairshare.maxmin_rates
    mixed = [0]

    def counted(flows, links, census):
        # Each solve is of one connected component, never of two apart.
        assert _one_component(flows, links, census)
        # The solver walks the flows only for a cap round that fixes
        # different caps: the census cannot give their fid order.
        flows = _WalkCounted(flows)
        rates = solve(flows, links, census)
        mixed[0] += flows.walks > 0
        return rates

    monkeypatch.setattr(fairshare, "maxmin_rates", counted)
    _cohorts_match_per_flow()
    assert mixed[0] >= 20, mixed


_echo_specs = st.lists(st.tuples(st.integers(0, 23), st.integers(0, 7)), max_size=8)
_spawn_specs = st.lists(
    st.tuples(st.integers(0, 23), st.sampled_from([1000, 4096, 65536]), st.integers(0, 2)),
    max_size=3,
)
# The contended alltoall's shape: 16 flows of one class arrive in one bucket
# and finish at one instant, beside a longer flow on l0 and l1 whose rate
# each of them moves.
_SIXTEEN = [(1e-6, 0, 4096, 0)] * 16 + [(0.0, 1, 100_000, 0)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_flow_specs, _cap_specs, _echo_specs, _spawn_specs, _late_specs)
# Every one of the sixteen echoes the next finish instant from its
# callback, inside the cascade, where the long flow's due is.
@example(_SIXTEEN, [0], [(k, 0) for k in range(16)], [], [])
# ... and a spawn joins the sixteen's class mid-cascade.
@example(_SIXTEEN, [0], [(k, j) for k in range(0, 16, 3) for j in (0, 1)],
         [(4, 4096, 0), (9, 1000, 1)], [])
# A cap-limited cascade: the long flow reaches its 3e8 cap while the
# sixteen leave, so its rate stops moving partway through.
@example(_SIXTEEN[:16] + [(0.0, 1, 100_000, 1)], [0, 2],
         [(k, 0) for k in range(16)], [(15, 65536, 1)], [])
# Two short flows finish in one cascade, and each moves the rate of a
# cohort of sixteen formed earlier; the second echoes the cohort's due
# instant between its two moves, so the cohort's finishes come after it.
@example([(0.0, 0, 65536, 0)] * 16 + [(0.0, 1, 4096, 0)] * 2, [0], [(16, 0), (17, 0)],
         [], [])
# A cap-limited cascade: three short flows leave a cohort of two at one
# instant. The first two departures move its rate, the second to its 3e8
# cap, and the third does not; the third's echo comes after the cohort's
# last move, so the cohort's finishes come before it.
@example([(0.0, 0, 65536, 1)] * 2 + [(0.0, 1, 4096, 0)] * 3, [0, 2],
         [(2, 0), (3, 0), (4, 0)], [], [])
# An arrival at the sixteen's finish instant, ahead of their finishes,
# moves the long flow's rate down; the cascade's first departure moves it
# back to where it was, and the others move it on.
@example(_SIXTEEN, [0], [(0, 0), (15, 0)], [], [(0, False, 0, 4096, 0)])
# Flow 2 arrives after flows 1 and 3 and joins their cohort: it goes in
# by fid, not at the end, or flows 2 and 3 finish in swapped order.
@example([(0.0, 0, 1000, 0), (1e-6, 0, 1000, 0), (0.0, 0, 1500, 0)], [0], [], [], [])
def _callbacks_match_per_flow(flows, caps, echoes, spawns, late):
    plain, _ = _drive(PerFlowNetwork, flows, caps, (), None, [0.0])
    times = sorted({t for t, _, _ in plain})
    want = _drive(PerFlowNetwork, flows, caps, (), None, times, late, echoes, spawns)
    got = _drive(_CensusChecked, flows, caps, (), None, times, late, echoes, spawns)
    assert got == want
    finishes = sum(1 for _, kind, _ in got[0] if kind == "finish")
    assert finishes == len(flows) + len(late) + len(spawns)


def test_property_callbacks_in_a_cascade_match_per_flow():
    """Finish callbacks that post at a live flow's due instant, or submit a
    flow into its component, between the steps of a finish cascade: the
    network settles each instant once, and still matches the per-flow one
    float for float."""
    _callbacks_match_per_flow()


def _script_equal_flows(network_cls, n):
    """``n`` equal flows on one link, submitted at once: they finish at one
    instant, in one cascade."""
    eng = Engine()
    net = network_cls(eng)
    link = Link("l", 1e9)
    log = []
    for _ in range(n):
        net.submit([link], 1000, 1e12, 0.0, lambda f: log.append((eng.now, f.fid)))
    eng.run()
    return log, link.bytes_carried


def _script_lone_flow_refresh(network_cls, flap_at):
    """A lone 1000 B flow due at 1 us; a capacity flap at ``flap_at``,
    posted before the flow is scheduled, refreshes its link."""
    eng = Engine()
    net = network_cls(eng)
    link = Link("l", 1e9)
    log = []

    def flap():
        log.append(("flap", eng.now))
        link.capacity *= 2.0
        net.refresh([link])

    eng.post_at(flap_at, flap)
    net.submit([link], 1000, 1e12, 0.0, lambda f: log.append(("a", eng.now)))
    eng.run()
    return (log, link.bytes_carried, eng.pending()), net


def _script_spliced_rescheduled(network_cls):
    """A flow whose due time rounds down holds 0.125 B at its due instant.
    An arrival posted there before it was scheduled runs first in that
    epoch, halves its rate, and so reschedules it instead of finishing it."""
    eng = Engine()
    net = network_cls(eng)
    link = Link("l", 3e9)
    log = []
    nbytes = 1_000_000_000_000_007
    due = nbytes / 3e9
    eng.post_at(due, lambda: net.submit(
        [link], 1000, 1e12, 0.0, lambda f: log.append(("b", eng.now))))
    net.submit([link], nbytes, 1e12, 0.0, lambda f: log.append(("a", eng.now)))
    eng.run()
    return (log, link.bytes_carried, eng.pending()), net


def _script_class_after_flap(network_cls):
    """Two 1000 B flows of one class share a link; a flap halves its
    capacity while they run. A third flow of the class arrives at 10 us,
    once they are gone, alone on the link."""
    eng = Engine()
    net = network_cls(eng)
    link = Link("l", 1e9)
    log = []

    def flap():
        log.append(("flap", eng.now))
        link.capacity *= 0.5
        net.refresh([link])

    def submit(name):
        net.submit([link], 1000, 1e12, 0.0, lambda f: log.append((name, eng.now)))

    submit("a")  # alone on arrival: its class's lone rate is 1 GB/s
    submit("b")
    eng.post_at(0.5e-6, flap)
    eng.post_at(10e-6, submit, "c")
    eng.run()
    return (log, link.bytes_carried, eng.pending()), net


def _drained(net):
    """Nothing left scheduled, and the stale-entry count balanced."""
    return not net.pending_flows() and not net.queue and net._stale == 0


class TestPerClassRescheduling:
    def test_lone_flow_finished_by_a_refresh_in_its_epoch(self):
        # The flap runs before the flow's posted finish; its refresh finds
        # the lone flow drained and finishes it, withdrawing the entry.
        got, net = _script_lone_flow_refresh(FairShareNetwork, 1e-6)
        assert got[0] == [("flap", 1e-6), ("a", 1e-6)] and _drained(net)
        assert got == _script_lone_flow_refresh(PerFlowNetwork, 1e-6)[0]

    def test_lone_flow_finished_by_a_refresh_just_before_its_due(self):
        # One float step before the due instant the residual is under the
        # epsilon: the refresh finishes the flow before its posted finish
        # fires, so that entry is withdrawn.
        at = math.nextafter(1e-6, 0.0)
        got, net = _script_lone_flow_refresh(FairShareNetwork, at)
        assert got[0] == [("flap", at), ("a", at)] and _drained(net)
        assert got == _script_lone_flow_refresh(PerFlowNetwork, at)[0]

    def test_spliced_finish_rescheduled_within_its_epoch(self):
        got, net = _script_spliced_rescheduled(FairShareNetwork)
        due = 1_000_000_000_000_007 / 3e9
        assert [name for name, _ in got[0]] == ["a", "b"]
        assert got[0][0][1] == due + 0.125 / 1.5e9
        assert got[2] == 0 and _drained(net)
        assert got == _script_spliced_rescheduled(PerFlowNetwork)[0]

    def test_lone_rate_follows_a_capacity_change(self):
        # The first arrival caches the class's lone rate at the full
        # capacity. The flap halves the capacity under two contending
        # flows, so the refresh solves and reads no lone rate; the later
        # arrival is alone and must get the halved rate, 500 MB/s.
        got, net = _script_class_after_flap(FairShareNetwork)
        assert got[0][-1] == ("c", 10e-6 + 1000 / 5e8) and _drained(net)
        assert got == _script_class_after_flap(PerFlowNetwork)[0]

    def test_pending_flows_lists_a_posted_finish(self):
        # A lone flow posts its finish into the engine at its arrival: it
        # holds no queue entry, but its finish is pending until it fires.
        eng = Engine()
        net = FairShareNetwork(eng)
        flow = net.submit([Link("l", 1e9)], 1000, 1e12, 0.0, lambda f: None)
        assert flow.entry is not None and not net.queue and eng.pending() == 1
        assert net.pending_flows() == {flow} and not _drained(net)
        eng.run(until=math.nextafter(1e-6, 0.0))
        assert net.pending_flows() == {flow} and not _drained(net)
        eng.run()
        assert flow.done and flow.entry is None and _drained(net)

    def test_pending_flows_lists_a_spliced_finish_before_it_fires(self):
        # Two contending flows finish through the queue at 2 us; an event
        # posted there first runs before their spliced entries fire.
        eng = Engine()
        net = FairShareNetwork(eng)
        link = Link("l", 1e9)
        seen = []
        eng.post_at(2e-6, lambda: seen.append(
            (net.pending_flows(), all(f.entry is not None for f in flows))))
        flows = [net.submit([link], 1000, 1e12, 0.0, lambda f: None) for _ in range(2)]
        assert all(f.entry is None for f in flows)
        eng.run()
        assert seen == [(set(flows), True)] and _drained(net)

    def test_pending_flows_lists_moved_then_queued_holders(self):
        # Two flows of one class form a cohort; a third flow, of another
        # class, arrives inside a run at 1 us. Until that instant settles,
        # the cohort and the arrival wait in the moved set; after it, the
        # cohort's head and the loose arrival hold the queue entries.
        eng = Engine()
        net = FairShareNetwork(eng)
        link = Link("l", 1e9)
        flows = [net.submit([link], n, 1e12, 0.0, lambda f: None) for n in (4000, 6000)]
        seen = []

        def look(label):
            kinds = sorted(type(h).__name__ for h in net._moved)
            queued = sorted((e[2].fid, e[2].cohort is None) for e in net.queue
                            if e[2].stamp == e[1])
            seen.append((label, net.pending_flows() == set(flows), kinds, queued))

        eng.post_at(1e-6, lambda: flows.append(
            net.submit([link], 1000, 2e12, 0.0, lambda f: None)))
        eng.post_at(1e-6, look, "moved")
        eng.post_at(1.5e-6, look, "queued")
        assert repr(link) == "<Link l cap=1.0GB/s n=2>"
        eng.run()
        assert seen == [
            ("moved", True, ["Flow", "_Cohort"], []),
            ("queued", True, [], [(1, False), (3, True)]),
        ]
        assert [f.finish_time for f in flows] == [9e-06, 1.1e-05, 4e-06]
        assert _drained(net) and repr(link) == "<Link l cap=1.0GB/s n=0>"

    def test_push_head_skips_members_that_left(self):
        net = FairShareNetwork(Engine())
        link = Link("l", 1e9)
        f1, f2, f3 = (Flow(fid, [link], 1000, 1e12, None) for fid in (1, 2, 3))
        c = _Cohort(f1.key)
        c.flows = [f1, None, f3]  # the second member finished early
        c.dues, c.stamps = [3e-6, 1e-6, 2e-6], [11, 12, 13]
        c.order, c.pos = [1, 2, 0], 0
        net._push_head(c)
        assert c.pos == 1 and net.queue == [(2e-6, 13, f3)]
        assert (f3.due, f3.stamp) == (2e-6, 13) and f2.stamp == 0
        c.flows = [None, None, None]
        c.pos = 2
        net._push_head(c)  # nobody left to queue
        assert c.pos == 3 and len(net.queue) == 1

    def test_merge_joins_cohorts_and_loose_flows_by_fid(self):
        net = FairShareNetwork(Engine())
        link = Link("l", 1e9)
        flows = [Flow(fid, [link], 1000, 1e12, None) for fid in range(1, 6)]
        key = flows[0].key
        held = net._holders.setdefault(key, {})

        def cohort(members):
            c = _Cohort(key)
            c.flows, c.rems, c.rate = list(members), [1000.0 - f.fid for f in members], 1e9
            for f in members:
                f.cohort = c
            held[c] = None
            return c

        big, small = cohort([flows[0], flows[3], flows[4]]), cohort([flows[1]])
        loose = flows[2]
        loose.remaining, loose.stamp = 997.0, -1
        held[loose] = None
        merged = net._merge(key, [small, loose, big])
        assert merged is big and list(held) == [big]
        assert merged.flows == flows
        assert merged.rems == [999.0, 998.0, 997.0, 996.0, 995.0]
        assert all(f.cohort is big for f in flows) and loose.stamp == 0

    def test_a_thousand_flows_finish_in_one_cascade(self):
        # Each finish rebalances and finds the rest drained. Nested calls
        # overflowed the stack after 496 finishes; the worklist finishes
        # all 1,000, in fid order, at the one instant.
        log, _ = _script_equal_flows(FairShareNetwork, 1000)
        assert [fid for _, fid in log] == list(range(1, 1001))
        assert {t for t, _ in log} == {1e-3}

    def test_cascade_matches_per_flow(self):
        got = _script_equal_flows(FairShareNetwork, 300)
        assert len(got[0]) == 300
        assert got == _script_equal_flows(PerFlowNetwork, 300)

    # Structural: counts, not time, on the 32-rank 64 KiB alltoall
    # (perfbench's alltoall-contended cell). The counts come from
    # tests/test_counters.py's counted run and the values from its row in
    # tests/golden/counters.json, so each lives in one place.

    @pytest.fixture(scope="class")
    def contended_alltoall(self):
        """(counted, golden) rows of the contended alltoall cell."""
        from tests.test_counters import CELLS, GOLDEN, _counted_run

        cell = "alltoall-contended/alltoall-64KiB-32r"
        return (_counted_run(CELLS[cell]),
                json.loads(GOLDEN.read_text())["cells"][cell])

    def test_contended_alltoall_finish_queue_pushes(self, contended_alltoall):
        # Only each cohort's earliest finisher enters the finish queue, and
        # a rate moved by a rebalance is rescheduled once, at the settle of
        # its instant (1,022 pushes). It pushed 1,982 while every
        # rebalance rescheduled the rates it moved, and 127,712 flow by
        # flow (one per flow reschedule).
        got, want = contended_alltoall
        assert got["net.queue_pushes"] == want["net.queue_pushes"]

    def test_contended_alltoall_per_flow_dues(self, contended_alltoall):
        # About nine per-flow due times per flow (8,674): each flow
        # is rescheduled once at the settle of each instant that moved its
        # rate. Rescheduling at every rebalance computed 127,712, since each
        # of the 16 arrivals or departures of a group moved the rates of
        # the whole component again.
        got, want = contended_alltoall
        assert got["net.dues"] == want["net.dues"]

    def test_contended_alltoall_solves_per_class(self, contended_alltoall):
        # Each contended rebalance is solved from its component's class
        # census; the per-flow entry, which groups flows into classes
        # itself, is never called.
        got, want = contended_alltoall
        assert got["net.per_flow_solves"] == 0
        assert got["net.solves"] == want["net.solves"]


def _script_rebuild_at_finish(network_cls, fillers):
    """Flow X (10 B on links A and B) and flow Y (100 B on B) share B at
    10 B/s; ``fillers`` one-byte flows on a fast link C retire first. X's
    finish leaves its links in two components: A, empty, and B, with Y.
    (A union-find index of components, rebuilt after 64 retirements, once
    split them at exactly this finish.)"""
    eng = Engine()
    net = network_cls(eng)
    a, b, c = Link("A", 10.0), Link("B", 10.0), Link("C", 1e6)
    log = []
    net.submit([a, b], 10, 1e9, 0.0, lambda f: log.append(("X", eng.now)))
    net.submit([b], 100, 1e9, 0.0, lambda f: log.append(("Y", eng.now)))
    for _ in range(fillers):
        net.submit([c], 1, 1e9, 0.0, lambda f: None)
    eng.run()
    return log, b.bytes_carried


class TestUncontendedSettle:
    """Rebalances in which no rate can move skip the solve."""

    @pytest.mark.parametrize("fillers", [63, 64, 65])
    def test_finish_rebalances_every_component_of_its_links(self, fillers):
        # Y speeds up to all of B when X finishes at 2 s, and so finishes
        # at 2 + 90 / 10 s, however many flows retired before.
        got = _script_rebuild_at_finish(FairShareNetwork, fillers)
        assert got[0] == [("X", 2.0), ("Y", 11.0)]
        assert got == _script_rebuild_at_finish(PerFlowNetwork, fillers)

    @pytest.mark.parametrize("cap, settled", [
        (4, True),    # n * cap at the headroom margin
        (6, True),    # one ulp inside it
        (5, False),   # one ulp outside it
        (3, False),   # n * cap at the link's full capacity
    ])
    def test_headroom_margin(self, monkeypatch, cap, settled):
        # Two flows on l0: the second arrival and the first finish each
        # settle without a solve only if l0 has room for both caps.
        solves = []
        solve = FairShareNetwork._solve
        monkeypatch.setattr(FairShareNetwork, "_solve",
                            lambda net, *a: (solves.append(a), solve(net, *a)))
        _drive(FairShareNetwork, [(0.0, 0, 1000, 0), (0.0, 0, 4096, 0)], [cap],
               [], None, [0.0])
        assert len(solves) == (0 if settled else 2)

    def test_path_crossing_a_link_twice_is_solved(self):
        # Counted by flows, the link has room for both 1e9 caps. Counted by
        # crossings it carries three, so once b arrives each flow gets
        # 2.5e9 / 3.
        def run(network_cls):
            eng = Engine()
            net = network_cls(eng)
            link = Link("l", 2.5e9)
            log = []
            net.submit([link, link], 100_000, 1e9, 0.0, lambda f: log.append(("a", eng.now)))
            net.submit([link], 100_000, 1e9, 1e-6, lambda f: log.append(("b", eng.now)))
            eng.run()
            return log, link.bytes_carried

        got = run(FairShareNetwork)
        assert got == run(PerFlowNetwork)
        assert got[0][0][1] > 1e-6 + 99_000 / 1e9

    def test_lone_flow_crossing_a_link_twice_gets_half_of_it(self):
        # Alone on the link, the flow crosses it twice, so each crossing
        # takes half of its capacity: it finishes when the reference's rate
        # says, not at the link's full capacity.
        link = Link("l", 1e9)
        rate = maxmin_rates_reference([Flow(1, [link, link], 1000, 1e12, None)], [link])
        assert list(rate.values()) == [5e8]

        def run(network_cls):
            eng = Engine()
            net = network_cls(eng)
            log = []
            net.submit([link, link], 1000, 1e12, 0.0, lambda f: log.append(eng.now))
            eng.run()
            return log

        assert run(FairShareNetwork) == [1000 / 5e8]
        assert run(PerFlowNetwork) == [1000 / 5e8]

    def test_finish_beside_a_flow_crossing_a_link_twice_is_solved(self):
        # Two flows of one class cross the link twice each, at 2.5e9 / 4.
        # Counted by flows the link has room for both 1e9 caps; counted by
        # crossings it has not, so the first finish must lift the second to
        # its cap.
        def run(network_cls):
            eng = Engine()
            net = network_cls(eng)
            link = Link("l", 2.5e9)
            log = []
            for nbytes in (1000, 100_000):
                net.submit([link, link], nbytes, 1e9, 0.0, lambda f: log.append(eng.now))
            eng.run()
            return log, link.bytes_carried

        got = run(FairShareNetwork)
        assert got == run(PerFlowNetwork)
        assert got[0] == [1000 / 6.25e8, pytest.approx(1000 / 6.25e8 + 99_000 / 1e9)]

    def test_every_solve_is_one_component(self, monkeypatch):
        # X crosses A, B and C; W shares A with it and Z shares C. X's
        # finish leaves W and Z in two components, each solved on its own.
        solved = []
        solve = fairshare.maxmin_rates

        def checked(flows, links, census):
            assert _one_component(flows, links, census)
            solved.append(sorted(f.fid for f in flows))
            return solve(flows, links, census)

        monkeypatch.setattr(fairshare, "maxmin_rates", checked)

        def run(network_cls):
            eng = Engine()
            net = network_cls(eng)
            a, b, c = Link("A", 1e9), Link("B", 1e9), Link("C", 1e9)
            log = []
            for name, path, nbytes in (("W", [a], 100_000), ("X", [a, b, c], 1000),
                                       ("Z", [c], 100_000)):
                net.submit(path, nbytes, 1e12, 0.0,
                           lambda f, name=name: log.append((name, eng.now)))
            eng.run()
            return log

        got = run(FairShareNetwork)
        assert solved == [[1, 2], [1, 2, 3], [1], [3]]
        assert got == run(PerFlowNetwork)
        assert got == [("X", 2e-6), ("W", 2e-6 + 99e-6), ("Z", 2e-6 + 99e-6)]

    def test_refresh_raising_capacity_lifts_contended_rates(self):
        # Two flows capped at 7e8 share a 1e9 link at 5e8 each. Doubling
        # the link 10 us in gives each its cap: the 5,000 B drained so far
        # leave 95,000 B at 7e8.
        def run(network_cls):
            eng = Engine()
            net = network_cls(eng)
            link = Link("l", 1e9)
            log = []

            def flap():
                link.capacity *= 2.0
                net.refresh([link])

            eng.post_at(1e-5, flap)
            for _ in range(2):
                net.submit([link], 100_000, 7e8, 0.0, lambda f: log.append(eng.now))
            eng.run()
            return log, link.bytes_carried

        got = run(FairShareNetwork)
        assert got == run(PerFlowNetwork)
        assert got[0] == [pytest.approx(1e-5 + 95_000 / 7e8, rel=1e-12)] * 2

    def test_intra_socket_bcast_needs_no_solve(self, monkeypatch):
        # Structural, like the finish-queue pin: counts, not time. A 32-rank
        # 4 MiB cori bcast keeps its intra-socket pipelines uncontended, so
        # every rebalance that is not of a lone flow settles without a solve
        # (30 solves and 1,876 shape-cache lookups before the uncontended
        # settle).
        from repro.harness.runner import run_collective
        from repro.machine import for_ranks

        solves = [0]
        solve = fairshare.maxmin_rates

        def counted_solve(*args):
            solves[0] += 1
            return solve(*args)

        monkeypatch.setattr(fairshare, "maxmin_rates", counted_solve)
        res = run_collective(
            for_ranks("cori", 32), 32, "OMPI-adapt", "bcast", nbytes=4 << 20,
            iterations=1,
        )
        assert res.mean_time > 0.0
        assert solves == [0]
