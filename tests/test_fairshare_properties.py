"""Property-based tests on the max-min fair allocator and flow dynamics."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.runner import run_collective
from repro.machine import for_ranks
from repro.network import FairShareNetwork, Flow, Link, fairshare
from repro.network.fairshare import maxmin_rates, maxmin_rates_reference
from repro.sim import Engine


def _by_census(flows, links):
    """The network's entry: the flows as a set, with their class census,
    give one rate per ``(path, rate_cap)`` class, expanded here per flow."""
    census = Counter((f.path, f.rate_cap) for f in flows)
    rates = maxmin_rates(set(flows), links, census)
    assert len(rates) == len(census)
    return {f: rates[(f.path, f.rate_cap)] for f in flows}


#: Both entries to the class solver: the per-flow one and the network's.
#: Each must be bit-for-bit the reference allocation.
_VARIANTS = [maxmin_rates, _by_census]


def build_scenario(link_caps, flow_specs):
    """links from capacities; flows from (path indices, cap) pairs."""
    links = [Link(f"l{i}", c) for i, c in enumerate(link_caps)]
    flows = []
    for fid, (path_idx, cap) in enumerate(flow_specs):
        path = [links[i] for i in sorted(set(path_idx))]
        f = Flow(fid, path, 1000, cap, on_complete=lambda fl: None)
        flows.append(f)
        for l in path:
            l.flows.add(f)
    return links, flows


caps = st.floats(min_value=1e8, max_value=1e11, allow_nan=False)


@given(
    link_caps=st.lists(caps, min_size=1, max_size=5),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_property_maxmin_invariants(link_caps, data):
    nlinks = len(link_caps)
    nflows = data.draw(st.integers(min_value=1, max_value=8))
    flow_specs = []
    for _ in range(nflows):
        path = data.draw(
            st.lists(st.integers(0, nlinks - 1), min_size=1, max_size=nlinks)
        )
        cap = data.draw(caps)
        flow_specs.append((path, cap))
    links, flows = build_scenario(link_caps, flow_specs)
    rates = maxmin_rates(flows, links)

    # 1. Every flow got a rate, positive, never above its cap: the network
    # moves every flow it solves (it has no zero-rate parking).
    for f in flows:
        assert rates[f] > 0
        assert rates[f] <= f.rate_cap * (1 + 1e-9)

    # 2. No link is over capacity.
    for link in links:
        load = sum(rates[f] for f in flows if link in f.path)
        assert load <= link.capacity * (1 + 1e-6)

    # 3. Work conservation / max-min optimality witness: a flow below its
    # cap must be *blocked* — it crosses at least one saturated link where
    # it is among the maximal-rate flows (else its rate could be raised,
    # contradicting max-min fairness).
    for f in flows:
        if rates[f] >= f.rate_cap * (1 - 1e-6):
            continue
        blocked = False
        for link in f.path:
            load = sum(rates[g] for g in flows if link in g.path)
            if load >= link.capacity * (1 - 1e-6):
                max_rate_on_link = max(rates[g] for g in flows if link in g.path)
                if rates[f] >= max_rate_on_link * (1 - 1e-6):
                    blocked = True
                    break
        assert blocked, f"flow {f.fid} rate {rates[f]} could be increased"


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=200_000), min_size=1, max_size=12),
    cap=st.floats(min_value=1e8, max_value=1e10),
    stagger_ns=st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_property_shared_link_conserves_work(sizes, cap, stagger_ns):
    """However flows share one link, total completion time >= total bytes /
    capacity, and all bytes are delivered."""
    eng = Engine()
    net = FairShareNetwork(eng)
    link = Link("l", cap)
    done = []
    for i, nbytes in enumerate(sizes):
        start = (stagger_ns[i % len(stagger_ns)]) * 1e-9
        eng.call_at(
            start,
            lambda nb=nbytes: net.submit(
                [link], nb, 1e15, 0.0, lambda f: done.append(f)
            ),
        )
    eng.run()
    assert len(done) == len(sizes)
    total_bytes = sum(sizes)
    assert eng.now >= total_bytes / cap * (1 - 1e-6)
    for f in done:
        assert f.remaining <= 1e-6


@given(
    n_a=st.integers(min_value=1, max_value=6),
    n_b=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=30, deadline=None)
def test_property_disjoint_links_dont_interact(n_a, n_b):
    """Flows on link A finish at the same times whether or not link B has
    traffic — component-local rebalancing must be exact."""

    def run(with_b):
        eng = Engine()
        net = FairShareNetwork(eng)
        la, lb = Link("a", 1e9), Link("b", 1e9)
        times_a = []
        for _ in range(n_a):
            net.submit([la], 50_000, 1e15, 0.0, lambda f: times_a.append(eng.now))
        if with_b:
            for _ in range(n_b):
                net.submit([lb], 30_000, 1e15, 0.0, lambda f: None)
        eng.run()
        return times_a

    assert run(False) == pytest.approx(run(True))


@given(
    link_caps=st.lists(caps, min_size=1, max_size=5),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_property_optimized_matches_reference(link_caps, data):
    """The optimized allocator is bit-for-bit the reference allocation —
    same floats, not approximately equal (this is what makes the parallel
    sweep results byte-identical)."""
    nlinks = len(link_caps)
    nflows = data.draw(st.integers(min_value=1, max_value=10))
    flow_specs = []
    for _ in range(nflows):
        path = data.draw(
            st.lists(st.integers(0, nlinks - 1), min_size=1, max_size=nlinks)
        )
        flow_specs.append((path, data.draw(caps)))
    links, flows = build_scenario(link_caps, flow_specs)
    assert maxmin_rates(flows, links) == maxmin_rates_reference(flows, links)


def _fuzz_component(rng, nflows, nlinks):
    links = [Link(f"l{i}", rng.uniform(1e8, 1e10)) for i in range(nlinks)]
    flows = []
    for fid in range(nflows):
        # Deliberately include duplicate links in some paths and leave some
        # links unused: both are edge cases the allocator must count right.
        path = [rng.choice(links) for _ in range(rng.randint(1, 4))]
        f = Flow(fid, path, 1000, rng.uniform(1e6, 1e10), lambda fl: None)
        flows.append(f)
        for link in set(path):
            link.flows.add(f)
    return flows, links


@pytest.mark.parametrize("variant", _VARIANTS)
@pytest.mark.parametrize("nflows,nlinks", [(3, 2), (40, 8), (150, 16)])
def test_all_variants_match_reference(variant, nflows, nlinks):
    """Random components at several sizes, one flow per class almost
    always (every flow draws its own cap)."""
    rng = random.Random(nflows * 1000 + nlinks)
    for _ in range(25):
        flows, links = _fuzz_component(rng, nflows, nlinks)
        assert variant(flows, links) == maxmin_rates_reference(flows, links)


def _alltoall_component(nflows, nlinks):
    """A component shaped like the 128-rank alltoall's 4K+ flow ones:
    thousands of flows over a handful of shared links, each flow crossing
    three of them, with a few distinct rate caps (one class capped below
    its fair share, so both the cap and the bottleneck branch fix flows)."""
    rng = random.Random(4200)
    links = [Link(f"l{i}", 1e10 * (1 + i % 3)) for i in range(nlinks)]
    flows = []
    for fid in range(nflows):
        path = rng.sample(links, 3)
        f = Flow(fid, path, 1 << 16, rng.choice([4e6, 4e9, 8e9, 1.2e10]), lambda fl: None)
        flows.append(f)
        for link in path:
            link.flows.add(f)
    return flows, links


@pytest.mark.parametrize("variant", _VARIANTS)
def test_variants_match_reference_large_component(variant):
    """512+ flow components, and one at the 4K+ size of a 128-rank
    alltoall's components, where thousands of flows fall into a few
    classes and the heap's lazy invalidation and round batching engage."""
    rng = random.Random(99)
    components = [_fuzz_component(rng, 520 + 8 * trial, 24) for trial in range(3)]
    components.append(_alltoall_component(4200, 7))
    for flows, links in components:
        assert variant(flows, links) == maxmin_rates_reference(flows, links)


@pytest.mark.parametrize("variant", _VARIANTS)
def test_variants_single_flow_component(variant):
    """One flow, cap-limited and link-limited — the smallest component."""
    for caps, spec in [
        ([1e9], ([0], 5e8)),  # rate-cap is the bottleneck
        ([1e8], ([0], 1e15)),  # link capacity is the bottleneck
    ]:
        links, flows = build_scenario(caps, [spec])
        assert variant(flows, links) == maxmin_rates_reference(flows, links)


@pytest.mark.parametrize("variant", _VARIANTS)
def test_variants_zero_capacity_link(variant):
    """The Link constructor rejects non-positive capacities and no fault
    zeroes one (a flap keeps a factor in (0, 1]), so the network never
    solves such a link; the pure solver still gives the flows crossing it
    rate 0 and the others their fair share."""
    links, flows = build_scenario(
        [1e9, 1e9],
        [([0], 1e8), ([0, 1], 1e9), ([1], 5e8), ([1], 2e8)],
    )
    links[0].capacity = 0.0
    ref = maxmin_rates_reference(flows, links)
    assert variant(flows, links) == ref
    assert ref[flows[0]] == 0.0 and ref[flows[1]] == 0.0
    assert ref[flows[2]] > 0.0 and ref[flows[3]] > 0.0


def _class_component(rng, nflows):
    """A component whose flows fall into a few ``(path, rate_cap)`` classes.

    Flows draw from 1-5 paths and 1-4 caps. Some paths repeat a link, and
    some components hold a zero-capacity link. Half the cap pools sit below
    the links' fair share, so one cap round can fix classes of different
    caps that share a link.
    """
    nlinks = rng.randint(1, 6)
    # Round capacities tie link shares; random ones make fid order matter.
    links = [
        Link(f"l{i}", rng.choice([1e9, 2e9, rng.uniform(1e9, 1e10)]))
        for i in range(nlinks)
    ]
    if rng.random() < 0.2:
        links[rng.randrange(nlinks)].capacity = 0.0
    paths = []
    for _ in range(rng.randint(1, 5)):
        path = [rng.choice(links) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            path.append(path[0])  # a link crossed twice
        paths.append(path)
    if rng.random() < 0.5:
        low = 1e9 / max(nflows, 1)  # below the fair share on a busy link
        pool = [low * rng.uniform(0.2, 1.0) for _ in range(rng.randint(2, 4))]
    else:
        pool = [rng.choice([1e8, 5e8, 1e9, 1e15]) for _ in range(rng.randint(1, 4))]
    fids = rng.sample(range(10 * nflows), nflows)  # classes interleave by fid
    flows = []
    for fid in fids:
        f = Flow(fid, rng.choice(paths), 1000, rng.choice(pool), lambda fl: None)
        flows.append(f)
        for link in f.path:
            link.flows.add(f)
    return flows, links


def _mixed_cap_round(flows, links):
    """True if the reference's first round fixes two different caps that
    share a link (the case the solver subtracts flow by flow, in fid order)."""
    count = {link: sum(f.path.count(link) for f in flows) for link in links}
    shares = [link.capacity / n for link, n in count.items() if n]
    if not shares:
        return False
    fixed = [f for f in flows if f.rate_cap <= min(shares)]
    return any(
        len({f.rate_cap for f in fixed if link in f.path}) > 1 for link in links
    )


def test_class_heavy_components_match_reference():
    """Seeded differential fuzz on components of few classes and up to 300
    flows; the Hypothesis strategies above almost never repeat a class."""
    rng = random.Random(2018)
    seen = {"mixed_cap_round": 0, "duplicate_link": 0, "zero_capacity": 0}
    for _ in range(400):
        flows, links = _class_component(rng, rng.randint(1, 300))
        want = maxmin_rates_reference(flows, links)
        assert maxmin_rates(flows, links) == want
        assert _by_census(flows, links) == want
        seen["mixed_cap_round"] += _mixed_cap_round(flows, links)
        seen["duplicate_link"] += any(len(set(f.path)) < len(f.path) for f in flows)
        seen["zero_capacity"] += any(link.capacity == 0.0 for link in links)
    # The fuzz really reaches the three edge cases it exists for.
    assert min(seen.values()) >= 20, seen


def test_live_alltoall_components_match_reference(monkeypatch):
    """Every component a 16-rank 64 KiB ADAPT alltoall rebalances, also
    solved by the reference: the real class mix, not a synthetic one. Each
    solve's class rates, given to each flow of its class, are the
    reference's. A component settled without a solve (uncontended) is
    checked too: the reference gives each flow the rate it keeps, and an
    arriving flow the rate it was given."""
    solved = []
    settled = []

    def checked(flows, links, *census):
        rates = maxmin_rates(flows, links, *census)
        assert census, "the network solves from the class census"
        per_flow = {f: rates[(f.path, f.rate_cap)] for f in flows}
        assert per_flow == maxmin_rates_reference(list(flows), links)
        solved.append(len(flows))
        return rates

    keep_rates = FairShareNetwork._keep_rates

    def kept(net, seed, *args):
        if not keep_rates(net, seed, *args):
            return False
        # The kept component: the seed's class, whose flows all cross the
        # first link of its path.
        flows = sorted(seed.path[0].flows, key=lambda f: f.fid)
        links = sorted({link for f in flows for link in f.path}, key=lambda l: l.name)
        want = maxmin_rates_reference(flows, links)
        assert {f: f.cohort.rate if f.cohort else f.rate for f in flows} == want
        settled.append(len(flows))
        return True

    monkeypatch.setattr(fairshare, "maxmin_rates", checked)
    monkeypatch.setattr(FairShareNetwork, "_keep_rates", kept)
    res = run_collective(
        for_ranks("cori", 16), 16, "OMPI-adapt", "alltoall", nbytes=64 << 10,
        iterations=1,
    )
    assert res.mean_time > 0.0
    # Hundreds of components checked, the largest solve of 16 flows.
    assert len(solved) + len(settled) > 100 and max(solved) >= 16
    assert settled


def test_flow_rate_zero_parks_until_capacity_frees():
    # A flow capped at link capacity by earlier fixed flows still finishes.
    eng = Engine()
    net = FairShareNetwork(eng)
    link = Link("l", 1e9)
    done = []
    for i in range(20):
        net.submit([link], 100_000, 1e15, 0.0, lambda f: done.append(f.fid))
    eng.run()
    assert len(done) == 20
