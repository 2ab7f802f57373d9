"""Generator property suite: per-family invariants over a seeded size grid.

Each topology family ships with structural invariants its generator must
hold at *every* size, not just the defaults:

* fat-tree — every cross-leaf node pair has exactly ``spines`` equal-cost
  paths, and the leaf uplink capacity realizes full bisection at 1:1
  oversubscription;
* dragonfly — the group graph is connected and every group exports exactly
  its configured number of global links, with valid per-router port
  assignment;
* rail pod — NVLink islands are cliques, the per-slot rail assignment is
  the stable ``slot % rails`` map, and cross-node routes ride the source
  slot's rail.

The grid derives from ``--fuzz-seed`` (see conftest) like the fuzz sweep,
so one integer reproduces every shape tested. Route *semantics* (bit-exact
collectives over the compiled fabric) live in test_property_fuzz.py's
conformance leg; this file pins down the generators themselves.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.topo import (
    CompiledTopology,
    DragonflySpec,
    FatTreeSpec,
    RailPodSpec,
    compile_topo,
)
from repro.topo.dragonfly import global_edges
from repro.topo.fattree import equal_cost_paths

N_SHAPES = 12


def _chain_ok(topo: CompiledTopology, src: int, dst: int,
              path, src_ep: str, dst_ep: str) -> None:
    """A route must be a contiguous endpoint-to-endpoint link chain."""
    assert path, f"empty path {src}->{dst}"
    assert path[0].src == src_ep, f"{src}->{dst}: starts at {path[0].src}"
    assert path[-1].dst == dst_ep, f"{src}->{dst}: ends at {path[-1].dst}"
    for a, b in zip(path, path[1:]):
        assert a.dst == b.src, (
            f"{src}->{dst}: broken chain {a.name} -> {b.name}"
        )


def _sample_pairs(rng: random.Random, nodes: int, k: int = 40):
    if nodes * (nodes - 1) <= k:
        return [(a, b) for a in range(nodes) for b in range(nodes) if a != b]
    pairs = set()
    while len(pairs) < k:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            pairs.add((a, b))
    return sorted(pairs)


# -- fat-tree -----------------------------------------------------------------


def _fattree_shapes(seed: int) -> list[FatTreeSpec]:
    rng = random.Random(seed ^ 0xF47)
    shapes = []
    for _ in range(N_SHAPES):
        shapes.append(FatTreeSpec(
            leaves=rng.randint(2, 12),
            spines=rng.randint(1, 8),
            hosts_per_leaf=rng.randint(1, 6),
            oversubscription=rng.choice([1.0, 1.0, 2.0, 4.0]),
        ))
    return shapes


def test_fattree_equal_cost_path_count(fuzz_seed):
    """Every cross-leaf pair has exactly ``spines`` equal-cost paths; every
    same-leaf pair exactly one."""
    rng = random.Random(fuzz_seed ^ 0x1EAF)
    for spec in _fattree_shapes(fuzz_seed):
        topo = compile_topo(spec)
        for src, dst in _sample_pairs(rng, spec.nodes):
            paths = equal_cost_paths(topo, src, dst)
            same_leaf = src // spec.hosts_per_leaf == dst // spec.hosts_per_leaf
            want = 1 if same_leaf else spec.spines
            assert len(paths) == want, (
                f"{spec}: pair ({src},{dst}) has {len(paths)} paths, want {want}"
            )
            assert len(set(paths)) == len(paths), "duplicate ECMP members"
            for p in paths:
                _chain_ok(topo, src, dst, p, f"n{src}", f"n{dst}")
                assert len(p) == (2 if same_leaf else 4)
            # The deterministic route the fabric uses is an ECMP member.
            chosen = topo.node_path(src, dst)
            assert chosen in paths, f"route for ({src},{dst}) not in ECMP set"


def test_fattree_full_bisection_at_one_to_one(fuzz_seed):
    """At 1:1 oversubscription each leaf's aggregate uplink capacity equals
    its aggregate host injection capacity (full bisection); ratio r divides
    it by exactly r."""
    for spec in _fattree_shapes(fuzz_seed):
        host_aggregate = spec.hosts_per_leaf * spec.host_link.bandwidth
        uplink_aggregate = spec.spines * spec.uplink_bandwidth
        assert uplink_aggregate == pytest.approx(
            host_aggregate / spec.oversubscription
        )
    one_to_one = FatTreeSpec(leaves=4, spines=4, hosts_per_leaf=4,
                             oversubscription=1.0)
    assert 4 * one_to_one.uplink_bandwidth == pytest.approx(
        4 * one_to_one.host_link.bandwidth
    )


def test_fattree_link_inventory(fuzz_seed):
    for spec in _fattree_shapes(fuzz_seed):
        topo = compile_topo(spec)
        census = topo.link_census()
        assert census["host-up"] == census["host-down"] == spec.nodes
        assert census["leaf-up"] == census["leaf-down"] == (
            spec.leaves * spec.spines
        )
        assert len(topo.switches) == spec.leaves + spec.spines


# -- dragonfly ----------------------------------------------------------------


def _dragonfly_shapes(seed: int) -> list[DragonflySpec]:
    rng = random.Random(seed ^ 0xD4A)
    shapes = []
    while len(shapes) < N_SHAPES:
        g = rng.randint(2, 10)
        a = rng.randint(1, 5)
        p = rng.randint(1, 3)
        # Pick h large enough to connect, then fix parity like for_ranks.
        h = max(rng.randint(1, 4), -(-(g - 1) // a))
        if (g * a * h) % 2:
            h += 1
        shapes.append(DragonflySpec(
            groups=g, routers_per_group=a, hosts_per_router=p,
            global_per_router=h,
        ))
    return shapes


def test_dragonfly_group_graph_connected(fuzz_seed):
    """BFS over the compiled global plane reaches every group."""
    for spec in _dragonfly_shapes(fuzz_seed):
        adj: dict[int, set[int]] = {g: set() for g in range(spec.groups)}
        for ga, gb, _ in global_edges(spec):
            adj[ga].add(gb)
            adj[gb].add(ga)
        seen = {0}
        queue = deque([0])
        while queue:
            g = queue.popleft()
            for nb in adj[g]:
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        assert seen == set(range(spec.groups)), (
            f"{spec}: group graph disconnected, reached {sorted(seen)}"
        )


def test_dragonfly_exported_globals_per_group(fuzz_seed):
    """Each group exports exactly ``group_degree`` global link endpoints,
    and no router exports more than ``global_per_router``."""
    for spec in _dragonfly_shapes(fuzz_seed):
        topo = compile_topo(spec)
        per_group: dict[int, int] = {g: 0 for g in range(spec.groups)}
        per_router: dict[str, int] = {}
        for link in topo.links:
            if link.kind != "global":
                continue
            group = int(link.src[1:link.src.index("r")])
            per_group[group] += 1
            per_router[link.src] = per_router.get(link.src, 0) + 1
        # Each undirected global edge compiles to one directed link per
        # side, so out-links per group == exported endpoints.
        for g in range(spec.groups):
            assert per_group[g] == spec.group_degree, (
                f"{spec}: group {g} exports {per_group[g]}, "
                f"want {spec.group_degree}"
            )
        assert max(per_router.values()) <= spec.global_per_router


def test_dragonfly_routes_minimal_and_chained(fuzz_seed):
    """Every route is a valid chain crossing exactly one global link iff
    the endpoints sit in different groups (minimal routing)."""
    rng = random.Random(fuzz_seed ^ 0xD41)
    for spec in _dragonfly_shapes(fuzz_seed)[:6]:
        topo = compile_topo(spec)
        apr = spec.routers_per_group * spec.hosts_per_router
        for src, dst in _sample_pairs(rng, spec.nodes):
            path = topo.node_path(src, dst)
            _chain_ok(topo, src, dst, path, f"n{src}", f"n{dst}")
            kinds = [link.kind for link in path]
            globals_crossed = kinds.count("global")
            want = 0 if src // apr == dst // apr else 1
            assert globals_crossed == want, (
                f"{spec}: ({src},{dst}) crossed {globals_crossed} globals"
            )
            assert kinds.count("local") <= 2, f"non-minimal route {kinds}"
            assert kinds[0] == "host-up" and kinds[-1] == "host-down"


def test_dragonfly_spec_validation():
    with pytest.raises(ValueError, match="disconnect"):
        DragonflySpec(groups=8, routers_per_group=2, hosts_per_router=1,
                      global_per_router=1)  # degree 2 < 7 peers
    with pytest.raises(ValueError, match="odd"):
        DragonflySpec(groups=3, routers_per_group=3, hosts_per_router=1,
                      global_per_router=1)  # 9 ports cannot pair


# -- rail pod -----------------------------------------------------------------


def _railpod_shapes(seed: int) -> list[RailPodSpec]:
    rng = random.Random(seed ^ 0x9A1)
    from repro.machine.spec import GpuSpec, NodeSpec

    shapes = []
    for _ in range(N_SHAPES):
        sockets = rng.choice([1, 2])
        per_socket = rng.choice([1, 2, 4])
        gpus = sockets * per_socket
        rails = rng.choice([r for r in (1, 2, 4, 8) if gpus % r == 0])
        shapes.append(RailPodSpec(
            nodes=rng.randint(2, 6),
            rails=rails,
            node=NodeSpec(sockets=sockets, cores_per_socket=per_socket,
                          gpu=GpuSpec(gpus_per_socket=per_socket)),
        ))
    return shapes


def test_railpod_islands_are_cliques(fuzz_seed):
    """Every node's NVLink island holds a lane for every GPU pair."""
    for spec in _railpod_shapes(fuzz_seed):
        topo = compile_topo(spec)
        gpus = spec.gpus_per_node
        for node in range(spec.nodes):
            for a in range(gpus):
                for b in range(a + 1, gpus):
                    name = f"rp:n{node}:g{a}-g{b}"
                    assert name in topo.by_name, f"{spec}: missing {name}"
                    peer = topo.gpu_peer_path(node, a, b)
                    assert peer is not None and len(peer) == 1
                    assert peer[0].name == name
        assert topo.link_census().get("nvlink", 0) == (
            spec.nodes * gpus * (gpus - 1) // 2
        )


def test_railpod_stable_rail_assignment(fuzz_seed):
    """iface is the stable ``slot % rails`` map and the node's slots
    collectively touch every rail exactly ``gpus / rails`` times (exactly
    once per rail when gpus == rails)."""
    for spec in _railpod_shapes(fuzz_seed):
        topo = compile_topo(spec)
        gpus, rails = spec.gpus_per_node, spec.rails
        assert topo.iface == tuple(s % rails for s in range(gpus))
        for rail in range(rails):
            owners = [s for s in range(gpus) if topo.iface[s] == rail]
            assert len(owners) == gpus // rails, (
                f"{spec}: rail {rail} touched by {owners}"
            )


def test_railpod_routes_ride_source_slot_rail(fuzz_seed):
    """A cross-node route injects and ejects on the source slot's rail and
    pays one destination-island NVLink hop iff the destination slot sits on
    a different rail."""
    rng = random.Random(fuzz_seed ^ 0x9A2)
    for spec in _railpod_shapes(fuzz_seed)[:6]:
        topo = compile_topo(spec)
        gpus = spec.gpus_per_node
        for src, dst in _sample_pairs(rng, spec.nodes, k=10):
            for sslot in range(gpus):
                for dslot in range(gpus):
                    path = topo.node_path(src, dst, sslot, dslot)
                    rail = spec.rail_of_slot(sslot)
                    assert path[0].name == f"rp:n{src}>rail{rail}"
                    assert path[1].name == f"rp:rail{rail}>n{dst}"
                    cross_rail = spec.rail_of_slot(dslot) != rail
                    nv_hops = [l for l in path if l.kind == "nvlink"]
                    assert len(nv_hops) == (1 if cross_rail else 0), (
                        f"{spec}: ({src}.{sslot} -> {dst}.{dslot}) "
                        f"nv hops {[l.name for l in nv_hops]}"
                    )


def test_railpod_spec_validation():
    from repro.machine.spec import GpuSpec, NodeSpec

    with pytest.raises(ValueError, match="rails"):
        RailPodSpec(nodes=2, rails=3,
                    node=NodeSpec(sockets=2, cores_per_socket=2,
                                  gpu=GpuSpec(gpus_per_socket=2)))
    with pytest.raises(ValueError, match="GPUs"):
        RailPodSpec(nodes=2, rails=2,
                    node=NodeSpec(sockets=2, cores_per_socket=2))


# -- cross-family: resizing and validation ------------------------------------


@pytest.mark.parametrize("family_spec", [
    FatTreeSpec(), DragonflySpec(), RailPodSpec(),
], ids=lambda s: s.family)
def test_for_ranks_fits_world(family_spec, fuzz_seed):
    rng = random.Random(fuzz_seed ^ 0xF17)
    for _ in range(8):
        world = rng.randint(1, 4096)
        resized = family_spec.for_ranks(world)
        topo = compile_topo(resized)
        assert topo.ranks >= world, (
            f"{family_spec.family}: for_ranks({world}) fits only {topo.ranks}"
        )


def test_dragonfly_resize_keeps_the_global_port_count_even():
    # Three groups of three routers with one global port each would leave
    # nine global ports, an odd count that cannot pair up: the resize
    # gives each router a second port.
    spec = DragonflySpec(groups=2, routers_per_group=3, global_per_router=1)
    resized = spec.for_ranks(224)
    assert (resized.groups, resized.routers_per_group, resized.global_per_router) == (3, 3, 2)
    topo = compile_topo(resized)
    assert topo.ranks >= 224 and topo.link_census()["global"] == 18


def test_entry_points_reject_unknown_families_and_double_sizes():
    from repro.topo import build_family, small_family_machine
    from repro.topo.fattree import equal_cost_paths

    with pytest.raises(ValueError, match="unknown topology family 'torus'"):
        build_family("torus")
    with pytest.raises(ValueError, match="unknown topology family 'torus'"):
        small_family_machine("torus")
    with pytest.raises(ValueError, match="pass nodes or ranks, not both"):
        build_family("fattree", nodes=2, ranks=64)
    topo = compile_topo(FatTreeSpec())
    with pytest.raises(ValueError, match="distinct nodes"):
        equal_cost_paths(topo, 1, 1)
    assert topo.gpu_peer_path(0, 0, 1) is None  # no GPU islands in a fat tree


def test_fattree_spec_validation():
    with pytest.raises(ValueError, match="oversubscription"):
        FatTreeSpec(oversubscription=0.0)
    with pytest.raises(ValueError, match="leaf"):
        FatTreeSpec(leaves=0)


def test_compile_rejects_non_spec():
    with pytest.raises(TypeError):
        compile_topo(object())
