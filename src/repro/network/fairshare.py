"""Max-min fair bandwidth allocation with per-flow rate caps.

The allocator implements classic *progressive filling*: repeatedly find the
most constrained resource — either the bottleneck link (smallest remaining
capacity per unfixed flow) or a flow whose cap is below that share — fix the
corresponding flows' rates, subtract them from the links they cross, repeat.

Rates only change when the set of active flows changes, and only within the
connected component of links/flows reachable from the changed flow's path;
disjoint components provably do not affect each other's max-min allocation,
so recomputation is local and large simulations stay fast.
"""

from __future__ import annotations

import heapq
from operator import attrgetter
from typing import Callable, Optional, Sequence

from repro.network.flows import Flow
from repro.network.links import Link
from repro.sim.engine import Engine

# Residual bytes below this count as "transfer finished" (guards float drift).
_EPSILON_BYTES = 1e-6

# The finish queue is rebuilt once stale entries pass this count and
# outnumber the live ones (amortised: each rebuild follows as many
# reschedules as it scans).
_QUEUE_COMPACT_MIN = 512

_NEVER = float("inf")

# Hot-path sort keys (attrgetter beats an equivalent lambda per element).
_BY_FID = attrgetter("fid")
_BY_NAME = attrgetter("name")
_BY_CAP = attrgetter("rate_cap")


# Components of at least this many flows skip the shape cache in
# ``_maxmin_cached``, which bounds the cache's memory.
# The name predates the class solver (it once picked a heap tier) and
# stays because perfbench/tracer.py reads it, like the two inert names
# below, to label ``net.solves.scan/.heap/.vec``.
_HEAP_THRESHOLD = 96

# perfbench/tracer.py reads these; they go when it drops net.solves.vec.
_np = None
_VEC_THRESHOLD = _NEVER


def maxmin_rates(flows: Sequence[Flow], links: Sequence[Link]) -> dict[Flow, float]:
    """Compute the max-min fair rate of every flow in one component.

    Pure function (does not mutate flows/links); exposed separately so the
    property-based tests can check the allocation invariants directly.
    ``flows`` lists each flow once.

    Progressive filling over flow *classes*: flows with the same path and
    the same rate cap always fix together at the same rate, so the solver
    groups them and counts each link's unfixed flows as sums of class
    sizes. The bottleneck link comes from a lazily invalidated heap of
    link shares (an entry is live while its link's unfixed count is the
    one it was pushed with); the smallest unfixed cap comes from the
    classes in cap order, walked by a monotone pointer.
    Fix order and float arithmetic match :func:`maxmin_rates_reference`
    exactly (DESIGN.md §23): ties between equal shares go to the earliest
    link in ``links`` order; a class of k flows fixed at one rate repeats
    the reference's k clamped subtractions on each link it crosses; a cap
    round that fixes different caps subtracts flow by flow in fid order;
    and a link that a one-rate round leaves with no unfixed flow skips its
    subtractions, because its residual is never read again.
    """
    nlinks = len(links)
    # Reverse walk so a link listed twice keeps its first position.
    index = {links[i]: i for i in range(nlinks - 1, -1, -1)}.get
    remaining = [link.capacity for link in links]
    count = [0] * nlinks
    on: list[list[int]] = [[] for _ in range(nlinks)]  # classes per link

    # Classes in cap order: sort the flows by cap and open a class on each
    # new (cap, path) pair; consecutive flows of one class skip the lookup.
    # The cap walk reads only the smallest unfixed cap and the classes at
    # or below the share, so classes of equal cap may come in any order.
    by_cap = sorted(flows, key=_BY_CAP)
    cls_of: list[int] = []  # the class of each flow of by_cap
    members: list[list[Flow]] = []
    caps: list[float] = []
    last_cap = last_path = None
    run: Optional[dict] = None  # path -> class, within one cap
    c = 0
    for f in by_cap:
        cap = f.rate_cap
        path = f.path
        if cap != last_cap:
            last_cap, last_path, run = cap, path, None
            c = len(caps)
        elif path != last_path:
            if run is None:
                run = {last_path: c}
            last_path = path
            c = run.setdefault(path, len(caps))
        if c < len(caps):
            members[c].append(f)
        else:
            members.append([f])
            caps.append(cap)
        cls_of.append(c)
    ncls = len(caps)
    cls_links: list[list[int]] = []  # link positions, with multiplicity
    for c in range(ncls):
        idx = list(map(index, members[c][0].path))
        if None in idx:  # a path link outside ``links``
            idx = [i for i in idx if i is not None]
        cls_links.append(idx)
        k = len(members[c])
        for i in idx:
            count[i] += k
            on[i].append(c)

    heap = [(remaining[i] / n, i, n) for i, n in enumerate(count) if n]
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    rate: list[Optional[float]] = [None] * ncls
    n_unfixed = ncls
    ptr = 0

    while n_unfixed:
        # Bottleneck share: pop entries whose link has changed since.
        while heap and heap[0][2] != count[heap[0][1]]:
            heappop(heap)
        while rate[ptr] is not None:
            ptr += 1

        if not heap:
            # No shared constrained link (e.g. synthetic test flows): caps rule.
            for c in range(ptr, ncls):
                if rate[c] is None:
                    rate[c] = caps[c]
            break
        share, b, _ = heap[0]
        batch = []
        if caps[ptr] <= share:
            # Cap-limited classes fix first (standard capped progressive fill).
            for c in range(ptr, ncls):
                if caps[c] > share:
                    break
                if rate[c] is None:
                    rate[c] = caps[c]
                    batch.append(c)
            # One rate for the round unless the batch spans several caps.
            value = caps[batch[0]] if caps[batch[0]] == caps[batch[-1]] else None
        else:
            for c in on[b]:
                if rate[c] is None:
                    rate[c] = share
                    batch.append(c)
            value = share
        n_unfixed -= len(batch)

        hits: dict[int, int] = {}
        for c in batch:
            k = len(members[c])
            for i in cls_links[c]:
                hits[i] = hits.get(i, 0) + k
        if value is None:
            # Several caps: on a shared link the reference's fid order matters.
            for _, c in sorted((f.fid, c) for c in batch for f in members[c]):
                v = caps[c]
                for i in cls_links[c]:
                    r = remaining[i] - v
                    remaining[i] = r if r > 0.0 else 0.0
        for i, m in hits.items():
            n = count[i] - m
            count[i] = n
            if n:
                r = remaining[i]
                if value is not None:
                    for _ in range(m):
                        r = r - value
                        r = r if r > 0.0 else 0.0
                    remaining[i] = r
                heappush(heap, (r / n, i, n))
    return dict(zip(by_cap, map(rate.__getitem__, cls_of)))


def maxmin_rates_reference(
    flows: Sequence[Flow], links: Sequence[Link]
) -> dict[Flow, float]:
    """The pre-optimization allocator, kept as the correctness oracle.

    Rescans all links and all unfixed flows every fill round. The property
    tests assert :func:`maxmin_rates` matches it bit-for-bit and the perf
    bench (``repro bench``) reports the throughput ratio between the two.
    """
    remaining_cap = {link: link.capacity for link in links}
    unfixed_per_link: dict[Link, int] = {link: 0 for link in links}
    for f in flows:
        for link in f.path:
            if link in unfixed_per_link:
                unfixed_per_link[link] += 1
    rates: dict[Flow, float] = {}
    unfixed = set(flows)

    def _fix(flow: Flow, rate: float) -> None:
        rates[flow] = rate
        unfixed.discard(flow)
        for link in flow.path:
            if link in remaining_cap:
                remaining_cap[link] = max(0.0, remaining_cap[link] - rate)
                unfixed_per_link[link] -= 1

    while unfixed:
        # Bottleneck share over links that still carry unfixed flows.
        bottleneck_share: Optional[float] = None
        bottleneck_link: Optional[Link] = None
        for link in links:
            n = unfixed_per_link[link]
            if n <= 0:
                continue
            share = remaining_cap[link] / n
            if bottleneck_share is None or share < bottleneck_share:
                bottleneck_share = share
                bottleneck_link = link
        # Smallest cap among unfixed flows.
        cap_flow = min(unfixed, key=lambda f: (f.rate_cap, f.fid))
        min_cap = cap_flow.rate_cap

        if bottleneck_share is None:
            # No shared constrained link (e.g. synthetic test flows): caps rule.
            for f in list(unfixed):
                _fix(f, f.rate_cap)
        elif min_cap <= bottleneck_share:
            # Cap-limited flows fix first (standard capped progressive fill).
            threshold = bottleneck_share
            fixed = [f for f in unfixed if f.rate_cap <= threshold]
            for f in sorted(fixed, key=lambda f: f.fid):
                _fix(f, f.rate_cap)
        else:
            assert bottleneck_link is not None
            fixed = [f for f in unfixed if bottleneck_link in f.path]
            for f in sorted(fixed, key=lambda f: f.fid):
                _fix(f, bottleneck_share)
    return rates


class ComponentIndex:
    """Incrementally maintained union-find over link membership (§23).

    Replaces the per-``_rebalance`` BFS: components merge as flows arrive
    (near-O(1) amortized via path-halving + union-by-size, with payload
    flow/link sets merged small-into-large), and component extraction is a
    find plus two set lookups. Union-find cannot split, so after enough
    flow retirements a root's component may be a *superset* of the true
    connected component — harmless for correctness (disjoint
    sub-components provably do not affect each other's max-min rates, and
    the rate-unchanged fast path skips rescheduling for dragged-in
    bystanders) but not for cost, so a retirement counter triggers a lazy
    rebuild from the live flow set once stale mass could dominate.
    """

    __slots__ = (
        "_parent", "_size", "_flows", "_links", "removals", "nflows",
        "gen", "_stamp",
    )

    #: Rebuild once retirements exceed max(this, live flow count).
    _REBUILD_MIN = 64

    def __init__(self) -> None:
        self._parent: list[int] = []
        self._size: list[int] = []
        self._flows: dict[int, set[Flow]] = {}
        self._links: dict[int, set[Link]] = {}
        self.removals = 0
        self.nflows = 0
        # Rebalance generation stamps: ``_stamp[root]`` is the global ``gen``
        # at which that root's component last had a full max-min pass. Lets
        # ``_finish`` skip its trailing rebalance when the completion
        # callback already triggered one over the same component (the
        # pipelined steady state: every segment completion immediately
        # activates its successor on the same links). Stamps die on any
        # structural merge (``_union``) or ``rebuild`` so a stamp never
        # vouches for a component whose membership changed after the pass.
        self.gen = 0
        self._stamp: dict[int, int] = {}

    def ensure(self, idx: int) -> None:
        parent = self._parent
        while len(parent) <= idx:
            parent.append(len(parent))
            self._size.append(1)

    def _find(self, i: int) -> int:
        parent = self._parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]  # path halving
            i = parent[i]
        return i

    def _union(self, a: int, b: int) -> int:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return ra
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        self._stamp.pop(ra, None)
        self._stamp.pop(rb, None)
        moved = self._flows.pop(rb, None)
        if moved:
            self._flows.setdefault(ra, set()).update(moved)
        moved_links = self._links.pop(rb, None)
        if moved_links:
            self._links.setdefault(ra, set()).update(moved_links)
        return ra

    def add_flow(self, flow: Flow) -> None:
        path = flow.path
        if not path:
            return
        r = path[0].index
        for link in path:
            r = self._union(r, link.index)
        r = self._find(r)
        self._flows.setdefault(r, set()).add(flow)
        self._links.setdefault(r, set()).update(path)
        self.nflows += 1

    def remove_flow(self, flow: Flow) -> None:
        if not flow.path:
            return
        idx = flow.path[0].index
        if idx is None or idx >= len(self._parent):
            # Never registered (e.g. a zero-byte flow finished before
            # activation ever indexed its links).
            return
        r = self._find(idx)
        members = self._flows.get(r)
        if members is None or flow not in members:
            return
        members.remove(flow)
        if self.nflows > 0:
            self.nflows -= 1
        self.removals += 1

    def stale(self) -> bool:
        return self.removals > max(self._REBUILD_MIN, self.nflows)

    def root_of(self, flow: Flow) -> int:
        """Current component root of ``flow``'s links, or -1 if unindexed."""
        path = flow.path
        if not path:
            return -1
        idx = path[0].index
        if idx is None or idx >= len(self._parent):
            return -1
        return self._find(idx)

    def stamp_root(self, root: int) -> None:
        """Record a completed full max-min pass over ``root``'s component."""
        self.gen += 1
        self._stamp[root] = self.gen

    def stamped_after(self, flow: Flow, gen: int) -> bool:
        """True if ``flow``'s component had a full pass after generation
        ``gen`` with no membership merge since (the trailing-rebalance skip
        test; conservative — False whenever in doubt)."""
        root = self.root_of(flow)
        return root >= 0 and self._stamp.get(root, 0) > gen

    def component(self, seed: Flow):
        """The (possibly superset) component containing ``seed``'s links."""
        if not seed.path:
            return (), ()
        idx = seed.path[0].index
        if idx is None or idx >= len(self._parent):
            # Seed's links were never registered (zero-byte flow finished
            # before activation indexed them): nothing shares them.
            return (), ()
        r = self._find(idx)
        return self._flows.get(r, ()), self._links.get(r, ())

    def rebuild(self, live_flows) -> None:
        """Re-derive exact components from the live flow set."""
        self._parent = list(range(len(self._parent)))
        self._size = [1] * len(self._parent)
        self._flows = {}
        self._links = {}
        self._stamp.clear()
        self.removals = 0
        self.nflows = 0
        for f in live_flows:
            self.add_flow(f)


class FairShareNetwork:
    """Owns active flows and keeps their rates max-min fair as they come and go.

    Flow completions are data (DESIGN.md §23): a rate change moves a flow's
    ``due`` and pushes a ``(due, stamp, flow)`` entry on one lazily
    invalidated finish queue, together with an engine position token. The
    engine wakes the network when the queue's head epoch starts, and the
    flows due then are spliced into that epoch where ``call_at`` at their
    last reschedule would have put them.
    """

    def __init__(self, engine: Engine):
        self.engine = engine
        self._next_fid = 0
        self.active: set[Flow] = set()
        self.flows_completed = 0
        self.queue: list[tuple[float, int, Flow]] = []  # finish heap
        self._stamps = 0  # last stamp issued; orders same-instant finishes
        self._stale = 0  # queue entries whose flow moved, finished or parked
        self._armed = _NEVER  # the engine wake this network holds
        self._hook = self._due_now
        self.components = ComponentIndex()
        self._next_link_idx = 0  # assigns Link.index on a link's first flow
        # Max-min solution cache keyed by canonical component *shape*
        # (DESIGN.md §23): the allocation depends only on flow caps, the
        # local link-incidence pattern, and link capacities — never on
        # residual bytes — and pipelined collectives rebalance a handful of
        # recurring shapes hundreds of thousands of times. Keys are built
        # from object identity (path tuples, link objects, capacities), so
        # a hit costs a few C-speed hashes — cheaper than even the smallest
        # re-solve; repeated rebalances of the same component hit one entry.
        self._maxmin_cache: dict = {}
        # Optional invariant checker (repro.analysis.sanitizer); the owning
        # MpiWorld installs it when constructed with sanitize=True.
        self.sanitizer = None
        # Optional span recorder (repro.obs); installed by MpiWorld when
        # built with observe=True. Each finished flow records one span per
        # link of its path (the per-link busy/bandwidth metrics).
        self.obs = None

    # -- public API --------------------------------------------------------

    def submit(
        self,
        path: Sequence[Link],
        nbytes: int,
        rate_cap: float,
        latency: float,
        on_complete: Callable[[Flow], None],
        taginfo=None,
    ) -> Flow:
        """Create a flow; it occupies its links after ``latency`` seconds and
        calls ``on_complete(flow)`` when the last byte drains."""
        self._next_fid += 1
        flow = Flow(self._next_fid, path, nbytes, rate_cap, on_complete, taginfo)
        flow.start_time = self.engine.now
        if latency > 0.0:
            self.engine.post_after(latency, self._activate, flow)
        else:
            self._activate(flow)
        return flow

    def refresh(self, links: Sequence[Link]) -> None:
        """Recompute rates after an external capacity change (link flap).

        Rates normally change only when the flow set changes; a bandwidth
        flap (repro.faults) changes ``Link.capacity`` under live flows, so
        each affected connected component must be rebalanced once.
        """
        seen: set[Flow] = set()
        for link in links:
            for flow in list(link.flows):
                if flow in seen or flow.done:
                    continue
                comp_flows, _ = self._component(flow)
                seen.update(comp_flows)
                self._rebalance(flow)

    # -- internals ----------------------------------------------------------

    def _activate(self, flow: Flow) -> None:
        flow.last_update = self.engine.now
        if flow.nbytes <= 0 or not flow.path:
            # Zero-byte transfers and loopback paths finish immediately after
            # latency (loopback copy cost is charged by the caller as CPU or
            # memcpy work, not as a network flow).
            if flow.nbytes > 0 and not flow.path:
                # Uncontended loopback: drain at the rate cap.
                self.engine.post_after(
                    flow.nbytes / flow.rate_cap, self._finish, flow
                )
                flow.rate = flow.rate_cap
                self.active.add(flow)
                return
            self._finish(flow)
            return
        self.active.add(flow)
        comp = self.components
        for link in flow.path:
            link.flows.add(flow)
            if link.index is None:
                link.index = self._next_link_idx
                self._next_link_idx += 1
            comp.ensure(link.index)
        comp.add_flow(flow)
        self._rebalance(flow)

    # -- the finish queue -----------------------------------------------------

    def _withdraw(self, flow: Flow) -> None:
        """Drop ``flow``'s scheduled finish, queued or already spliced."""
        if flow.token is not None:
            flow.token = None
            self._stale += 1
        elif flow.entry is not None:
            self.engine.discard(flow.entry)
            flow.entry = None
        flow.stamp = 0

    def _schedule(self, flows: Sequence[Flow]) -> None:
        """Set each flow, in order, to finish when it drains at its rate.

        ``due = now + remaining / rate`` is the float op ``call_after``
        performed, and the token records where ``call_after`` would have
        appended, so each finish fires exactly where the eager event would
        have.
        """
        engine = self.engine
        now = engine.now
        mark = engine.mark
        queue = self.queue
        push = heapq.heappush
        armed = self._armed
        stamp = self._stamps
        stale = self._stale
        for f in flows:
            # Withdraw the previous schedule (``_withdraw``, inlined).
            if f.token is not None:
                stale += 1
            elif f.entry is not None:
                engine.discard(f.entry)
                f.entry = None
            due = now + f.remaining / f.rate
            stamp += 1
            f.token = mark(due)
            f.due = due
            f.stamp = stamp
            push(queue, (due, stamp, f))
            if due < armed:
                armed = due
        self._stamps = stamp
        if armed < self._armed:
            self._armed = armed
            engine.wake_at(armed, self._hook)
        if stale > _QUEUE_COMPACT_MIN and 2 * stale > len(queue):
            queue[:] = [e for e in queue if e[2].stamp == e[1]]
            heapq.heapify(queue)
            stale = 0
        self._stale = stale

    def _due_now(self, t: float) -> list[tuple[tuple, list]]:
        """Engine wake hook: hand over the flows that finish at ``t``.

        Each leaves the queue as a cancellable engine entry, paired with
        its position token, in stamp order; the engine splices them into
        ``t``'s epoch. The network then re-arms at the new head.
        """
        queue = self.queue
        heappop = heapq.heappop
        out = []
        while queue:
            due, stamp, flow = queue[0]
            if flow.stamp != stamp:
                heappop(queue)
                self._stale -= 1
                continue
            if due > t:
                break
            heappop(queue)
            entry = [self._fire, (flow, stamp)]
            out.append((flow.token, entry))
            flow.token = None  # drops the bucket reference too
            flow.entry = entry
        if queue:
            self._armed = queue[0][0]
            self.engine.wake_at(self._armed, self._hook)
        else:
            self._armed = _NEVER
        return out

    def _fire(self, flow: Flow, stamp: int) -> None:
        flow.entry = None
        if self.sanitizer is not None:
            self.sanitizer.check_flow_fire(flow, stamp, self.engine.now)
        self._finish(flow)

    def _finish(self, flow: Flow) -> None:
        if flow.done:
            return
        flow.drain(self.engine.now)
        flow.remaining = 0.0
        flow.finish_time = self.engine.now
        if flow.stamp:
            self._withdraw(flow)
        self.active.discard(flow)
        had_links = bool(flow.path)
        if had_links:
            for link in flow.path:
                link.flows.discard(flow)
            self.components.remove_flow(flow)
        self.flows_completed += 1
        if self.obs is not None and had_links:
            # Span per link over the flow's wire lifetime (submit -> drain;
            # includes the path latency prefix, which is negligible against
            # the transfer for the segment sizes the collectives move).
            ti = flow.taginfo
            if ti is not None:
                kind, src, dst, tag = ti
                name = f"{kind} {src}->{dst}"
                args = {"tag": tag, "nbytes": flow.nbytes}
            else:
                name = "copy"
                args = {"nbytes": flow.nbytes}
            for link in flow.path:
                self.obs.add(
                    "flow", name, ("link", link.name),
                    flow.start_time, flow.finish_time, args,
                )
            self.obs.count("net.flows_completed")
        cb = flow.on_complete
        if not had_links:
            cb(flow)
            return
        # The trailing rebalance after the callback is a pure duplicate in
        # the pipelined steady state: the callback activates the successor
        # segment on the same links, and that activation already ran a full
        # max-min pass over the post-removal component. The generation stamp
        # proves exactly that (and is invalidated by any merge), so skipping
        # here is observationally identical — the covering pass saw the same
        # flow set at the same instant and made the same decisions.
        gen = self.components.gen
        cb(flow)
        if not self.components.stamped_after(flow, gen):
            self._rebalance(flow)

    def _component(self, seed: Flow) -> tuple[list[Flow], list[Link]]:
        """Flows/links transitively sharing a link with ``seed``'s path.

        Served by the incrementally maintained union-find (§23): a find
        plus two set lookups, replacing the per-rebalance BFS over
        ``link.flows``. The result may be a *superset* of the exact
        connected component (union-find cannot split after retirements);
        that is rate-neutral — disjoint sub-components share no links, so
        progressive filling computes bit-identical per-flow rates over the
        union — and a lazy rebuild from the live flow set bounds the stale
        mass (see :meth:`ComponentIndex.stale`).
        """
        comp = self.components
        if comp.stale():
            comp.rebuild(f for f in self.active if f.path)
        comp_flows, comp_links = comp.component(seed)
        return list(comp_flows), list(comp_links)

    def _maxmin_cached(
        self, comp_flows: list[Flow], comp_links: list[Link]
    ) -> list[float]:
        """Shape-cached :func:`maxmin_rates` for components under
        ``_HEAP_THRESHOLD`` flows.

        Returns rates aligned with ``comp_flows`` (fid order). The key is
        exactly the allocator's input: per flow its rate cap and its path
        (the very link objects, so hashing is identity-based and C-speed),
        plus the links and their capacities in component order. Identical
        keys replay identical progressive filling, so cached rates are
        bit-identical to a fresh run. Pipelined collectives cycle through a
        few dozen recurring shapes per node, so the hit rate is ~100%.
        Larger components are solved directly, uncached, which bounds the
        cache's memory; they fall into a few classes, which the solver
        fixes in a few rounds.
        """
        nflows = len(comp_flows)
        if nflows >= _HEAP_THRESHOLD:
            rates = maxmin_rates(comp_flows, comp_links)
            return list(map(rates.__getitem__, comp_flows))
        shape: list = []
        for f in comp_flows:
            shape.append(f.rate_cap)
            shape.append(f.path)
        key = (
            tuple(shape),
            tuple(comp_links),
            tuple(link.capacity for link in comp_links),
        )
        cache = self._maxmin_cache
        cached = cache.get(key)
        if cached is None:
            rates = maxmin_rates(comp_flows, comp_links)
            if len(cache) >= 65536:
                # Unbounded shape churn (randomized fuzz workloads): start
                # over rather than grow without limit.
                cache.clear()
            cached = cache[key] = [rates[f] for f in comp_flows]
        return cached

    def _rebalance(self, seed: Flow) -> None:
        now = self.engine.now
        # Fast path: the seed shares no link with any other flow, so its
        # max-min rate is simply its cap bounded by its link capacities —
        # the overwhelmingly common case on topology-aware trees, where a
        # link rarely carries more than one in-order data flow at a time.
        alone = not seed.done and seed in self.active
        if alone:
            for link in seed.path:
                if len(link.flows) > 1:
                    alone = False
                    break
        if alone:
            seed.drain(now)
            if seed.remaining <= _EPSILON_BYTES:
                self._finish(seed)
                return
            rate = min(
                (link.capacity for link in seed.path), default=seed.rate_cap
            )
            rate = min(rate, seed.rate_cap)
            if abs(rate - seed.rate) > 1e-9 * max(rate, seed.rate) or not seed.stamp:
                seed.rate = rate
                self._schedule((seed,))
            if self.sanitizer is not None:
                self.sanitizer.check_rates((seed,), seed.path)
            return
        comp_flows, comp_links = self._component(seed)
        if not comp_flows:
            return
        # Deterministic ordering for reproducible float arithmetic.
        comp_flows.sort(key=_BY_FID)
        comp_links.sort(key=_BY_NAME)
        if self.sanitizer is not None:
            # The sanitizer audits residuals too; give it a fully drained
            # view (the lazy-drain fast path below is invisible to it).
            for f in comp_flows:
                f.drain(now)
        rates = self._maxmin_cached(comp_flows, comp_links)
        finished: list[Flow] = []
        moved: list[Flow] = []
        for f, new_rate in zip(comp_flows, rates):
            # Drain lazily: most members keep their rate (bystanders dragged
            # in by a shared link), and for them byte accounting can wait for
            # their next reschedule or finish. The epsilon test runs on the
            # *predicted* post-drain residual — the same IEEE-754 ops drain
            # would perform — so the finish decision is unchanged.
            rem = f.remaining
            rate = f.rate
            if rate > 0.0:
                dt = now - f.last_update
                if dt > 0.0:
                    rem = rem - rate * dt
                    if rem < 0.0:
                        rem = 0.0
            if rem <= _EPSILON_BYTES:
                finished.append(f)  # _finish performs the real drain
                continue
            if f.stamp:
                # Keep the scheduled finish when the rate is unchanged — the
                # common case for flows dragged into a component by a link
                # they share with an unaffected neighbour.
                old = f.rate
                d = new_rate - old
                if d < 0.0:
                    d = -d
                if d <= 1e-9 * (new_rate if new_rate > old else old):
                    continue
            f.drain(now)
            f.rate = new_rate
            if new_rate > 0.0:
                moved.append(f)
            elif f.stamp:
                # rate == 0 flows stay parked until a rebalance frees capacity.
                self._withdraw(f)
        if moved:
            self._schedule(moved)
        if self.sanitizer is not None:
            self.sanitizer.check_rates(comp_flows, comp_links)
        root = self.components.root_of(seed)
        if root >= 0:
            self.components.stamp_root(root)
        for f in finished:
            self._finish(f)
