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
from bisect import bisect
from collections import Counter
from itertools import chain, compress
from operator import attrgetter, itemgetter, not_
from typing import Callable, Collection, Optional, Sequence

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

# A flow keeps its schedule when its new rate is within this relative
# distance of its old one. A link has room for its flows' caps when their
# sum, taken as count times largest cap, stays this far under capacity.
_RATE_TOLERANCE = 1e-9
_HEADROOM = 1.0 - _RATE_TOLERANCE

# Hot-path sort keys (attrgetter beats an equivalent lambda per element).
_BY_FID = attrgetter("fid")
_BY_NAME = attrgetter("name")
_BY_CAP = attrgetter("rate_cap")
_COHORT = attrgetter("cohort")
_KEY = attrgetter("key")  # a flow's class: (path, rate_cap)
_PATH = attrgetter("path")
_KEY_CAP = itemgetter(1)


# perfbench/tracer.py reads these three to label ``net.solves.scan/.heap/
# .vec``; nothing here reads them. They go when the tracer drops the split.
_HEAP_THRESHOLD = 96
_np = None
_VEC_THRESHOLD = _NEVER


def maxmin_rates(
    flows: Collection[Flow], links: Sequence[Link], census: Optional[dict] = None
) -> dict:
    """Compute the max-min fair rates of one component.

    Pure function (does not mutate flows/links/census). ``flows`` holds
    each flow once. With ``census``, the component's class census
    ``{Flow.key: flow count}``, the rates are per class: ``{Flow.key:
    rate}`` (the network's entry). Without it they are per flow, ``{Flow:
    rate}``, through :func:`_flow_rates` (the entry the property tests
    and ``repro bench`` use). Both run the one class solver,
    :func:`_class_rates`.
    """
    if census is None:
        return _flow_rates(flows, links)
    return _class_rates(flows, links, census)


def _flow_rates(flows: Collection[Flow], links: Sequence[Link]) -> dict[Flow, float]:
    """Per-flow rates: the class census of ``flows``, solved, then each
    flow given its class's rate."""
    rates = _class_rates(flows, links, Counter(map(_KEY, flows)))
    return dict(zip(flows, map(rates.__getitem__, map(_KEY, flows))))


def _class_rates(
    flows: Collection[Flow], links: Sequence[Link], census: dict
) -> dict[tuple, float]:
    """Progressive filling over flow *classes* (DESIGN.md §23).

    Flows with the same path and the same rate cap always fix together at
    the same rate, so the solver works on the census alone and counts each
    link's unfixed flows as sums of class sizes. The bottleneck link comes
    from a lazily invalidated heap of link shares (an entry is live while
    its link's unfixed count is the one it was pushed with); the smallest
    unfixed cap comes from the classes in cap order, walked by a monotone
    pointer. Only a cap round that fixes different caps reads ``flows``.
    Fix order and float arithmetic match :func:`maxmin_rates_reference`
    exactly: ties between equal shares go to the earliest link in
    ``links`` order; a class of k flows fixed at one rate repeats the
    reference's k clamped subtractions on each link it crosses; a cap
    round that fixes different caps subtracts flow by flow in fid order;
    and a link that a one-rate round leaves with no unfixed flow skips its
    subtractions, because its residual is never read again.
    """
    if len(census) == 1:
        # One class, the common shape of a large component: one round fixes
        # it, at its cap or at the smallest of its links' first shares,
        # the floats the rounds below would compute.
        ((key, k),) = census.items()
        path, cap = key
        inside = set(links)
        share = min(
            (link.capacity / (k * path.count(link)) for link in set(path) if link in inside),
            default=cap,
        )
        return {key: cap if cap <= share else share}
    nlinks = len(links)
    # Reverse walk so a link listed twice keeps its first position.
    index = {links[i]: i for i in range(nlinks - 1, -1, -1)}.get
    remaining = [link.capacity for link in links]
    count = [0] * nlinks
    on: list[list[int]] = [[] for _ in range(nlinks)]  # classes per link

    # Classes in cap order. The cap walk reads only the smallest unfixed
    # cap and the classes at or below the share, so classes of equal cap
    # may come in any order.
    keys = sorted(census, key=_KEY_CAP)
    caps = list(map(_KEY_CAP, keys))
    sizes = list(map(census.__getitem__, keys))
    ncls = len(keys)
    cls_links: list[list[int]] = []  # link positions, with multiplicity
    for c in range(ncls):
        idx = list(map(index, keys[c][0]))
        if None in idx:  # a path link outside ``links``
            idx = [i for i in idx if i is not None]
        cls_links.append(idx)
        k = sizes[c]
        for i in idx:
            count[i] += k
            on[i].append(c)

    heap = [(remaining[i] / n, i, n) for i, n in enumerate(count) if n]
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    rate: list[Optional[float]] = [None] * ncls
    n_unfixed = ncls
    ptr = 0
    fids: Optional[list[list[int]]] = None  # per class, once a round needs them

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
            k = sizes[c]
            for i in cls_links[c]:
                hits[i] = hits.get(i, 0) + k
        if value is None:
            # Several caps: on a shared link the reference's fid order
            # matters, so the round's flows go one by one, by fid. Only
            # this round reads ``flows``: it groups their fids by class.
            if fids is None:
                fids = [[] for _ in range(ncls)]
                number = dict(zip(keys, range(ncls)))
                for f in flows:
                    fids[number[f.key]].append(f.fid)
            for _, c in sorted([(fid, c) for c in batch for fid in fids[c]]):
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
    return dict(zip(keys, rate))


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
    connected component. Disjoint sub-components share no link, so the
    max-min allocation of each is the same mathematically, but progressive
    filling over the union can round a bystander's rate one ulp away from
    its own component's solve; the 1e-9 reschedule tolerance keeps its
    schedule. The superset costs time, so a retirement counter triggers a
    lazy rebuild from the live flow set once stale mass could dominate. A
    rebuild can split a finished flow's links over several components
    (:meth:`parts`).

    Each root also keeps its component's class census, ``{Flow.key: flow
    count}``: the solver's input (:func:`maxmin_rates`). It follows the
    flow set: a flow's arrival and retirement count it in and out, and a
    union merges the census with the flows.
    """

    __slots__ = (
        "_parent", "_size", "_flows", "_links", "_census", "removals", "nflows",
    )

    #: Rebuild once retirements exceed max(this, live flow count).
    _REBUILD_MIN = 64

    def __init__(self) -> None:
        self._parent: list[int] = []
        self._size: list[int] = []
        self._flows: dict[int, set[Flow]] = {}
        self._links: dict[int, set[Link]] = {}
        self._census: dict[int, dict[tuple, int]] = {}
        self.removals = 0
        self.nflows = 0

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
        moved = self._flows.pop(rb, None)
        if moved:
            self._flows.setdefault(ra, set()).update(moved)
        moved_links = self._links.pop(rb, None)
        if moved_links:
            self._links.setdefault(ra, set()).update(moved_links)
        moved_census = self._census.pop(rb, None)
        if moved_census:
            census = self._census.setdefault(ra, {})
            for key, n in moved_census.items():
                census[key] = census.get(key, 0) + n
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
        census = self._census.get(r)
        if census is None:
            census = self._census[r] = {}
        key = flow.key
        census[key] = census.get(key, 0) + 1
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
        census = self._census[r]
        key = flow.key
        n = census[key] - 1
        if n:
            census[key] = n
        else:
            del census[key]
        if self.nflows > 0:
            self.nflows -= 1
        self.removals += 1

    def stale(self) -> bool:
        return self.removals > max(self._REBUILD_MIN, self.nflows)

    def component(self, seed: Flow):
        """The (possibly superset) component containing ``seed``'s links,
        as its flows, its links and its class census."""
        if not seed.path:
            return (), (), {}
        idx = seed.path[0].index
        if idx is None or idx >= len(self._parent):
            # Seed's links were never registered (zero-byte flow finished
            # before activation indexed them): nothing shares them.
            return (), (), {}
        r = self._find(idx)
        return self._flows.get(r, ()), self._links.get(r, ()), self._census.get(r, {})

    def parts(self, path: Sequence[Link]) -> list[tuple[set, set, dict]]:
        """The distinct components that hold flows among ``path``'s links,
        in path order, each as :meth:`component` gives it."""
        out = []
        seen = set()
        size = len(self._parent)
        for link in path:
            idx = link.index
            if idx is None or idx >= size:
                continue
            r = self._find(idx)
            if r not in seen:
                seen.add(r)
                flows = self._flows.get(r)
                if flows:
                    out.append((flows, self._links[r], self._census[r]))
        return out

    def rebuild(self, live_flows) -> None:
        """Re-derive exact components from the live flow set."""
        self._parent = list(range(len(self._parent)))
        self._size = [1] * len(self._parent)
        self._flows = {}
        self._links = {}
        self._census = {}
        self.removals = 0
        self.nflows = 0
        for f in live_flows:
            self.add_flow(f)


def _cap_rate(flow: Flow) -> float:
    """The rate of a flow that shares none of its links: its cap, bounded
    by its links' capacities."""
    rate = min((link.capacity for link in flow.path), default=flow.rate_cap)
    return min(rate, flow.rate_cap)


class _Cohort:
    """Flows of one class that share a schedule (DESIGN.md §23).

    A class is the flows with one path and one rate cap: the solver always
    gives them one rate. A cohort is the class's flows that were last
    drained at one instant (``last_update``) and rate. ``flows`` lists them
    in fid order, with ``rems`` their residuals at ``last_update``, and
    ``dues``, ``stamps`` and ``tokens`` the finish each was given at the
    cohort's last reschedule. ``order`` lists the members in (due, stamp)
    order; only ``order[pos]``, the head, has a finish-queue entry. A
    member that leaves (spliced into its epoch, or finished early) is
    blanked to None in ``flows``; ``n`` counts the members left, and
    ``low`` is at most the smallest residual among them.
    """

    __slots__ = (
        "key", "flows", "rems", "rate", "last_update",
        "dues", "stamps", "tokens", "order", "pos", "n", "low",
    )

    def __init__(self, key: tuple) -> None:
        self.key = key  # the class: its members' Flow.key


def _carry(drains: list) -> None:
    """Add drained bytes to ``link.bytes_carried`` as per-flow drains would.

    Each drain is ``(flows, moved, path)``: flows in fid order that each
    moved ``moved`` bytes. On each link the adds run in fid order across
    drains, one add per flow per crossing, the float sequence that draining
    the flows one by one in fid order performs. k flows that moved the same
    amount add it k times, never ``k * moved`` once.
    """
    if len(drains) == 1:
        flows, moved, path = drains[0]
        for link in path:
            b = link.bytes_carried
            for _ in flows:
                b += moved
            link.bytes_carried = b
        return
    on: dict = {}
    for d in drains:
        for link in d[2]:
            on.setdefault(link, []).append(d)
    for link, ds in on.items():
        b = link.bytes_carried
        moved = ds[0][1]
        if all(d[1] == moved for d in ds):
            for _ in range(sum(len(d[0]) for d in ds)):
                b += moved
        else:
            # Different amounts: the order of the adds matters.
            for _, x in heapq.merge(*[[(f.fid, d[1]) for f in d[0]] for d in ds]):
                b += x
        link.bytes_carried = b


class FairShareNetwork:
    """Owns active flows and keeps their rates max-min fair as they come and go.

    Flow completions are data (DESIGN.md §23): a rate change gives each
    flow a due time and an engine position token. Rescheduling works per
    class: the flows of one class drained at one instant form a
    :class:`_Cohort`, which a rate change drains and reschedules in bulk,
    and only each cohort's earliest finisher has a ``(due, stamp, flow)``
    entry on the lazily invalidated finish queue. The engine wakes the
    network when the queue's head epoch starts, and the flows due then are
    spliced into that epoch where ``call_at`` at their last reschedule would
    have put them.
    """

    def __init__(self, engine: Engine):
        self.engine = engine
        self._next_fid = 0
        self.active: set[Flow] = set()
        self.flows_completed = 0
        self.queue: list[tuple[float, int, Flow]] = []  # finish heap
        self._stamps = 0  # last stamp issued; orders same-instant finishes
        self._stale = 0  # queue entries whose flow or cohort moved or left
        self._armed = _NEVER  # the engine wake this network holds
        self._hook = self._due_now
        self.components = ComponentIndex()
        self._next_link_idx = 0  # assigns Link.index on a link's first flow
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
        comp = self.components
        seen: set[Flow] = set()
        for link in links:
            for flow in list(link.flows):
                if flow in seen or flow.done:
                    continue
                if comp.stale():
                    comp.rebuild(f for f in self.active if f.path)
                seen.update(comp.component(flow)[0])
                self._rebalance(flow, refreshed=True)

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

    def pending_flows(self) -> set[Flow]:
        """Flows whose finish is still scheduled: each flow queued on its
        own, and every member left in a cohort whose head is queued."""
        out: set[Flow] = set()
        for _, stamp, flow in self.queue:
            if flow.stamp == stamp:
                if flow.cohort is None:
                    out.add(flow)
                else:
                    out.update(f for f in flow.cohort.flows if f is not None)
        return out

    def _withdraw(self, flow: Flow) -> None:
        """Drop a flow's own schedule, queued or already spliced."""
        if flow.token is not None:
            flow.token = None
            self._stale += 1
        elif flow.entry is not None:
            self.engine.discard(flow.entry)
            flow.entry = None
        flow.stamp = 0

    def _push_head(self, c: _Cohort) -> None:
        """Queue the cohort's first member at or after ``pos``, if any.

        It finishes no earlier than the member it follows, so the engine
        wake held for the queue still comes in time.
        """
        order = c.order
        flows = c.flows
        pos = c.pos
        end = len(order)
        while pos < end and flows[order[pos]] is None:
            pos += 1
        c.pos = pos
        if pos < end:
            i = order[pos]
            f = flows[i]
            f.due = due = c.dues[i]
            f.stamp = stamp = c.stamps[i]
            heapq.heappush(self.queue, (due, stamp, f))

    def _settle(self, c: _Cohort, i: int) -> Flow:
        """Take member ``i`` out of its cohort, with its rate, residual and
        ``last_update`` written back to the flow."""
        f = c.flows[i]
        c.flows[i] = None
        c.tokens[i] = None  # drops the bucket reference too
        c.n -= 1
        f.cohort = None
        f.rate = c.rate
        f.remaining = c.rems[i]
        f.last_update = c.last_update
        return f

    def _detach(self, c: _Cohort, i: int) -> Flow:
        """:meth:`_settle`, and drop the member's schedule: if it heads the
        queue, its entry goes stale and the next member takes its place."""
        f = self._settle(c, i)
        if f.stamp:
            f.stamp = 0
            self._stale += 1
            c.pos += 1
            self._push_head(c)
        return f

    def _schedule(
        self, singles: Sequence[Flow], batches: Sequence[_Cohort] = ()
    ) -> None:
        """Give each flow a fresh finish at its rate: each single flow on
        its own, and each cohort in bulk.

        A cohort comes with ``flows`` (one class's flows, in fid order),
        ``rems`` (drained to now) and ``rate`` set. Each flow's ``due = now
        + rem / rate`` is the float op ``call_after`` performed; stamps
        follow fid order (the singles come in fid order); each token
        records where ``call_after`` would have appended. So each finish
        fires exactly where the eager event would have.
        """
        engine = self.engine
        now = engine.now
        stamp = self._stamps
        issued = len(singles)
        for c in batches:
            issued += len(c.flows)
        self._stamps = stamp + issued
        rank = None
        if batches and (singles or len(batches) > 1):
            # Several runs: number their flows in fid order across them.
            fids = sorted(chain(
                map(_BY_FID, singles), *[map(_BY_FID, c.flows) for c in batches]
            ))
            rank = dict(zip(fids, range(stamp + 1, stamp + 1 + len(fids))))
        mark = engine.mark
        queue = self.queue
        push = heapq.heappush
        armed = self._armed
        for f in singles:
            due = now + f.remaining / f.rate
            if rank is None:
                stamp += 1
                s = stamp
            else:
                s = rank[f.fid]
            f.token = mark(due)
            f.due = due
            f.stamp = s
            push(queue, (due, s, f))
            if due < armed:
                armed = due
        for c in batches:
            flows = c.flows
            rems = c.rems
            rate = c.rate
            dues = [now + x / rate for x in rems]
            c.last_update = now
            c.dues = dues
            if rank is None:  # the one run
                c.stamps = range(stamp + 1, stamp + 1 + len(flows))
            else:
                c.stamps = list(map(rank.__getitem__, map(_BY_FID, flows)))
            c.tokens = engine.marks(dues)
            # A stable sort: equal dues keep fid order, which is stamp order.
            c.order = order = sorted(range(len(dues)), key=dues.__getitem__)
            c.pos = 0
            c.n = len(flows)
            c.low = min(rems)
            # Queue the head (``_push_head``, inlined: no member has left).
            i = order[0]
            f = flows[i]
            f.due = due = dues[i]
            f.stamp = s = c.stamps[i]
            push(queue, (due, s, f))
            if due < armed:
                armed = due
        if armed < self._armed:
            self._armed = armed
            engine.wake_at(armed, self._hook)
        stale = self._stale
        if stale > _QUEUE_COMPACT_MIN and 2 * stale > len(queue):
            queue[:] = [e for e in queue if e[2].stamp == e[1]]
            heapq.heapify(queue)
            self._stale = 0

    def _due_now(self, t: float) -> list[tuple[tuple, list]]:
        """Engine wake hook: hand over the flows that finish at ``t``.

        Each leaves the queue as a cancellable engine entry, paired with
        its position token, in stamp order; a cohort member leaves its
        cohort, and the next member takes its place in the queue. The
        engine splices the entries into ``t``'s epoch. The network then
        re-arms at the new head.
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
            c = flow.cohort
            if c is None:
                token = flow.token
                flow.token = None  # drops the bucket reference too
            else:
                i = c.order[c.pos]
                token = c.tokens[i]
                self._settle(c, i)
                c.pos += 1
                self._push_head(c)
            entry = [self._fire, (flow, stamp)]
            out.append((token, entry))
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
        # The flow holds no cohort place here: callers settle it first.
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
        flow.on_complete(flow)
        if had_links:
            self._rebalance(flow)

    def _rebalance(self, seed: Flow, refreshed: bool = False) -> None:
        """Bring the rates of ``seed``'s component up to date after ``seed``
        arrived or finished, or, with ``refreshed``, after its links'
        capacities changed."""
        now = self.engine.now
        done = seed.finish_time is not None
        # Fast path: the seed shares no link with any other flow, so its
        # max-min rate is simply its cap bounded by its link capacities —
        # the overwhelmingly common case on topology-aware trees, where a
        # link rarely carries more than one in-order data flow at a time.
        alone = not done and seed in self.active
        if alone:
            for link in seed.path:
                if len(link.flows) > 1:
                    alone = False
                    break
        if alone:
            c = seed.cohort
            if c is not None:
                # The last member of its cohort (only ``refresh`` rebalances
                # a lone flow that has a schedule): it goes on its own and
                # keeps its queue entry, with its token.
                i = c.order[c.pos]
                seed.token = c.tokens[i]
                self._settle(c, i)
            seed.drain(now)
            if seed.remaining <= _EPSILON_BYTES:
                self._finish(seed)
                return
            rate = _cap_rate(seed)
            if abs(rate - seed.rate) > _RATE_TOLERANCE * max(rate, seed.rate) or not seed.stamp:
                if seed.stamp:
                    self._withdraw(seed)
                seed.rate = rate
                self._schedule((seed,))
            if self.sanitizer is not None:
                self.sanitizer.check_rates((seed,), seed.path)
            return
        comp = self.components
        parts = None
        if comp.stale():
            comp.rebuild(f for f in self.active if f.path)
            if done:
                # A finished flow's links may now lie in several
                # components, and each one lost a flow.
                parts = comp.parts(seed.path)
        if parts is None:
            parts = [comp.component(seed)]
        # A component holds every link of the seed's path (after a split,
        # some of them and no others), so one with as many links as the
        # path has holds exactly those, each listed once. (A zero-byte flow
        # never joins its links; no rate moves at its finish either way.)
        settle = not refreshed and self.sanitizer is None
        npath = len(seed.path)
        finished: list[Flow] = []
        for comp_flows, comp_links, census in parts:
            if not comp_flows:
                continue
            if not (settle and len(comp_links) == npath
                    and self._keep_rates(seed, done, comp_flows, finished, now)):
                self._solve(seed, comp_flows, comp_links, census, finished)
        if len(finished) > 1:
            finished.sort(key=_BY_FID)
        for f in finished:
            self._finish(f)

    def _keep_rates(
        self, seed: Flow, done: bool, comp_flows: set, finished: list[Flow], now: float
    ) -> bool:
        """Settle the rebalance of an uncontended component without a solve,
        if it is one; return whether it was (DESIGN.md §23).

        It is when each link of the seed's path that carries two or more
        flows, the seed counted even once it has finished, has room for all
        their caps, and no flow of the component crosses a link twice. The
        caller has checked that the component's links are the seed's own,
        each once. Then every flow but the seed keeps its rate, so only the
        early-finish sweep of :meth:`_solve` runs: it adds the flows
        already drained to ``finished``. An arriving seed (``done`` false)
        gets :func:`_cap_rate` and its schedule.
        """
        cap = seed.rate_cap
        gone = 1 if done else 0
        crossings = 0
        for link in seed.path:
            on = link.flows
            n = len(on)
            crossings += n
            n += gone
            if n > 1:
                room = link.capacity * _HEADROOM
                # The seed's cap first: on a contended link that fails
                # before the scan for the largest cap.
                if n * cap > room or n * max(map(_BY_CAP, on)) > room:
                    return False
        # Each flow is in the ``flows`` of each of its links once, so the
        # counts match only if no path lists a link twice.
        if sum(map(len, map(_PATH, comp_flows))) != crossings:
            return False
        cohorts = None
        for f in comp_flows:
            c = f.cohort
            if c is None:
                # The predicted residual of a loose flow, as in _solve. An
                # arriving seed has rate 0 and at least one byte left.
                dt = now - f.last_update
                rate = f.rate
                if dt > 0.0 and rate > 0.0:
                    if f.remaining - rate * dt <= _EPSILON_BYTES:
                        finished.append(f)
                elif f.remaining <= _EPSILON_BYTES:
                    finished.append(f)
            elif cohorts is None:
                cohorts = {c}
            else:
                cohorts.add(c)
        if cohorts is not None:
            for c in cohorts:
                dt = now - c.last_update
                moved = c.rate * dt if dt > 0.0 else 0.0
                low = c.low
                if (low - moved if low > moved else 0.0) <= _EPSILON_BYTES:
                    self._sweep(c, moved, finished)
        if not done:
            seed.rate = rate = _cap_rate(seed)
            if rate > 0.0:
                self._schedule((seed,))
        return True

    def _sweep(self, c: _Cohort, moved: float, finished: list[Flow]) -> None:
        """Take out of ``c`` every member left with at most the epsilon once
        it drains ``moved`` bytes, into ``finished``; refresh ``low``."""
        flows = c.flows
        rems = c.rems
        c.low = low = min(compress(rems, flows))
        if (low - moved if low > moved else 0.0) <= _EPSILON_BYTES:
            for i, x in enumerate(rems):
                if flows[i] is not None and (
                    x - moved if x > moved else 0.0
                ) <= _EPSILON_BYTES:
                    finished.append(self._detach(c, i))  # _finish drains it

    def _solve(
        self, seed: Flow, comp_flows: set, comp_links: Collection[Link],
        census: dict, finished: list[Flow],
    ) -> None:
        """Solve the component's max-min rates after ``seed`` arrived or
        left, and reschedule the flows whose rate moved; the flows already
        drained go to ``finished``.

        ``comp_flows`` and ``census`` are the component index's own; this
        reads them and leaves them as they are.
        """
        now = self.engine.now
        # Links in name order: the solver breaks ties between equal shares
        # by link position. Its rates do not depend on the order of the
        # flows.
        comp_links = sorted(comp_links, key=_BY_NAME)
        if self.sanitizer is not None:
            # The sanitizer audits residuals too; give it a fully drained
            # view (the lazy drain below is invisible to it).
            self._drain_all(comp_flows, now)
        rates = maxmin_rates(comp_flows, comp_links, census)  # per class
        # Every member of a class gets one rate, so one per cohort is enough.
        # The other flows are loose: new arrivals, parked flows, and flows
        # scheduled on their own. They go in fid order. Cohorts go in any
        # order (DESIGN.md §23, "Per-class rescheduling").
        cohorts = dict.fromkeys(map(_COHORT, comp_flows))
        loose: Sequence[Flow] = ()
        if None in cohorts:
            del cohorts[None]
            nloose = len(comp_flows)
            for c in cohorts:
                nloose -= c.n
            if nloose == 1 and seed.cohort is None and seed in comp_flows:
                loose = (seed,)  # an arrival into cohorts: no second pass
            else:
                loose = sorted(
                    compress(comp_flows, map(not_, map(_COHORT, comp_flows))),
                    key=_BY_FID,
                )
        drains: list = []  # (flows, moved, path), for _carry
        groups: dict = {}  # class key -> [rate, cohort or flow, ...] to reschedule
        for c in cohorts:
            new_rate = rates[c.key]
            # Drain lazily: a cohort that keeps its rate (bystanders dragged
            # in by a shared link) keeps its residuals and schedule until
            # its rate changes or a member finishes. The epsilon test runs
            # on the *predicted* post-drain residual — the same IEEE-754 ops
            # a drain performs — so the finish decision is unchanged. Only
            # the smallest residual can pass it first; ``low`` bounds it
            # from below and is refreshed when it passes.
            rate = c.rate
            dt = now - c.last_update
            moved = rate * dt if dt > 0.0 else 0.0
            low = c.low
            if (low - moved if low > moved else 0.0) <= _EPSILON_BYTES:
                self._sweep(c, moved, finished)
            if not c.n:
                continue
            # Keep the schedule when the rate is unchanged — the common
            # case for cohorts dragged into a component by a link they
            # share with an unaffected neighbour.
            d = new_rate - rate
            if d < 0.0:
                d = -d
            if d <= _RATE_TOLERANCE * (new_rate if new_rate > rate else rate):
                continue
            # The rate moved: drain the cohort and dissolve its schedule.
            flows = c.flows
            rems = c.rems
            flows[c.order[c.pos]].stamp = 0  # its head's queue entry
            self._stale += 1
            if c.n < len(flows):
                rems = list(compress(rems, flows))
                flows = list(compress(flows, flows))
            if moved:
                rems = [x - moved if x > moved else 0.0 for x in rems]
                drains.append((flows, moved, c.key[0]))
            if new_rate > 0.0:
                c.flows = flows  # the live members, drained to now
                c.rems = rems
                g = groups.get(c.key)
                if g is None:
                    groups[c.key] = [new_rate, c]
                else:
                    g.append(c)
            else:
                # rate == 0 flows stay parked until a rebalance frees capacity.
                for f, x in zip(flows, rems):
                    f.cohort = None
                    f.rate = 0.0
                    f.remaining = x
                    f.last_update = now
        singles: list[Flow] = []
        for f in loose:  # in fid order
            new_rate = rates[f.key]
            rem = f.remaining
            rate = f.rate
            if rate > 0.0:
                dt = now - f.last_update
                if dt > 0.0:
                    rem = rem - rate * dt
                    if rem < 0.0:
                        rem = 0.0
            if rem <= _EPSILON_BYTES:
                finished.append(f)  # _finish drains it
                continue
            if f.stamp:
                # Keep the scheduled finish when the rate is unchanged.
                d = new_rate - rate
                if d < 0.0:
                    d = -d
                if d <= _RATE_TOLERANCE * (new_rate if new_rate > rate else rate):
                    continue
                # Withdraw it (``_withdraw``, inlined).
                if f.token is not None:
                    f.token = None
                    self._stale += 1
                elif f.entry is not None:
                    self.engine.discard(f.entry)
                    f.entry = None
                f.stamp = 0
            if drains:
                # Cohorts moved bytes too: _carry merges the adds by fid.
                if rate > 0.0 and now - f.last_update > 0.0:
                    drains.append(([f], rate * (now - f.last_update), f.path))
                f.remaining = rem
                f.last_update = now
            else:
                f.drain(now)
            f.rate = new_rate
            if new_rate > 0.0:
                singles.append(f)
        if drains:
            _carry(drains)
        if groups or (
            len(singles) > 1 and len(set(map(_PATH, singles))) < len(singles)
        ):
            # Flows of one class rescheduled together share a cohort; a flow
            # with no other flow of its class rescheduled keeps its own.
            # (Flows on distinct paths are of distinct classes.)
            for f in singles:
                g = groups.get(f.key)
                if g is None:
                    groups[f.key] = [f.rate, f]
                else:
                    g.append(f)
            singles = []
            batches = []
            for key, g in groups.items():
                if len(g) == 2:
                    src = g[1]
                    if type(src) is Flow:
                        singles.append(src)
                        continue
                    if len(src.flows) > 1:
                        src.rate = g[0]
                        batches.append(src)
                        continue
                c = self._merge(key, g[1:], now)
                if c is None:
                    f = g[1].flows[0]
                    f.rate = g[0]
                    singles.append(f)
                else:
                    c.rate = g[0]
                    batches.append(c)
            if len(singles) > 1:
                singles.sort(key=_BY_FID)
            self._schedule(singles, batches)
        elif singles:
            self._schedule(singles)
        if self.sanitizer is not None:
            self._expose(comp_flows)
            self.sanitizer.check_rates(comp_flows, comp_links)

    @staticmethod
    def _merge(key: tuple, sources: list, now: float) -> Optional[_Cohort]:
        """One class's rescheduled flows as one cohort, for :meth:`_schedule`.

        ``sources`` holds dissolved cohorts (``flows`` and ``rems`` set to
        their live members, drained to now) and single flows. They merge by
        fid into the largest cohort, or a new one, so only the flows from
        the other sources are re-pointed. A cohort left with one flow is
        dissolved instead: the flow goes on its own (None is returned).
        """
        c = max(
            (src for src in sources if type(src) is _Cohort),
            key=lambda src: len(src.flows), default=None,
        )
        if c is None:
            c = _Cohort(key)
            c.flows = []
            c.rems = []
        flows = c.flows
        rems = c.rems
        if len(sources) == 1 and len(flows) == 1:
            (f,) = flows
            f.cohort = None
            f.remaining = rems[0]
            f.last_update = now
            return None
        others = [src for src in sources if src is not c]
        if all(type(src) is Flow for src in others) and len(others) <= 1:
            # At most one flow joins a run (an arrival): insert it by fid.
            for f in others:
                if flows[-1].fid < f.fid:  # the newest flow, as a rule
                    flows.append(f)
                    rems.append(f.remaining)
                else:
                    j = bisect(list(map(_BY_FID, flows)), f.fid)
                    flows.insert(j, f)
                    rems.insert(j, f.remaining)
                f.cohort = c
            return c
        runs = [(flows, rems)]
        for src in others:
            if type(src) is Flow:
                runs.append(([src], [src.remaining]))
            else:
                runs.append((src.flows, src.rems))
            for f in runs[-1][0]:
                f.cohort = c
        rows = sorted(chain.from_iterable(
            zip(map(_BY_FID, fl), rm, fl) for fl, rm in runs
        ))
        _, c.rems, c.flows = map(list, zip(*rows))
        return c

    def _drain_all(self, comp_flows: list[Flow], now: float) -> None:
        """Drain every flow of a component to ``now``, schedules kept."""
        drains = []
        for c in dict.fromkeys(map(_COHORT, comp_flows)):
            if c is None:
                continue
            dt = now - c.last_update
            if dt > 0.0:
                moved = c.rate * dt
                c.rems = [x - moved if x > moved else 0.0 for x in c.rems]
                low = c.low
                c.low = low - moved if low > moved else 0.0
                drains.append((list(compress(c.flows, c.flows)), moved, c.key[0]))
            c.last_update = now
        for f in comp_flows:
            if f.cohort is None:
                dt = now - f.last_update
                if dt > 0.0 and f.rate > 0.0:
                    moved = f.rate * dt
                    rem = f.remaining - moved
                    f.remaining = rem if rem > 0.0 else 0.0
                    drains.append(([f], moved, f.path))
                f.last_update = now
        if drains:
            _carry(drains)

    def _expose(self, comp_flows: list[Flow]) -> None:
        """Write each cohort member's rate and residual back to the flow,
        for the sanitizer's audit."""
        for c in dict.fromkeys(map(_COHORT, comp_flows)):
            if c is not None:
                for f, x in zip(c.flows, c.rems):
                    if f is not None:
                        f.rate = c.rate
                        f.remaining = x
                        f.last_update = c.last_update
