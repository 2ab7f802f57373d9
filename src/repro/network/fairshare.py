"""Max-min fair bandwidth allocation with per-flow rate caps.

The allocator implements classic *progressive filling*: repeatedly find the
most constrained resource — either the bottleneck link (smallest remaining
capacity per unfixed flow) or a flow whose cap is below that share — fix the
corresponding flows' rates, subtract them from the links they cross, repeat.

Rates only change when the set of active flows changes, and only within the
connected component of links/flows reachable from the changed flow's path;
disjoint components provably do not affect each other's max-min allocation,
so recomputation is local and large simulations stay fast. The network finds
a component exactly, at the time it needs it, by walking from a link to the
flow classes live on it and from a class to the links of its path.
"""

from __future__ import annotations

import heapq
from bisect import bisect
from collections import Counter
from itertools import chain, compress
from operator import attrgetter, itemgetter
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
_COHORT = attrgetter("cohort")
_KEY = attrgetter("key")  # a flow's class: (path, rate_cap)
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


class _LoneRates(dict):
    """Each class's lone rate, ``{Flow.key: rate}``: the rate of a flow
    that shares none of its links, its cap bounded by each link's capacity
    over the times the path crosses it. Filled on first use; a capacity
    change clears it (:meth:`FairShareNetwork.refresh`)."""

    def __missing__(self, key: tuple) -> float:
        path, cap = key
        rate = self[key] = min(
            min((link.capacity / path.count(link) for link in path), default=cap), cap
        )
        return rate


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
    ``low`` is at most the smallest residual among them. A cohort whose
    rate moved in the current instant has no schedule until the settle:
    ``flows`` and ``rems`` are then its members, drained to now.
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


# The stamp of a loose flow whose fresh finish waits for the settle.
_PENDING = -1


class FairShareNetwork:
    """Owns active flows and keeps their rates max-min fair as they come and go.

    Flow completions are data (DESIGN.md §23): a rate change gives each
    flow a due time and an engine position token. Rescheduling works per
    class: the flows of one class drained at one instant form a
    :class:`_Cohort`, and only each cohort's earliest finisher has a
    ``(due, stamp, flow)`` entry on the lazily invalidated finish queue.
    The engine wakes the network when the queue's head epoch starts, and
    the flows due then are spliced into that epoch where ``call_at`` at
    their last reschedule would have put them. A flow rescheduled while no
    settle is pending (a lone arrival, as a rule) skips the queue: its
    finish is posted into its epoch at once, as that ``call_at`` would.

    A rebalance runs in two halves. The *class half* runs at once: it
    solves the component's class rates, finishes the flows already drained,
    and moves each cohort or loose flow whose rate left the tolerance to
    its new rate, drained to now. The *flow half* gives the moved flows
    their due times, stamps and tokens. It runs once per instant, at the
    *settle* (:meth:`_settle`), for the last move of each.
    """

    def __init__(self, engine: Engine):
        self.engine = engine
        self._next_fid = 0
        self.active: set[Flow] = set()
        self.flows_completed = 0
        self.queue: list[tuple[float, int, Flow]] = []  # finish heap
        self._stamps = 0  # last stamp issued; orders same-instant finishes
        self._stale = 0  # queue entries whose flow or cohort moved or left
        self._armed = _NEVER  # the finish-queue wake this network holds
        self._hook = self._due_now
        # Each class's live flow count, {Flow.key: n}; each link lists the
        # classes live on it in ``Link.classes``.
        self._census: dict[tuple, int] = {}
        # Each class's holders, {Flow.key: {cohort or loose flow: None}}:
        # every active flow with links is a loose flow or in one cohort.
        self._holders: dict[tuple, dict] = {}
        # The instant's moves, for the settle: each moved cohort or loose
        # flow with the step of its last move, and each step's position in
        # the engine's post journal.
        self._moved: dict = {}
        self._steps: list[int] = []
        self._audits: list[tuple] = []  # (flows, links) for the sanitizer
        self._handoff: Optional[list] = None  # the finish worklist, in a cascade
        self._lone_rates = _LoneRates()
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
        now = self.engine.now
        flow.start_time = now
        if latency > 0.0:
            self.engine.post_at(now + latency, self._activate, flow)
        else:
            self._activate(flow)
        return flow

    def refresh(self, links: Sequence[Link]) -> None:
        """Recompute rates after an external capacity change (link flap).

        Rates normally change only when the flow set changes; a bandwidth
        flap (repro.faults) changes ``Link.capacity`` under live flows, so
        each affected connected component must be rebalanced once.
        Every ``Link.capacity`` write must be followed by ``refresh()``: it
        also drops the cached lone rates.
        """
        self._lone_rates.clear()
        seen: set[Flow] = set()
        for link in links:
            for flow in list(link.flows):
                if flow in seen or flow.done:
                    continue
                # A live flow's class is on each of its links: one component.
                parts = self._components(flow.path)
                seen.update(parts[0][0])
                self._rebalance(flow, parts)

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
        key = flow.key
        n = self._census.get(key, 0)
        self._census[key] = n + 1
        for link in flow.path:
            link.flows.add(flow)
            if not n:  # the class appears on its links
                link.classes[key] = None
        self._holders.setdefault(key, {})[flow] = None
        self._rebalance(flow)

    def _drop(self, h) -> None:
        """Unregister a holder: a cohort emptied or merged away, or a loose
        flow that joined a cohort or finished."""
        held = self._holders[h.key]
        del held[h]
        if not held:
            del self._holders[h.key]

    # -- the finish queue -----------------------------------------------------

    def pending_flows(self) -> set[Flow]:
        """Flows whose finish is still scheduled: each flow queued on its
        own, every member left in a cohort whose head is queued, every
        flow moved in this instant, whose finish the settle gives it, and
        every flow whose finish is an engine entry (posted, or spliced and
        not yet fired)."""
        out: set[Flow] = {f for f in self.active if f.entry is not None}
        for _, stamp, flow in self.queue:
            if flow.stamp == stamp:
                if flow.cohort is None:
                    out.add(flow)
                else:
                    out.update(f for f in flow.cohort.flows if f is not None)
        for h in self._moved:
            if type(h) is _Cohort:
                out.update(h.flows)
            else:
                out.add(h)
        return out

    def _withdraw(self, flow: Flow) -> None:
        """Drop a flow's own schedule: queued, posted or spliced, or
        awaiting the settle."""
        if flow.token is not None:
            flow.token = None
            self._stale += 1
        elif flow.entry is not None:
            self.engine.discard(flow.entry)
            flow.entry = None
        elif flow.stamp == _PENDING:
            del self._moved[flow]
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

    def _release(self, c: _Cohort, i: int) -> Flow:
        """Take member ``i`` out of its cohort, with its rate, residual and
        ``last_update`` written back to the flow, which goes loose."""
        f = c.flows[i]
        c.flows[i] = None
        c.tokens[i] = None  # drops the bucket reference too
        c.n -= 1
        if not c.n:
            self._drop(c)
        f.cohort = None
        f.rate = c.rate
        f.remaining = c.rems[i]
        f.last_update = c.last_update
        self._holders.setdefault(f.key, {})[f] = None
        return f

    def _detach(self, c: _Cohort, i: int) -> Flow:
        """:meth:`_release`, and drop the member's schedule: if it heads the
        queue, its entry goes stale and the next member takes its place."""
        f = self._release(c, i)
        if f.stamp:
            f.stamp = 0
            self._stale += 1
            c.pos += 1
            self._push_head(c)
        return f

    def _schedule(
        self, singles: Sequence[Flow], batches: Sequence[_Cohort], since: Optional[int]
    ) -> None:
        """Give each flow a fresh finish at its rate: each single flow on
        its own, and each cohort in bulk.

        A cohort comes with ``flows`` (one class's flows, in fid order),
        ``rems`` (drained to now) and ``rate`` set. Each flow's ``due = now
        + rem / rate`` is the float op ``call_after`` performed; stamps
        follow fid order (the singles come in fid order); each token
        records where ``call_after`` would have appended when the engine's
        post journal held ``since`` entries. So each finish fires exactly
        where the eager event would have.

        With no settle pending (``since`` None) the reschedule is now, and
        so is the eager event: a single flow's finish is posted at once
        (:meth:`Engine.post_entry`), with no token, no queue entry and no
        wake. The flow is then in the state of a spliced one, its ``entry``
        set, until it fires or :meth:`_withdraw` discards it.
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
        queue = self.queue
        push = heapq.heappush
        armed = self._armed
        mark = engine.mark
        for f in singles:
            due = now + f.remaining / f.rate
            if rank is None:
                stamp += 1
                s = stamp
            else:
                s = rank[f.fid]
            f.due = due
            f.stamp = s
            if since is None:
                f.entry = entry = [self._fire, (f, s)]
                engine.post_entry(due, entry)
                continue
            f.token = mark(due, since)
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
            c.tokens = engine.marks(dues, since)
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

    def _step(self) -> int:
        """Number a step of this instant that moves a rate (or that the
        sanitizer audits).

        Its moves settle at the instant's end: the first step asks the
        engine to wake the network at ``now`` once the current bucket has
        run, and opens the engine's post journal. Outside a run no callback
        can come between, so :meth:`_rebalance` settles at once.
        """
        steps = self._steps
        engine = self.engine
        if not steps and engine.running:
            engine.wake_at(engine.now, self._hook)
        steps.append(engine.journal())
        return len(steps) - 1

    def _settle(self) -> None:
        """The settle: the flow half of the instant's rebalances (§23).

        Each cohort or loose flow moved during the instant gets its finish
        at the rate it last moved to, in one :meth:`_schedule` call per
        step, in step order. So the stamps follow (step of the last move,
        fid), and each token is the one the journal says :meth:`Engine.mark`
        gave at that step. The holders of one class moved last at one step
        merge into one cohort, as the eager reschedule merged them.
        """
        moved = self._moved
        steps = self._steps
        self._moved = {}
        self._steps = []
        runs: dict[int, dict] = {}  # step -> class key -> its moved holders
        for h, s in moved.items():
            runs.setdefault(s, {}).setdefault(h.key, []).append(h)
        for s in sorted(runs):
            singles: list[Flow] = []
            batches: list[_Cohort] = []
            for key, held in runs[s].items():
                if len(held) > 1:
                    batches.append(self._merge(key, held))
                elif type(held[0]) is Flow:
                    singles.append(held[0])
                else:
                    batches.append(held[0])
            if len(singles) > 1:
                singles.sort(key=_BY_FID)
            self._schedule(singles, batches, steps[s])
        self.engine.close_journal()
        if self._audits:
            audits = self._audits
            self._audits = []
            for flows, links in audits:
                self._expose(flows)
                self.sanitizer.check_rates(flows, links)

    def _due_now(self, t: float) -> list[tuple[tuple, list]]:
        """Engine wake hook: settle the instant, then hand over the flows
        that finish at ``t``.

        Each leaves the queue as a cancellable engine entry, paired with
        its position token, in stamp order; a cohort member leaves its
        cohort, and the next member takes its place in the queue. The
        engine splices the entries into ``t``'s epoch. The network then
        re-arms at the new head. A wake at the end of an instant, for the
        settle alone, hands over nothing and re-arms at the head.
        """
        if self._steps:
            armed = self._armed
            self._settle()
            if self._armed != t:
                # The settle's wake took the place of the one held for the
                # queue head: take it back, unless the settle queued an
                # earlier head and woke for it.
                if self._armed == armed and t < armed < _NEVER:
                    self.engine.wake_at(armed, self._hook)
                return []
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
                self._release(c, i)
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
        """Finish ``flow``, then each flow its rebalance finds drained.

        A finish cascade goes depth first, in the order nested calls would
        take, on a worklist: :meth:`_rebalance` hands its fid-sorted
        ``finished`` back through ``_handoff`` instead of finishing them.
        """
        stack: list = []
        while True:
            if not flow.done and self._retire(flow):
                self._handoff = stack
                self._rebalance(flow)
            while stack:
                flow = next(stack[-1], None)
                if flow is not None:
                    break
                stack.pop()
            else:
                return

    def _retire(self, flow: Flow) -> bool:
        """Drain the flow, take it off its links and run its callback;
        return whether it had links (and so needs a rebalance)."""
        # The flow holds no cohort place here: callers settle it first.
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
            if flow.nbytes > 0:  # a flow with bytes and links is counted and held
                key = flow.key
                held = self._holders[key]
                del held[flow]
                if not held:
                    del self._holders[key]
                n = self._census[key] - 1
                if n:
                    self._census[key] = n
                else:  # the class leaves its links
                    del self._census[key]
                    for link in flow.path:
                        link.classes.pop(key, None)  # a path may cross a link twice
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
        return had_links

    def _rebalance(self, seed: Flow, parts: Optional[list] = None) -> None:
        """The class half: bring the rates of ``seed``'s component up to
        date after ``seed`` arrived or finished, or, given ``parts``, the
        components :meth:`refresh` found, after its links' capacities
        changed; then finish the flows found drained (:meth:`_conclude`)."""
        finished: list[Flow] = []
        if parts is None:
            if self._keep_rates(seed, finished, self.engine.now):
                parts = ()
                kept = seed.path[0].flows  # the seed's class, if it is live
                if self.sanitizer is not None and kept:
                    self._audit(kept, seed.path)
            else:
                parts = self._components(seed.path)
        for comp_flows, comp_links, census in parts:
            self._solve(comp_flows, comp_links, census, finished)
            if self.sanitizer is not None:
                self._audit(comp_flows, comp_links)
        if len(finished) > 1:
            finished.sort(key=_BY_FID)
        self._conclude(finished)

    def _components(self, path: Sequence[Link]) -> list[tuple]:
        """The exact components that hold flows on ``path``'s links, in path
        order, each as ``(flows, links, census)`` (DESIGN.md §23).

        The walk goes from a link to the classes live on it, and from a
        class to the links of its path: a class's flows share that path, so
        it visits classes, never flows. A component of one class has its
        first link's own flow set as ``flows``, since each of its flows
        crosses that link; a larger one has the union of its links' sets.
        """
        census = self._census
        out = []
        seen: set[Link] = set()
        for start in path:
            if start in seen or not start.classes:
                continue
            seen.add(start)
            links = [start]
            comp: dict[tuple, int] = {}
            for link in links:  # the list grows as the walk reaches links
                for key in link.classes:
                    if key not in comp:
                        comp[key] = census[key]
                        for other in key[0]:
                            if other not in seen:
                                seen.add(other)
                                links.append(other)
            if len(comp) == 1:
                flows = start.flows
            else:
                flows = set().union(*[link.flows for link in links])
            out.append((flows, links, comp))
        return out

    def _move_seed(self, seed: Flow) -> None:
        """Reschedule a seed that alone moved in its rebalance (an arrival
        into an uncontended component, a lone one among them): at once,
        unless moves of this instant wait for the settle, which must stamp
        them first."""
        if self._steps:
            seed.stamp = _PENDING
            self._moved[seed] = self._step()
        else:
            self._schedule((seed,), (), None)

    def _conclude(self, finished: Sequence[Flow]) -> None:
        """End a rebalance: outside a run, settle at once; then finish the
        flows it found drained, in fid order, or hand them to the finish
        cascade that ran it."""
        if self._steps and not self.engine.running:
            self._settle()
        stack = self._handoff
        if stack is None:
            for f in finished:
                self._finish(f)
        else:
            self._handoff = None
            if finished:
                stack.append(iter(finished))

    def _audit(self, flows: Collection[Flow], links: Collection[Link]) -> None:
        """Have the sanitizer check a component's rates at the settle."""
        self._audits.append((flows, links))
        if not self._steps:
            self._step()

    def _keep_rates(self, seed: Flow, finished: list[Flow], now: float) -> bool:
        """Settle the rebalance of an uncontended component without a solve,
        if it is one; return whether it was (DESIGN.md §23).

        It is when each link of the seed's path carries only the seed's
        class, ``k`` flows, and has room for all their caps: ``n * cap``
        under the headroom, with ``n`` the class's flows, the seed counted
        even once it has finished. One flow (``n`` of 1) needs no room. A
        path that crosses a link twice puts more than ``n`` crossings on
        it, so only one flow keeps there. Then every flow but the seed
        keeps its rate, so only the early-finish sweep of :meth:`_solve`
        runs, over the class's holders: it adds the flows already drained
        to ``finished``. An arriving seed moves to its lone rate
        (:class:`_LoneRates`).
        """
        done = seed.finish_time is not None
        key = seed.key
        k = self._census.get(key, 0)
        n = k + done
        path = seed.path
        need = 0.0  # the room the class's caps take on each link
        if n > 1:
            if len(set(path)) < len(path):
                return False
            need = n * seed.rate_cap
        for link in path:
            if len(link.flows) != k or need > link.capacity * _HEADROOM:
                return False
        for h in tuple(self._holders.get(key, ())):  # _sweep edits them
            dt = now - h.last_update
            rate = h.rate
            if type(h) is _Cohort:
                moved = rate * dt if dt > 0.0 else 0.0
                low = h.low
                if (low - moved if low > moved else 0.0) <= _EPSILON_BYTES:
                    self._sweep(h, moved, finished)
            # The predicted residual of a loose flow, as in _solve. An
            # arriving seed has rate 0 and at least one byte left.
            elif dt > 0.0 and rate > 0.0:
                if h.remaining - rate * dt <= _EPSILON_BYTES:
                    finished.append(h)
            elif h.remaining <= _EPSILON_BYTES:
                finished.append(h)
        if not done:
            seed.rate = rate = self._lone_rates[key]
            if rate > 0.0:
                self._move_seed(seed)
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
        self, comp_flows: set, comp_links: Collection[Link], census: dict,
        finished: list[Flow],
    ) -> None:
        """Solve the component's max-min rates and move each of its cohorts
        and loose flows whose rate left the tolerance; the flows already
        drained go to ``finished``.

        ``comp_flows`` and ``census`` are :meth:`_components`' own; this
        reads them and leaves them as they are. It walks the component's
        holders, found by class, not its flows.

        Every class rate is positive: capacities and caps are, and each
        round of the solver fixes a share of at most ``remaining / count``
        on every link it crosses, so a link keeps some residual while it
        still carries an unfixed flow.
        """
        now = self.engine.now
        # Links in name order: the solver breaks ties between equal shares
        # by link position. Its rates do not depend on the order of the
        # flows.
        comp_links = sorted(comp_links, key=_BY_NAME)
        rates = maxmin_rates(comp_flows, comp_links, census)  # per class
        holders = self._holders
        moved = self._moved
        step = None  # numbered at the first move
        drains: list = []  # (flows, moved, path), for _carry
        for key in census:
            new_rate = rates[key]
            for h in tuple(holders[key]):
                if type(h) is _Cohort:
                    c = h
                    # Drain lazily: a cohort that keeps its rate keeps its
                    # residuals and schedule until its rate changes or a
                    # member finishes. The epsilon test runs on the
                    # *predicted* post-drain residual — the same IEEE-754
                    # ops a drain performs — so the finish decision is
                    # unchanged. Only the smallest residual can pass it
                    # first; ``low`` bounds it from below and is refreshed
                    # when it passes.
                    rate = c.rate
                    dt = now - c.last_update
                    m = rate * dt if dt > 0.0 else 0.0
                    low = c.low
                    if (low - m if low > m else 0.0) <= _EPSILON_BYTES:
                        self._sweep(c, m, finished)
                        if not c.n:
                            continue
                    d = new_rate - rate
                    if d < 0.0:
                        d = -d
                    if d <= _RATE_TOLERANCE * (new_rate if new_rate > rate else rate):
                        continue
                    if c not in moved:
                        # Its first move this instant: drain it and dissolve
                        # its schedule. A moved cohort holds no queue entry.
                        flows = c.flows
                        rems = c.rems
                        flows[c.order[c.pos]].stamp = 0  # its head's entry
                        self._stale += 1
                        if c.n < len(flows):
                            rems = list(compress(rems, flows))
                            flows = list(compress(flows, flows))
                        if m:
                            rems = [x - m if x > m else 0.0 for x in rems]
                            drains.append((flows, m, key[0]))
                            low = c.low
                            c.low = low - m if low > m else 0.0
                        c.flows = flows
                        c.rems = rems
                        c.last_update = now
                    if len(c.flows) == 1:
                        # A cohort of one goes loose.
                        (h,) = c.flows
                        self._drop(c)
                        h.cohort = None
                        h.remaining = c.rems[0]
                        h.last_update = now
                        h.rate = new_rate
                        h.stamp = _PENDING
                        self._holders.setdefault(h.key, {})[h] = None
                    else:
                        c.rate = new_rate
                    if step is None:
                        step = self._step()
                    moved[h] = step
                    continue
                # A loose flow: a new arrival or a flow scheduled on its own.
                f = h
                rem = f.remaining
                rate = f.rate
                dt = now - f.last_update
                if rate > 0.0 and dt > 0.0:
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
                    self._withdraw(f)
                if rate > 0.0 and dt > 0.0:
                    drains.append(([f], rate * dt, f.path))
                f.remaining = rem
                f.last_update = now
                f.rate = new_rate
                f.stamp = _PENDING
                if step is None:
                    step = self._step()
                moved[f] = step
        if drains:
            _carry(drains)

    def _merge(self, key: tuple, sources: list) -> _Cohort:
        """One class's holders moved last at one step as one cohort, for
        :meth:`_schedule`.

        ``sources`` holds two or more moved cohorts (``flows`` and ``rems``
        their members, drained to now) and loose flows. They merge by fid
        into the largest cohort, or a new one, so only the flows from the
        other sources are re-pointed.
        """
        c = max(
            (src for src in sources if type(src) is _Cohort),
            key=lambda src: len(src.flows), default=None,
        )
        if c is None:
            c = _Cohort(key)
            c.flows = []
            c.rems = []
            c.rate = sources[0].rate
            self._holders.setdefault(key, {})[c] = None
        flows = c.flows
        rems = c.rems
        others = [src for src in sources if src is not c]
        for src in others:
            self._drop(src)
        if len(others) == 1 and type(others[0]) is Flow and flows:
            # One flow joins a run (an arrival, as a rule): insert it by fid.
            (f,) = others
            if flows[-1].fid < f.fid:  # the newest flow, as a rule
                flows.append(f)
                rems.append(f.remaining)
            else:
                j = bisect(list(map(_BY_FID, flows)), f.fid)
                flows.insert(j, f)
                rems.insert(j, f.remaining)
            f.cohort = c
            f.stamp = 0
            return c
        runs = [(flows, rems)]
        for src in others:
            if type(src) is Flow:
                src.stamp = 0
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
