"""Dependency-graph extraction from collective schedules.

A :class:`GraphRecorder` attaches to an :class:`~repro.mpi.runtime.MpiWorld`
as its ``observer`` and logs every posted send/recv, wait, completion
callback, and reduction as a graph node while the schedule runs. Transport
timing is irrelevant to the extracted structure, so recording runs are cheap:
no payloads are carried and the smallest test machine suffices.

Happens-before edges are classified the way Section 2 of the paper reasons
about them:

* ``data`` — the consumer uses the producer's bytes: the cross-rank
  send->recv match edge, a recv (or reduction) feeding a same-segment send or
  reduction, and provenance edges recovered by tag matching.
* ``sync`` — completion of one operation gates the posting of another that
  does *not* consume its data: the blocking-order edges of Section 2.1.1 and
  the ``Waitall`` barrier edges of Section 2.1.2. These are exactly the
  dependencies ADAPT's callback design removes; the linter certifies ADAPT
  schedules as having zero of them.
* ``flow`` — same-kind, same-peer window refills (the next send to a child
  posted when an earlier send to that child completes; the ``M``-deep recv
  window). These are resource constraints, not synchronization: they never
  couple siblings and appear in every pipelined schedule including ADAPT's.

Wait and callback nodes are linked into the graph with ``order`` edges so
lint findings can show the full causal path; certification counts only the
classified op->op dependency edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.mpi.request import Request

# Dependency-edge kinds (op -> op, what certification counts).
DATA = "data"
SYNC = "sync"
FLOW = "flow"
# Structural kind linking wait/callback nodes into the happens-before graph.
ORDER = "order"

_SYNC_VIA = {
    "wait": "blocking-order",
    "waitall": "waitall-barrier",
    "waitany": "blocking-order",
    "callback": "callback-order",
    "compute": "compute-order",
}


@dataclass
class OpNode:
    """One recorded runtime event (operation, wait, or callback)."""

    nid: int
    kind: str  # send|recv|reduce|compute|wait|waitall|waitany|callback
    rank: int
    peer: Optional[int] = None
    tag: Optional[int] = None
    nbytes: int = 0
    posted_at: float = 0.0
    completed_at: Optional[float] = None
    # True when the request was withdrawn (MPI_Cancel-like) rather than
    # delivered: resolved by identity, never counted as unmatched/leaked.
    cancelled: bool = False

    def describe(self) -> str:
        if self.kind == "send":
            return f"send[{self.rank}->{self.peer} tag={self.tag} {self.nbytes}B]"
        if self.kind == "recv":
            return f"recv[{self.rank}<-{self.peer} tag={self.tag} {self.nbytes}B]"
        if self.kind == "reduce":
            tag = "" if self.tag is None else f" tag={self.tag}"
            return f"reduce[rank {self.rank}{tag} {self.nbytes}B]"
        if self.kind == "compute":
            return f"compute[rank {self.rank}]"
        return f"{self.kind}[rank {self.rank}]"


@dataclass(frozen=True)
class DepEdge:
    """A happens-before edge between two graph nodes."""

    src: int
    dst: int
    kind: str  # data|sync|flow|order
    via: str   # match|provenance|blocking-order|waitall-barrier|...


@dataclass(frozen=True)
class BlockedWait:
    """A proclet left waiting at quiescence (deadlock/lint input)."""

    rank: int
    via: str
    waited_on: tuple[int, ...]   # node ids of every request in the gate
    pending: tuple[int, ...]     # the subset that never completed


@dataclass
class GraphStats:
    """World-level facts the linter folds into findings."""

    nranks: int = 0
    unexpected_eager: int = 0
    leftover_posted_recvs: int = 0
    leftover_inbound: int = 0
    posted_recvs_window: Optional[int] = None   # M
    inflight_sends_window: Optional[int] = None  # N


@dataclass
class DepGraph:
    """The extracted dependency DAG of one schedule."""

    nodes: dict[int, OpNode] = field(default_factory=dict)
    dep_edges: list[DepEdge] = field(default_factory=list)
    order_edges: list[DepEdge] = field(default_factory=list)
    blocked: list[BlockedWait] = field(default_factory=list)
    unmatched_sends: list[int] = field(default_factory=list)
    unmatched_recvs: list[int] = field(default_factory=list)
    stats: GraphStats = field(default_factory=GraphStats)
    meta: dict[str, Any] = field(default_factory=dict)

    # -- views ----------------------------------------------------------------

    def edges(self, kind: str) -> list[DepEdge]:
        return [e for e in self.dep_edges if e.kind == kind]

    def data_edges(self) -> list[DepEdge]:
        return self.edges(DATA)

    def sync_edges(self) -> list[DepEdge]:
        return self.edges(SYNC)

    def flow_edges(self) -> list[DepEdge]:
        return self.edges(FLOW)

    def sibling_coupling_edges(self) -> list[DepEdge]:
        """Sync edges coupling two transfers of one rank to *different* peers.

        These are the Figure 2 edges: under blocking or Waitall schedules a
        late sibling delays traffic to its peers; ADAPT has none.
        """
        out = []
        for e in self.sync_edges():
            a, b = self.nodes[e.src], self.nodes[e.dst]
            if (
                a.rank == b.rank
                and a.peer is not None
                and b.peer is not None
                and a.peer != b.peer
            ):
                out.append(e)
        return out

    def describe_edge(self, e: DepEdge) -> str:
        return (
            f"{self.nodes[e.src].describe()} -> {self.nodes[e.dst].describe()}"
            f" [{e.kind}/{e.via}]"
        )

    def has_cycle(self) -> Optional[list[int]]:
        """Return one cycle (node ids) in the happens-before graph, if any."""
        adj: dict[int, list[int]] = {nid: [] for nid in self.nodes}
        for e in self.dep_edges + self.order_edges:
            adj[e.src].append(e.dst)
        WHITE, GREY, BLACK = 0, 1, 2
        color = dict.fromkeys(adj, WHITE)
        for root in adj:
            if color[root] != WHITE:
                continue
            stack: list[tuple[int, Iterable[int]]] = [(root, iter(adj[root]))]
            color[root] = GREY
            path = [root]
            while stack:
                nid, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == GREY:
                        return path[path.index(nxt):] + [nxt]
                    if color[nxt] == WHITE:
                        color[nxt] = GREY
                        path.append(nxt)
                        stack.append((nxt, iter(adj[nxt])))
                        advanced = True
                        break
                if not advanced:
                    color[nid] = BLACK
                    path.pop()
                    stack.pop()
        return None


class GraphRecorder:
    """Observer that assembles a :class:`DepGraph` while a world runs.

    Attach with ``world.observer = recorder`` before launching the schedule;
    call :meth:`finalize` after the world quiesces.
    """

    def __init__(self, world: Any) -> None:
        self.world = world
        self.nodes: dict[int, OpNode] = {}
        self.dep_edges: list[DepEdge] = []
        self.order_edges: list[DepEdge] = []
        self._dep_seen: set[tuple[int, int]] = set()
        self._next_id = 0
        # Current posting context: (holder node id | None, via, gate node ids).
        self._ctx: list[tuple[Optional[int], str, tuple[int, ...]]] = []
        self._req_node: dict[Request, int] = {}
        # FIFO of unpaired send nodes per (src, dst, tag) for match edges.
        self._send_queue: dict[tuple[int, int, int], deque[int]] = {}
        self._matched_sends: set[int] = set()
        # Proclets still waiting (driver id -> (rank, via, requests)).
        self._waiting: dict[int, tuple[int, str, tuple[Request, ...]]] = {}

    # -- node/edge plumbing ----------------------------------------------------

    def _new_node(self, kind: str, rank: int, **kw: Any) -> OpNode:
        self._next_id += 1
        node = OpNode(
            nid=self._next_id, kind=kind, rank=rank,
            posted_at=self.world.engine.now, **kw,
        )
        self.nodes[node.nid] = node
        return node

    def _add_dep(self, src: int, dst: int, kind: str, via: str) -> None:
        if src == dst or (src, dst) in self._dep_seen:
            return
        self._dep_seen.add((src, dst))
        self.dep_edges.append(DepEdge(src, dst, kind, via))

    def _classify(self, g: OpNode, b: OpNode, via: str) -> tuple[str, str]:
        """Label the dependency of newly posted ``b`` on completed gate ``g``."""
        if (
            g.kind == b.kind
            and g.kind in ("send", "recv")
            and g.rank == b.rank
            and g.peer == b.peer
        ):
            return FLOW, "window"
        if g.kind in ("recv", "reduce", "compute") and b.kind in (
            "send", "reduce", "compute",
        ):
            consumes = (
                via == "callback"          # event-driven: callback forwards its payload
                or g.kind == "compute"
                or b.kind == "compute"
                or (g.tag is not None and g.tag == b.tag)
            )
            if consumes:
                return DATA, via
        return SYNC, _SYNC_VIA.get(via, via)

    def _link_from_context(self, b: OpNode) -> None:
        if not self._ctx:
            return
        holder, via, gates = self._ctx[-1]
        if holder is not None:
            self.order_edges.append(DepEdge(holder, b.nid, ORDER, "program"))
        for g in gates:
            kind, subvia = self._classify(self.nodes[g], b, via)
            self._add_dep(g, b.nid, kind, subvia)

    def _gate_ids(self, items: Sequence[Any]) -> tuple[int, ...]:
        ids = []
        for item in items:
            if isinstance(item, Request):
                nid = self._req_node.get(item)
                if nid is not None:
                    ids.append(nid)
            elif isinstance(item, int):
                ids.append(item)
        return tuple(ids)

    # -- runtime-facing hooks ---------------------------------------------------

    def op_posted(self, req: Request) -> None:
        """A send or recv was posted on its owning rank."""
        node = self._new_node(
            req.kind, req.rank, peer=req.peer, tag=req.tag, nbytes=req.nbytes
        )
        self._req_node[req] = node.nid
        self._link_from_context(node)
        if req.kind == "send":
            key = (req.rank, req.peer, req.tag)
            self._send_queue.setdefault(key, deque()).append(node.nid)

    def op_completed(self, req: Request) -> None:
        nid = self._req_node.get(req)
        if nid is None:
            return
        node = self.nodes[nid]
        node.completed_at = self.world.engine.now
        if req.kind == "recv":
            # Pair with the oldest unpaired send of the same (src, dst, tag):
            # the runtime matcher is FIFO within a key, so this mirrors it.
            queue = self._send_queue.get((req.peer, req.rank, req.tag))
            if queue:
                send_nid = queue.popleft()
                self._matched_sends.add(send_nid)
                self._add_dep(send_nid, nid, DATA, "match")

    def op_cancelled(self, req: Request) -> None:
        """A request was withdrawn (e.g. a recovery re-graft cancelling a
        recv from inside another request's completion callback).

        Resolution is by request identity: whatever schedule position the
        cancel happens at — including inside a callback registered after a
        wait already sampled its gates — the same node is marked resolved,
        so the linter never misreads the request as leaked.
        """
        nid = self._req_node.get(req)
        if nid is None:
            return
        node = self.nodes[nid]
        node.completed_at = self.world.engine.now
        node.cancelled = True
        if req.kind == "send":
            queue = self._send_queue.get((req.rank, req.peer, req.tag))
            if queue and nid in queue:
                queue.remove(nid)

    def run_callback(self, req: Request, fn: Callable[[Request], None]) -> None:
        """Execute a user completion callback inside a recorded context."""
        req_nid = self._req_node.get(req)
        cb = self._new_node("callback", req.rank)
        if req_nid is not None:
            self.order_edges.append(DepEdge(req_nid, cb.nid, ORDER, "callback"))
        gates = (req_nid,) if req_nid is not None else ()
        self._ctx.append((cb.nid, "callback", gates))
        try:
            fn(req)
        finally:
            self._ctx.pop()
            cb.completed_at = self.world.engine.now

    def wrap_reduce(
        self,
        rank: int,
        nbytes: int,
        tag: Optional[int],
        fn: Optional[Callable[..., Any]],
        args: tuple[Any, ...],
    ) -> Callable[[], None]:
        """Record a local reduction; returns the wrapped continuation."""
        node = self._new_node("reduce", rank, tag=tag, nbytes=nbytes)
        self._link_from_context(node)

        def _done() -> None:
            node.completed_at = self.world.engine.now
            self._ctx.append((node.nid, "callback", (node.nid,)))
            try:
                if fn is not None:
                    fn(*args)
            finally:
                self._ctx.pop()

        return _done

    # -- proclet-facing hooks ----------------------------------------------------

    def compute_posted(self, rank: int) -> int:
        """A proclet yielded Compute; returns the compute node id."""
        return self._new_node("compute", rank).nid

    def proclet_waiting(
        self, driver: Any, rank: int, via: str, requests: Sequence[Request]
    ) -> None:
        self._waiting[id(driver)] = (rank, via, tuple(requests))

    def proclet_not_waiting(self, driver: Any) -> None:
        self._waiting.pop(id(driver), None)

    def proclet_resume(self, rank: int, via: str, items: Sequence[Any]) -> bool:
        """Push the resumption context of a proclet wait. Returns a token
        (truthy) that must be passed to :meth:`proclet_pop`."""
        gates = self._gate_ids(items)
        if via in ("wait", "waitall", "waitany"):
            node = self._new_node(via, rank)
            node.completed_at = node.posted_at
            for g in gates:
                self.order_edges.append(DepEdge(g, node.nid, ORDER, via))
            self._ctx.append((node.nid, via, gates))
        elif via == "compute":
            for g in gates:
                gnode = self.nodes[g]
                if gnode.completed_at is None:
                    gnode.completed_at = self.world.engine.now
            holder = gates[0] if gates else None
            self._ctx.append((holder, "compute", gates))
        else:  # sleep or unknown: no dependency carried across
            self._ctx.append((None, via, ()))
        return True

    def proclet_pop(self, token: bool) -> None:
        if token:
            self._ctx.pop()

    # -- finalization -------------------------------------------------------------

    def _augment_data_edges(self) -> None:
        """Recover provenance edges the posting context missed.

        A send (or reduction) of segment tag ``t`` on rank ``r`` consumes
        every recv/reduction of tag ``t`` on ``r`` that completed before it
        was posted — even when the *posting* was triggered by an unrelated
        window refill (ADAPT's send window is the common case).
        """
        producers: dict[tuple[int, int], list[OpNode]] = {}
        for n in self.nodes.values():
            if n.kind in ("recv", "reduce") and n.tag is not None and n.completed_at is not None:
                producers.setdefault((n.rank, n.tag), []).append(n)
        for b in self.nodes.values():
            if b.kind not in ("send", "reduce") or b.tag is None:
                continue
            for g in producers.get((b.rank, b.tag), ()):
                if g.nid != b.nid and g.completed_at <= b.posted_at:
                    self._add_dep(g.nid, b.nid, DATA, "provenance")

    def finalize(self, meta: Optional[dict[str, Any]] = None) -> DepGraph:
        """Freeze recording into a :class:`DepGraph` (world must be quiescent)."""
        self._augment_data_edges()
        blocked = []
        for rank, via, reqs in self._waiting.values():
            ids = self._gate_ids(reqs)
            pending = tuple(
                self._req_node[r] for r in reqs
                if not r.completed and r in self._req_node
            )
            blocked.append(BlockedWait(rank=rank, via=via, waited_on=ids, pending=pending))
        unmatched_sends = [
            nid for queue in self._send_queue.values() for nid in queue
        ]
        unmatched_recvs = [
            nid for n in self.nodes.values()
            if n.kind == "recv" and n.completed_at is None
            for nid in (n.nid,)
        ]
        stats = GraphStats(nranks=self.world.nranks)
        stats.unexpected_eager = sum(
            rt.matcher.unexpected_eager_count for rt in self.world.ranks
        )
        stats.leftover_posted_recvs = sum(
            rt.matcher.pending_posted() for rt in self.world.ranks
        )
        stats.leftover_inbound = sum(
            rt.matcher.pending_inbound() for rt in self.world.ranks
        )
        return DepGraph(
            nodes=self.nodes,
            dep_edges=self.dep_edges,
            order_edges=self.order_edges,
            blocked=sorted(blocked, key=lambda b: b.rank),
            unmatched_sends=sorted(unmatched_sends),
            unmatched_recvs=sorted(unmatched_recvs),
            stats=stats,
            meta=dict(meta or {}),
        )


def record(
    world: Any, launch: Callable[[], Any], meta: Optional[dict[str, Any]] = None
) -> DepGraph:
    """Attach a recorder to ``world``, run ``launch()``, drive to quiescence,
    and return the extracted graph. The world must not already have an
    observer; recording composes with (but does not require) the sanitizer."""
    if world.observer is not None:
        raise RuntimeError("world already has an observer attached")
    recorder = GraphRecorder(world)
    world.observer = recorder
    try:
        launch()
        world.run()
    finally:
        world.observer = None
    meta = dict(meta or {})
    # Fault runs: the linter excuses operations stranded by fail-stopped
    # ranks (and flags survivor-to-survivor strands as recovery bugs).
    failed = getattr(world, "failed_ranks", None)
    if failed:
        meta.setdefault("failed_ranks", sorted(failed))
    return recorder.finalize(meta)
