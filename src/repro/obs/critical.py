"""Critical path through a recorded dependency graph.

Operates on the :class:`~repro.analysis.depgraph.DepGraph` the analyzer
extracts: the critical path is the heaviest chain of operations connected by
dependency edges, where each node weighs its own duration
(``completed_at - posted_at``). Over data edges alone this is the paper's
"longest data-dependency chain" — the lower bound no schedule of the same
tree can beat; sync edges added on top show how much of a blocking
schedule's makespan is self-inflicted ordering rather than data movement.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.depgraph import DepGraph


def _node_weight(graph: DepGraph, nid: int) -> float:
    node = graph.nodes[nid]
    if node.completed_at is None:
        return 0.0
    return max(0.0, node.completed_at - node.posted_at)


def critical_path(
    graph: DepGraph,
    kinds: tuple[str, ...] = ("data",),
) -> tuple[float, list[int]]:
    """Longest dependency chain, weighted by node durations.

    ``kinds`` selects which dependency-edge classes participate (any of
    ``data``/``sync``/``flow``). Returns ``(length_seconds, [nid, ...])``
    with the path in execution order. Raises :class:`ValueError` on a
    cyclic graph (a deadlocked schedule has no critical path).
    """
    wanted = set(kinds)
    succs: dict[int, list[int]] = {nid: [] for nid in graph.nodes}
    indeg: dict[int, int] = {nid: 0 for nid in graph.nodes}
    for e in graph.dep_edges:
        if e.kind not in wanted:
            continue
        succs[e.src].append(e.dst)
        indeg[e.dst] += 1

    # Kahn topological order; deterministic via sorted node ids.
    ready = sorted(nid for nid, d in indeg.items() if d == 0)
    order: list[int] = []
    best: dict[int, float] = {}
    pred: dict[int, Optional[int]] = {}
    for nid in ready:
        best[nid] = _node_weight(graph, nid)
        pred[nid] = None
    i = 0
    while i < len(ready):
        nid = ready[i]
        i += 1
        order.append(nid)
        base = best[nid]
        for dst in succs[nid]:
            cand = base + _node_weight(graph, dst)
            if dst not in best or cand > best[dst] or (
                cand == best[dst] and pred[dst] is not None
                and nid < pred[dst]  # deterministic tie-break
            ):
                best[dst] = cand
                pred[dst] = nid
            indeg[dst] -= 1
            if indeg[dst] == 0:
                ready.append(dst)
    if len(order) != len(graph.nodes):
        raise ValueError(
            "dependency graph has a cycle; no critical path "
            f"({len(graph.nodes) - len(order)} nodes unreachable)"
        )
    if not best:
        return 0.0, []
    end = max(best, key=lambda nid: (best[nid], -nid))
    path: list[int] = []
    cur: Optional[int] = end
    while cur is not None:
        path.append(cur)
        cur = pred[cur]
    path.reverse()
    return best[end], path
