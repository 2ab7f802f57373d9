"""Tree re-grafting: rebuild a spanning structure around dead ranks.

The recovery subsystem (``repro.recovery``) repairs a collective mid-flight
by re-routing the edges that touched a failed rank.  The pure graph half of
that lives here: given a tree and a failed set, compute who adopts whom and
what the survivor tree looks like.  The paper's structural argument is what
makes this sound — ADAPT schedules carry only true data dependencies, so a
dead child is an edge to re-route, never a ``Waitall`` the subtree is stuck
inside.

All functions are pure and deterministic: same tree + same failed set gives
the same re-graft, which is what keeps seeded recovery timelines
byte-identical across worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.trees.base import Tree


def nearest_live_ancestor(tree: Tree, rank: int, failed: set[int]) -> Optional[int]:
    """First ancestor of ``rank`` (walking towards the root) not in ``failed``.

    Returns ``None`` when every ancestor up to and including the root is dead
    — the orphan has no live attachment point and its subtree is lost to the
    distribution (bcast/scatter) or the root's view (gather/reduce).
    """
    p = tree.parent[rank]
    while p is not None and p in failed:
        p = tree.parent[p]
    return p


def live_descendants(tree: Tree, rank: int, failed: set[int]) -> list[int]:
    """Live ranks below ``rank`` reachable through any chain of dead
    intermediates — i.e. every survivor whose nearest live ancestor search
    would terminate at ``rank``'s subtree boundary."""
    out: list[int] = []
    stack = list(tree.children[rank])
    while stack:
        r = stack.pop()
        if r in failed:
            stack.extend(tree.children[r])
        else:
            out.append(r)
    return sorted(out)


@dataclass
class Regraft:
    """The repair decision for one (tree, failed-set) pair.

    ``adoptions`` maps each live orphan to its adopter (nearest live
    ancestor).  ``lost`` is the set of live ranks stranded below an
    all-dead root chain (only possible when the root itself died).
    ``survivor`` is the repaired tree over the original rank space with
    failed ranks detached (their parent/children entries cleared); it is
    *not* a spanning tree of ``range(size)`` and must not be validated as
    one — use :meth:`check` instead.
    """

    survivor: Tree
    adoptions: dict[int, int] = field(default_factory=dict)
    lost: set[int] = field(default_factory=set)

    def check(self, failed: set[int]) -> None:
        t = self.survivor
        for r in range(t.size):
            if r in failed:
                assert t.parent[r] is None and not t.children[r]
                continue
            if r in self.lost or r == t.root:
                continue
            p = t.parent[r]
            assert p is not None and p not in failed, f"rank {r} still orphaned"


def regraft_tree(tree: Tree, failed: Iterable[int]) -> Regraft:
    """Compute the survivor tree after ``failed`` ranks die.

    Every live orphan (live rank whose parent chain passes through a dead
    rank before reaching a live one) is re-parented onto its nearest live
    ancestor, preserving the original subtree order so repeated re-grafts
    commute with incremental ones: ``regraft(regraft(t, A).survivor, B)``
    equals ``regraft(t, A | B)`` on the survivor edges.
    """
    dead = set(failed)
    n = tree.size
    parent: list[Optional[int]] = list(tree.parent)
    children: list[list[int]] = [list(c) for c in tree.children]
    adoptions: dict[int, int] = {}
    lost: set[int] = set()

    if tree.root in dead:
        # Root-chain death: everything below becomes unreachable from the
        # source of a distribution / unreachable to the sink of a gather.
        for r in range(n):
            if r not in dead:
                lost.add(r)
        for r in range(n):
            parent[r] = None if r == tree.root or r in dead else parent[r]
            if r in dead:
                children[r] = []
        # Detach edges into dead ranks so the structure stays consistent.
        for r in range(n):
            children[r] = [c for c in children[r] if c not in dead]
            if parent[r] is not None and parent[r] in dead:
                parent[r] = None
        surv = Tree(root=tree.root, parent=parent, children=children,
                    name=f"{tree.name}-regraft")
        return Regraft(survivor=surv, adoptions={}, lost=lost)

    for r in range(n):
        if r in dead or r == tree.root:
            continue
        p = tree.parent[r]
        if p is None or p not in dead:
            continue
        adopter = nearest_live_ancestor(tree, r, dead)
        assert adopter is not None  # root is live on this path
        adoptions[r] = adopter

    # Rewire: drop dead ranks' edges, append orphans to the adopter's child
    # list in ascending rank order (deterministic).
    for r in range(n):
        children[r] = [c for c in children[r] if c not in dead]
    for orphan in sorted(adoptions):
        adopter = adoptions[orphan]
        parent[orphan] = adopter
        children[adopter].append(orphan)
    for r in sorted(dead):
        parent[r] = None
        children[r] = []

    surv = Tree(root=tree.root, parent=parent, children=children,
                name=f"{tree.name}-regraft")
    return Regraft(survivor=surv, adoptions=adoptions, lost=lost)


def live_ring(members: Sequence[int], failed: Iterable[int]) -> list[int]:
    """The survivor ring: ``members`` in order with failed ranks removed.

    Ring collectives (allgather, reduce_scatter) restart on this ring after
    a membership shrink; keeping the original order keeps block placement
    deterministic.
    """
    dead = set(failed)
    return [m for m in members if m not in dead]
