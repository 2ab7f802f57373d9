"""Tree representation shared by every collective framework."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence


@dataclass
class Tree:
    """A rooted communication tree over communicator-local ranks.

    ``parent[r]`` is ``None`` for the root; ``children[r]`` is ordered — the
    order is semantically relevant for the blocking baseline, which services
    children strictly in this order (the synchronization-dependency ordering
    the paper's Figure 1 criticizes).
    """

    root: int
    parent: list[Optional[int]]
    children: list[list[int]]
    name: str = "tree"

    @property
    def size(self) -> int:
        return len(self.parent)

    def depth_of(self, rank: int) -> int:
        d = 0
        r: Optional[int] = rank
        while r is not None and r != self.root:
            r = self.parent[r]
            d += 1
        return d

    def height(self) -> int:
        return max(self.depth_of(r) for r in range(self.size))

    def max_fanout(self) -> int:
        return max((len(c) for c in self.children), default=0)

    def descendants(self, rank: int) -> Iterator[int]:
        """All ranks strictly below ``rank`` (preorder)."""
        stack = list(self.children[rank])
        while stack:
            r = stack.pop()
            yield r
            stack.extend(self.children[r])

    def validate(self) -> None:
        """Raise if the tree is not a spanning tree rooted at ``root``."""
        n = self.size
        if len(self.children) != n:
            raise ValueError("parent/children length mismatch")
        if not (0 <= self.root < n):
            raise ValueError(f"root {self.root} out of range")
        if self.parent[self.root] is not None:
            raise ValueError("root must have parent None")
        for r in range(n):
            for c in self.children[r]:
                if self.parent[c] != r:
                    raise ValueError(f"child link {r}->{c} not mirrored by parent[]")
        seen = {self.root}
        for r in self.descendants(self.root):
            if r in seen:
                raise ValueError(f"rank {r} reached twice (cycle or DAG)")
            seen.add(r)
        if len(seen) != n:
            missing = set(range(n)) - seen
            raise ValueError(f"tree does not span: missing ranks {sorted(missing)}")

    @staticmethod
    def from_parents(parent: Sequence[Optional[int]], root: int, name: str = "tree") -> "Tree":
        """Build (and validate) a tree from a parent array."""
        n = len(parent)
        children: list[list[int]] = [[] for _ in range(n)]
        for r, p in enumerate(parent):
            if p is not None:
                children[p].append(r)
        tree = Tree(root=root, parent=list(parent), children=children, name=name)
        tree.validate()
        return tree

    def reroot_relabelled(self, new_root: int) -> "Tree":
        """The same shape with ranks relabelled so ``new_root`` plays rank-0's
        role: rank ``r`` maps to ``(r + new_root) % size``.

        This is how collectives support arbitrary roots on shapes built for
        root 0 (standard MPI practice).
        """
        n = self.size
        shift = new_root - self.root

        def relabel(r: int) -> int:
            return (r + shift) % n

        parent = [None] * n
        for r in range(n):
            p = self.parent[r]
            if p is not None:
                parent[relabel(r)] = relabel(p)
        return Tree.from_parents(parent, relabel(self.root), name=self.name)
