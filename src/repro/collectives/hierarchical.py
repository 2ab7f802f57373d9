"""Multi-communicator hierarchical collectives — the Section 3.1 baseline.

The approach ADAPT's single topology-aware tree replaces: ranks are grouped
by node, a leader communicator spans the node leaders, and the collective
runs as two *chained phases* — for broadcast, the leader-level operation
first, then each leader's intra-node operation **only after its own
leader-level part finished**. The phases never overlap on a given rank,
which is exactly the deficit Section 3.2's single-tree design removes.

This models Intel MPI's "SHM-based" algorithm family and MVAPICH's two-level
collectives (Figure 8's legends): the ``outer``/``inner`` shapes select the
leader-level and intra-node trees.

Both operations are exposed as classes with a ``launch(ranks)`` method so
the IMB-style runner can chain iterations per rank; for broadcast only the
*leaders* are self-starting (``chain_ranks``) — every other rank's
participation is launched by its leader's phase boundary, as in real
multi-communicator implementations where the intra-node bcast is entered
when the rank calls the collective but only progresses once the leader has
the data.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.collectives.base import CollectiveContext, CollectiveHandle
from repro.collectives.nonblocking import bcast_nonblocking, reduce_nonblocking
from repro.machine.spec import CommLevel
from repro.mpi.communicator import Communicator
from repro.trees.base import Tree
from repro.trees.builders import (
    binary_tree,
    binomial_tree,
    chain_tree,
    flat_tree,
    kary_tree,
    knomial_tree,
)

_SHAPES = {
    "chain": chain_tree,
    "flat": flat_tree,
    "binary": binary_tree,
    "binomial": binomial_tree,
    "kary4": lambda n: kary_tree(n, 4),
    "knomial4": lambda n: knomial_tree(n, 4),
}


def _shape(name: str, n: int, root_local: int) -> Tree:
    tree = _SHAPES[name](n)
    return tree.reroot_relabelled(root_local) if root_local else tree


def _node_groups(ctx: CollectiveContext) -> tuple[list[list[int]], list[int]]:
    """Group communicator-local ranks by node; pick leaders (root preferred)."""
    topo = ctx.world.topology
    groups: dict[tuple, list[int]] = {}
    for local in range(ctx.comm.size):
        key = topo.group_key(ctx.comm.world_rank(local), CommLevel.INTER_SOCKET)
        groups.setdefault(key, []).append(local)
    ordered = [sorted(g) for g in groups.values()]
    ordered.sort(key=lambda g: g[0])
    leaders = [ctx.root if ctx.root in g else g[0] for g in ordered]
    return ordered, leaders


class HierarchicalBcast:
    """Leader-level bcast chained into per-node bcasts."""

    def __init__(
        self,
        ctx: CollectiveContext,
        outer: str = "binomial",
        inner: str = "knomial4",
        name: Optional[str] = None,
    ):
        self.ctx = ctx
        self.outer = outer
        self.inner = inner
        self.groups, self.leaders = _node_groups(ctx)
        self.handle = CollectiveHandle(
            name=name or f"bcast-hier({outer}/{inner})",
            start_time=ctx.world.engine.now,
            size=ctx.comm.size,
        )
        self.chain_ranks = set(self.leaders)
        self._inner_launched: set[int] = set()
        self._outer_ctx: Optional[CollectiveContext] = None
        self._outer_handle: Optional[CollectiveHandle] = None
        if len(self.leaders) > 1:
            leader_comm = Communicator(
                ctx.world, [ctx.comm.world_rank(l) for l in self.leaders]
            )
            root_pos = self.leaders.index(ctx.root)
            self._outer_ctx = CollectiveContext(
                leader_comm, root_pos, ctx.nbytes, ctx.config,
                tree=_shape(outer, len(self.leaders), root_pos),
                data=ctx.data,
            )
            self._outer_handle = CollectiveHandle(
                name="hier-outer", start_time=ctx.world.engine.now,
                size=len(self.leaders),
            )
            self._outer_handle.on_rank_done.append(self._leader_done)

    def launch(self, ranks: Optional[Iterable[int]] = None) -> CollectiveHandle:
        ctx = self.ctx
        targets = set(self.leaders) if ranks is None else (
            set(ranks) & set(self.leaders)
        )
        if ctx.comm.size == 1:
            if targets and 0 not in self._inner_launched:
                self._inner_launched.add(0)
                self.handle.mark_done(0, ctx.world.engine.now,
                                      ctx.data if ctx.carry() else None)
            return self.handle
        if len(self.leaders) == 1:
            if targets:
                self._launch_inner(0, ctx.data if ctx.carry() else None)
            return self.handle
        if targets:
            positions = [self.leaders.index(l) for l in sorted(targets)]
            bcast_nonblocking(self._outer_ctx, handle=self._outer_handle,
                              ranks=positions)
        return self.handle

    def _leader_done(self, outer_local: int, time: float) -> None:
        assert self._outer_handle is not None
        self._launch_inner(outer_local, self._outer_handle.output.get(outer_local))

    def _launch_inner(self, group_index: int, data) -> None:
        if group_index in self._inner_launched:
            return
        self._inner_launched.add(group_index)
        ctx = self.ctx
        group = self.groups[group_index]
        leader = self.leaders[group_index]
        if len(group) == 1:
            self.handle.mark_done(leader, ctx.world.engine.now, data)
            return
        inner_comm = Communicator(ctx.world, [ctx.comm.world_rank(l) for l in group])
        root_local = group.index(leader)
        inner_ctx = CollectiveContext(
            inner_comm, root_local, ctx.nbytes, ctx.config,
            tree=_shape(self.inner, len(group), root_local),
            data=data,
        )
        inner_handle = bcast_nonblocking(inner_ctx)

        def inner_rank_done(inner_local: int, time: float) -> None:
            self.handle.mark_done(
                group[inner_local], time, inner_handle.output.get(inner_local)
            )

        inner_handle.on_rank_done.append(inner_rank_done)


class HierarchicalReduce:
    """Per-node reduces chained into a leader-level reduce."""

    def __init__(
        self,
        ctx: CollectiveContext,
        outer: str = "binomial",
        inner: str = "knomial4",
        name: Optional[str] = None,
    ):
        self.ctx = ctx
        self.outer = outer
        self.inner = inner
        self.groups, self.leaders = _node_groups(ctx)
        self.handle = CollectiveHandle(
            name=name or f"reduce-hier({outer}/{inner})",
            start_time=ctx.world.engine.now,
            size=ctx.comm.size,
        )
        self.chain_ranks = set(range(ctx.comm.size))
        self._outer_data: dict[int, object] = {}
        self._entered_outer: set[int] = set()
        self._inner: list[Optional[tuple[CollectiveContext, CollectiveHandle, int]]] = []

        leader_comm = Communicator(
            ctx.world, [ctx.comm.world_rank(l) for l in self.leaders]
        )
        root_pos = self.leaders.index(ctx.root)
        self._outer_ctx = CollectiveContext(
            leader_comm, root_pos, ctx.nbytes, ctx.config,
            tree=_shape(outer, len(self.leaders), root_pos),
            data=self._outer_data, op=ctx.op,
        )
        self._outer_handle = CollectiveHandle(
            name="hier-outer", start_time=ctx.world.engine.now, size=len(self.leaders)
        )
        self._outer_handle.on_rank_done.append(self._outer_rank_done)

        for gi, group in enumerate(self.groups):
            if len(group) == 1:
                self._inner.append(None)
                continue
            leader = self.leaders[gi]
            inner_comm = Communicator(
                ctx.world, [ctx.comm.world_rank(l) for l in group]
            )
            root_local = group.index(leader)
            inner_data = (
                {il: ctx.data.get(ol) for il, ol in enumerate(group)}
                if (ctx.carry() and ctx.data)
                else {}
            )
            inner_ctx = CollectiveContext(
                inner_comm, root_local, ctx.nbytes, ctx.config,
                tree=_shape(inner, len(group), root_local),
                data=inner_data, op=ctx.op,
            )
            inner_handle = CollectiveHandle(
                name="hier-inner", start_time=ctx.world.engine.now, size=len(group)
            )
            inner_handle.on_rank_done.append(
                lambda il, t, gi=gi: self._inner_rank_done(gi, il, t)
            )
            self._inner.append((inner_ctx, inner_handle, root_local))

    def launch(self, ranks: Optional[Iterable[int]] = None) -> CollectiveHandle:
        ctx = self.ctx
        if ctx.comm.size == 1:
            out = ctx.data.get(0) if (ctx.carry() and ctx.data) else None
            self.handle.mark_done(0, ctx.world.engine.now, out)
            return self.handle
        targets = range(ctx.comm.size) if ranks is None else ranks
        for local in targets:
            gi = next(i for i, g in enumerate(self.groups) if local in g)
            entry = self._inner[gi]
            if entry is None:
                own = ctx.data.get(local) if (ctx.carry() and ctx.data) else None
                self._enter_outer(gi, own)
                continue
            inner_ctx, inner_handle, _root_local = entry
            inner_local = self.groups[gi].index(local)
            reduce_nonblocking(inner_ctx, handle=inner_handle, ranks=[inner_local])
        return self.handle

    def _inner_rank_done(self, gi: int, inner_local: int, time: float) -> None:
        group = self.groups[gi]
        entry = self._inner[gi]
        assert entry is not None
        inner_ctx, inner_handle, root_local = entry
        if inner_local == root_local:
            self._enter_outer(gi, inner_handle.output.get(inner_local))
        else:
            self.handle.mark_done(group[inner_local], time, None)

    def _enter_outer(self, gi: int, contribution) -> None:
        if gi in self._entered_outer:
            return
        self._entered_outer.add(gi)
        self._outer_data[gi] = contribution
        if len(self.leaders) == 1:
            self._outer_handle.mark_done(gi, self.ctx.world.engine.now, contribution)
            return
        reduce_nonblocking(self._outer_ctx, handle=self._outer_handle, ranks=[gi])

    def _outer_rank_done(self, outer_local: int, time: float) -> None:
        leader = self.leaders[outer_local]
        self.handle.mark_done(leader, time, self._outer_handle.output.get(outer_local))


def bcast_hierarchical(
    ctx: CollectiveContext,
    outer: str = "binomial",
    inner: str = "knomial4",
    name: Optional[str] = None,
) -> CollectiveHandle:
    """One-shot hierarchical broadcast (launches every rank)."""
    return HierarchicalBcast(ctx, outer, inner, name).launch()


def reduce_hierarchical(
    ctx: CollectiveContext,
    outer: str = "binomial",
    inner: str = "knomial4",
    name: Optional[str] = None,
) -> CollectiveHandle:
    """One-shot hierarchical reduce (launches every rank)."""
    return HierarchicalReduce(ctx, outer, inner, name).launch()
