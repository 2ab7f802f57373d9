"""Communicators: ordered rank groups over an :class:`~repro.mpi.runtime.MpiWorld`.

A communicator maps local ranks (0..size-1) to world ranks. The hierarchical
multi-communicator collectives of Section 3.1 build their per-node groups and
leader set from the topology themselves
(:func:`repro.collectives.hierarchical._node_groups`).
"""

from __future__ import annotations

from typing import Sequence

from repro.mpi.runtime import MpiWorld, RankRuntime


class Communicator:
    """An ordered group of world ranks."""

    def __init__(self, world: MpiWorld, ranks: Sequence[int] | None = None):
        self.world = world
        self.ranks: tuple[int, ...] = (
            tuple(range(world.nranks)) if ranks is None else tuple(ranks)
        )
        if len(set(self.ranks)) != len(self.ranks):
            raise ValueError("duplicate ranks in communicator")
        self._local_of = {w: i for i, w in enumerate(self.ranks)}

    @property
    def size(self) -> int:
        return len(self.ranks)

    def world_rank(self, local: int) -> int:
        return self.ranks[local]

    def local_rank(self, world_rank: int) -> int:
        return self._local_of[world_rank]

    def __contains__(self, world_rank: int) -> bool:
        return world_rank in self._local_of

    def runtime(self, local: int) -> RankRuntime:
        return self.world.ranks[self.ranks[local]]
