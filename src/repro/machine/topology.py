"""Rank placement and topology queries (the hwloc/PMIx stand-in).

Ranks are placed block-wise: rank ``r`` lives on node ``r // cores_per_node``,
socket ``(r % cores_per_node) // cores_per_socket``, core
``r % cores_per_socket`` — the default "by core" mapping of mpirun. For GPU
runs, one rank is bound to one GPU (Section 4's assumption), placed
block-wise over sockets the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.spec import CommLevel, MachineSpec


@dataclass(frozen=True)
class Placement:
    """Physical location of one rank."""

    rank: int
    node: int
    socket: int
    core: int          # index within the socket
    gpu: int | None    # index within the socket, when GPU-bound


class Topology:
    """Placement of ``nranks`` ranks on a :class:`MachineSpec`.

    ``gpu_bound=True`` binds one rank per GPU instead of one per core.
    """

    def __init__(self, spec: MachineSpec, nranks: int, gpu_bound: bool = False):
        self.spec = spec
        self.nranks = nranks
        self.gpu_bound = gpu_bound
        if gpu_bound:
            if spec.node.gpu is None:
                raise ValueError(f"machine {spec.name!r} has no GPUs")
            per_node, per_socket = spec.node.gpus, spec.node.gpu.gpus_per_socket
        else:
            per_node, per_socket = spec.node.cores, spec.node.cores_per_socket
        if nranks > per_node * spec.nodes:
            raise ValueError(
                f"{nranks} ranks do not fit on {spec.nodes} nodes "
                f"x {per_node} slots ({spec.name})"
            )
        # One placement per rank, owned by this topology: it dies with its
        # world, and every query reads it instead of rebuilding a Placement.
        placements = []
        for rank in range(nranks):
            node, within = divmod(rank, per_node)
            socket, slot = divmod(within, per_socket)
            placements.append(Placement(rank, node, socket, core=slot,
                                        gpu=slot if gpu_bound else None))
        self._placements = tuple(placements)

    def placement(self, rank: int) -> Placement:
        """Location of ``rank``."""
        if not (0 <= rank < self.nranks):
            raise ValueError(f"rank {rank} out of range [0, {self.nranks})")
        return self._placements[rank]

    def level(self, a: int, b: int) -> CommLevel:
        """Outermost boundary ranks ``a`` and ``b`` straddle."""
        if a == b:
            return CommLevel.SELF
        pa, pb = self.placement(a), self.placement(b)
        if pa.node != pb.node:
            return CommLevel.INTER_NODE
        if pa.socket != pb.socket:
            return CommLevel.INTER_SOCKET
        return CommLevel.INTRA_SOCKET

    def node_of(self, rank: int) -> int:
        return self.placement(rank).node

    def ranks_on_node(self, node: int) -> list[int]:
        return [r for r in range(self.nranks) if self.node_of(r) == node]

    def group_key(self, rank: int, level: CommLevel) -> tuple:
        """Identifier of the ``level``-group containing ``rank``.

        Two ranks are in the same group iff they can communicate at a level
        *at or below* ``level``. Used by the topology-aware tree builder.
        """
        p = self.placement(rank)
        if level == CommLevel.INTRA_SOCKET:
            return (p.node, p.socket)
        if level == CommLevel.INTER_SOCKET:
            return (p.node,)
        if level == CommLevel.INTER_NODE:
            return ()
        raise ValueError(f"no grouping at level {level!r}")
