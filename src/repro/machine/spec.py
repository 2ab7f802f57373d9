"""Machine specification dataclasses.

A :class:`MachineSpec` describes a homogeneous cluster: every node has the
same socket/core/GPU layout, and each communication level carries Hockney
``(alpha, bandwidth)`` parameters. The network fabric (:mod:`repro.network`)
instantiates actual contended links from this description.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class CommLevel(enum.IntEnum):
    """Communication levels, ordered innermost (fastest) to outermost.

    The integer ordering is load-bearing: the topology-aware tree builder
    groups ranks bottom-up by increasing level, and routing picks the level
    of a pair of ranks as the *outermost* boundary they straddle.
    """

    SELF = 0          # same rank (no traffic)
    INTRA_SOCKET = 1  # shared memory within one socket
    INTER_SOCKET = 2  # QPI / HyperTransport within one node
    INTER_NODE = 3    # NIC + switch fabric


@dataclass(frozen=True)
class LinkParams:
    """Hockney parameters of one link class.

    ``alpha``: per-message latency in seconds.
    ``bandwidth``: bytes per second available on one physical link instance.
    """

    alpha: float
    bandwidth: float


@dataclass(frozen=True)
class GpuSpec:
    """GPUs attached to each socket and their bus parameters."""

    gpus_per_socket: int
    pcie: LinkParams = field(default=LinkParams(1.3e-6, 12e9))
    # Effective GPU-side reduction throughput (bytes/s) and kernel launch cost.
    reduce_bandwidth: float = 180e9
    kernel_launch: float = 4e-6
    # Number of concurrent CUDA streams for async copies/kernels.
    streams: int = 4


@dataclass(frozen=True)
class NodeSpec:
    """One node's internal layout."""

    sockets: int
    cores_per_socket: int
    gpu: GpuSpec | None = None

    @property
    def cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def gpus(self) -> int:
        return 0 if self.gpu is None else self.sockets * self.gpu.gpus_per_socket


@dataclass(frozen=True)
class MachineSpec:
    """A homogeneous cluster.

    ``shm``/``qpi``/``fabric`` give the per-level link parameters;
    ``nics_per_node`` bounds inter-node injection (all inter-node flows of a
    node share its NIC — the sharing Section 4 worries about).
    """

    name: str
    nodes: int
    node: NodeSpec
    shm: LinkParams = field(default=LinkParams(0.3e-6, 16e9))
    qpi: LinkParams = field(default=LinkParams(0.7e-6, 12e9))
    fabric: LinkParams = field(default=LinkParams(1.5e-6, 10e9))
    nics_per_node: int = 1
    # CPU-side per-message software overhead (LogP's `o`): posting a send or
    # recv, matching, running a completion callback.
    cpu_overhead: float = 0.4e-6
    # Memory-copy bandwidth used for staging / unexpected-message copies.
    memcpy_bandwidth: float = 6e9
    # CPU-side reduction throughput (bytes of operand reduced per second).
    cpu_reduce_bandwidth: float = 5e9
    # Compiled topology (repro.topo.CompiledTopology) riding along when this
    # spec came out of the topology compiler: MpiWorld then routes inter-node
    # traffic over the compiled link list instead of the flat NIC pair.
    # Excluded from equality/hash — the compiled model is a pure function of
    # the fields that *are* compared.
    compiled: Any = field(default=None, compare=False, repr=False)

    @property
    def total_cores(self) -> int:
        return self.nodes * self.node.cores

    @property
    def total_gpus(self) -> int:
        return self.nodes * self.node.gpus

    def level_params(self, level: CommLevel) -> LinkParams:
        """Link parameters of a CPU communication level."""
        if level == CommLevel.INTRA_SOCKET:
            return self.shm
        if level == CommLevel.INTER_SOCKET:
            return self.qpi
        if level == CommLevel.INTER_NODE:
            return self.fabric
        raise ValueError(f"no link parameters for level {level!r}")
