"""TopoFabric: the flat fabric's routing over a compiled topology.

A :class:`~repro.topo.compile.CompiledTopology` replaces exactly one piece
of the flat machine model: the inter-node segment. Intra-node routing
(shared memory, QPI, PCIe staging) is untouched — rail pods additionally
short-circuit same-island GPU pairs over their NVLink clique.

Each compiled :class:`~repro.topo.compile.TopoLink` materializes lazily as
a fair-share :class:`~repro.network.links.Link` on first route, exactly
like the flat fabric's NIC lanes — so utilization reports, fault
injection, and the partition machinery all see compiled links as ordinary
contention points.
"""

from __future__ import annotations

from repro.machine.spec import MachineSpec
from repro.machine.topology import Topology
from repro.network.fabric import Fabric, MemSpace, Route
from repro.network.links import Link
from repro.sim.engine import Engine


class TopoFabric(Fabric):
    """Fabric whose inter-node paths come from a compiled topology."""

    def __init__(
        self,
        engine: Engine,
        spec: MachineSpec,
        topology: Topology,
        compiled,
    ):
        super().__init__(engine, spec, topology)
        self.compiled = compiled

    # -- slot resolution -----------------------------------------------------

    def _slot(self, p) -> int:
        """A rank's node-local endpoint slot (GPU index for rail pods)."""
        gpu = self.spec.node.gpu
        if gpu is None:
            return 0
        per_socket = gpu.gpus_per_socket
        within = p.gpu if p.gpu is not None else p.core % per_socket
        return p.socket * per_socket + within

    # -- routing overrides ---------------------------------------------------

    def endpoint(self, p) -> tuple:
        # The slot picks compiled inter-node paths and rail-pod NVLink
        # peers; on a GPU machine with cores bound it comes from the core.
        return (p.node, p.socket, p.gpu, self._slot(p))

    def _inter_node_leg(self, ps, pd) -> tuple[list[Link], float, float]:
        path = self.compiled.node_path(
            ps.node, pd.node, self._slot(ps), self._slot(pd)
        )
        links = [self._link(tl.name, tl.bandwidth) for tl in path]
        latency = sum(tl.latency for tl in path)
        rate_cap = min(tl.bandwidth for tl in path)
        return links, latency, rate_cap

    def _route_uncached(
        self, src: int, dst: int, src_space: MemSpace, dst_space: MemSpace
    ) -> Route:
        # Same-island distinct-GPU pairs ride the NVLink clique directly
        # (NVSwitch crossbar), regardless of socket — rail pods have no
        # QPI-staged GPU path.
        if src_space == MemSpace.GPU and dst_space == MemSpace.GPU and src != dst:
            ps = self.topology.placement(src)
            pd = self.topology.placement(dst)
            if ps.node == pd.node:
                peer = self.compiled.gpu_peer_path(
                    ps.node, self._slot(ps), self._slot(pd)
                )
                if peer is not None:
                    links = tuple(
                        self._link(tl.name, tl.bandwidth) for tl in peer
                    )
                    latency = sum(tl.latency for tl in peer)
                    rate_cap = min(tl.bandwidth for tl in peer)
                    return Route(links, latency, rate_cap)
        return super()._route_uncached(src, dst, src_space, dst_space)
