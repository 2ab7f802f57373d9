"""Fabric: instantiates the links of a machine and routes transfers.

Link inventory built from a :class:`~repro.machine.spec.MachineSpec`:

* per socket: one aggregate memory link (intra-socket flows contend here;
  capacity = ``shm.bandwidth * max(4, cores_per_socket)``),
* per node and direction: one QPI link,
* per node and direction: one NIC link (all inter-node flows of a node share
  it — one NIC per node unless ``nics_per_node`` says otherwise),
* per socket (GPU machines): PCIe host-to-device, device-to-host and
  GPU-to-GPU peer (CUDA IPC) links, each a separate set of lanes.

Routing returns the ordered link path, the summed path latency, and the
per-flow rate cap (the narrowest level's pair bandwidth), for any combination
of host/GPU endpoints. The data-path rules are the paper's Section 4 rules:
same-socket GPU pairs use PCIe peer-to-peer; cross-socket GPU pairs stage
through CPU memory; inter-node GPU pairs either use GPUDirect (D2H PCIe ->
NIC -> PCIe H2D) or stage through host buffers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.machine.spec import CommLevel, MachineSpec
from repro.machine.topology import Placement, Topology
from repro.network.fairshare import FairShareNetwork
from repro.network.flows import Flow
from repro.network.links import Link
from repro.sim.engine import Engine


class MemSpace(enum.Enum):
    """Which memory an endpoint buffer lives in."""

    HOST = "host"
    GPU = "gpu"

    # Members are singletons with identity equality, so identity hashing is
    # equivalent — and C-speed, unlike Enum.__hash__, which shows up in
    # profiles via the route/channel cache keys built around these members.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Route:
    """Resolved path for one transfer."""

    links: tuple[Link, ...]
    latency: float
    rate_cap: float

    def uncontended_time(self, nbytes: int) -> float:
        return self.latency + nbytes / self.rate_cap


class Fabric:
    """Link inventory + routing for one simulated machine."""

    def __init__(
        self,
        engine: Engine,
        spec: MachineSpec,
        topology: Topology,
    ):
        self.engine = engine
        self.spec = spec
        self.topology = topology
        self.network = FairShareNetwork(engine)
        self._links: dict[str, Link] = {}
        # Routes per rank pair, and per endpoint signature (see route()).
        self._route_cache: dict[tuple, Route] = {}
        self._signature_routes: dict[tuple, Route] = {}
        # In-order data channels: one data transfer at a time per
        # (src, dst, spaces) connection, like an MPI BTL queue pair. Control
        # messages (RTS/CTS) bypass, so handshakes overlap data — the overlap
        # ADAPT's in-flight window exploits.
        self._channel_busy: dict[tuple, bool] = {}
        self._channel_queue: dict[tuple, list] = {}
        # Fault filter (repro.faults.FabricFaults): consulted per data-plane
        # transfer when installed; may swallow a delivery (message drop) or
        # request a duplicate copy. None costs one test per transfer.
        self.faults = None

    # -- link inventory ------------------------------------------------------

    def _link(self, name: str, capacity: float) -> Link:
        link = self._links.get(name)
        if link is None:
            link = Link(name, capacity)
            self._links[name] = link
        return link

    def socket_mem_link(self, node: int, socket: int) -> Link:
        # One pair-bandwidth share per core (at least four): a fully
        # pipelined intra-socket chain is uncontended, keeping the
        # inter-node fabric the slowest level — the paper's stated regime
        # (Section 3.2.2).
        cap = self.spec.shm.bandwidth * max(4, self.spec.node.cores_per_socket)
        return self._link(f"shm:n{node}.s{socket}", cap)

    def qpi_link(self, node: int, src_socket: int, dst_socket: int) -> Link:
        direction = f"{src_socket}->{dst_socket}"
        return self._link(f"qpi:n{node}:{direction}", self.spec.qpi.bandwidth)

    def nic_out_link(self, node: int) -> Link:
        cap = self.spec.fabric.bandwidth * self.spec.nics_per_node
        return self._link(f"nic-out:n{node}", cap)

    def nic_in_link(self, node: int) -> Link:
        cap = self.spec.fabric.bandwidth * self.spec.nics_per_node
        return self._link(f"nic-in:n{node}", cap)

    def _inter_node_leg(self, ps, pd) -> tuple[list[Link], float, float]:
        """The node-to-node segment of a route: links, latency, rate cap.

        The flat model: the source node's NIC injection lane and the
        destination's ejection lane, one fabric latency. Compiled
        topologies (:class:`~repro.network.topofabric.TopoFabric`) override
        this with the multi-tier switch path of the machine model.
        """
        return (
            [self.nic_out_link(ps.node), self.nic_in_link(pd.node)],
            self.spec.fabric.alpha,
            self.spec.fabric.bandwidth,
        )

    def _gpu_params(self):
        gpu = self.spec.node.gpu
        if gpu is None:
            raise ValueError(f"machine {self.spec.name!r} has no GPUs")
        return gpu

    def gpu_out_link(self, node: int, socket: int, gpu: int) -> Link:
        """One GPU's PCIe egress lane — shared by D2H copies, peer-to-peer
        sends and GPUDirect sends from that GPU (the congestion of the
        paper's Figure 6a)."""
        return self._link(
            f"pcie-out:n{node}.s{socket}.g{gpu}", self._gpu_params().pcie.bandwidth
        )

    def gpu_in_link(self, node: int, socket: int, gpu: int) -> Link:
        """One GPU's PCIe ingress lane (H2D copies, peer receives)."""
        return self._link(
            f"pcie-in:n{node}.s{socket}.g{gpu}", self._gpu_params().pcie.bandwidth
        )

    def links(self) -> dict[str, Link]:
        """All links instantiated so far (lazily created on first route)."""
        return dict(self._links)

    # -- routing --------------------------------------------------------------

    def route(
        self,
        src: int,
        dst: int,
        src_space: MemSpace = MemSpace.HOST,
        dst_space: MemSpace = MemSpace.HOST,
    ) -> Route:
        """Resolve the link path between two ranks' buffers.

        A route is fixed by where its endpoints sit, not by their rank
        numbers, so a pair seen for the first time looks up its endpoint
        signature: :meth:`endpoint` of each placement, whether the two ranks
        are one, and the two memory spaces. Only a new signature is built;
        every pair that shares one gets the same :class:`Route`.
        """
        key = (src, dst, src_space, dst_space)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        topo = self.topology
        signature = (
            self.endpoint(topo.placement(src)),
            self.endpoint(topo.placement(dst)),
            src == dst,
            src_space,
            dst_space,
        )
        route = self._signature_routes.get(signature)
        if route is None:
            route = self._route_uncached(src, dst, src_space, dst_space)
            self._signature_routes[signature] = route
        self._route_cache[key] = route
        return route

    def endpoint(self, p: Placement) -> tuple:
        """Every field of a placement that :meth:`_route_uncached` reads:
        the node, socket and GPU. The core never picks a flat link."""
        return (p.node, p.socket, p.gpu)

    def _route_uncached(
        self, src: int, dst: int, src_space: MemSpace, dst_space: MemSpace
    ) -> Route:
        topo = self.topology
        spec = self.spec
        ps, pd = topo.placement(src), topo.placement(dst)
        level = topo.level(src, dst)

        links: list[Link] = []
        latency = 0.0
        rate_cap = float("inf")

        def add_cpu_leg() -> None:
            nonlocal latency, rate_cap
            if level == CommLevel.SELF:
                # Loopback: memcpy-speed, no shared link.
                latency += spec.shm.alpha
                rate_cap = min(rate_cap, spec.memcpy_bandwidth)
            elif level == CommLevel.INTRA_SOCKET:
                links.append(self.socket_mem_link(ps.node, ps.socket))
                latency += spec.shm.alpha
                rate_cap = min(rate_cap, spec.shm.bandwidth)
            elif level == CommLevel.INTER_SOCKET:
                links.append(self.qpi_link(ps.node, ps.socket, pd.socket))
                latency += spec.qpi.alpha
                rate_cap = min(rate_cap, spec.qpi.bandwidth)
            else:  # INTER_NODE
                leg_links, leg_latency, leg_cap = self._inter_node_leg(ps, pd)
                links.extend(leg_links)
                latency += leg_latency
                rate_cap = min(rate_cap, leg_cap)

        if src_space == MemSpace.HOST and dst_space == MemSpace.HOST:
            add_cpu_leg()
            return Route(tuple(links), latency, rate_cap)

        gpu = self._gpu_params()
        pcie = gpu.pcie

        def add_d2h() -> None:
            """Source GPU's egress lane."""
            nonlocal latency, rate_cap
            assert ps.gpu is not None
            links.append(self.gpu_out_link(ps.node, ps.socket, ps.gpu))
            latency += pcie.alpha
            rate_cap = min(rate_cap, pcie.bandwidth)

        def add_h2d() -> None:
            """Destination GPU's ingress lane."""
            nonlocal latency, rate_cap
            assert pd.gpu is not None
            links.append(self.gpu_in_link(pd.node, pd.socket, pd.gpu))
            latency += pcie.alpha
            rate_cap = min(rate_cap, pcie.bandwidth)

        if src_space == MemSpace.GPU and dst_space == MemSpace.GPU:
            if level in (CommLevel.SELF, CommLevel.INTRA_SOCKET):
                # CUDA IPC through the shared PCIe switch: the sender's
                # egress and the receiver's ingress lanes.
                add_d2h()
                if ps.gpu != pd.gpu or ps.node != pd.node or ps.socket != pd.socket:
                    add_h2d()
            elif level == CommLevel.INTER_SOCKET:
                # Staged through CPU memory: D2H, QPI, H2D (Section 4 rule).
                add_d2h()
                add_cpu_leg()
                add_h2d()
            else:  # INTER_NODE: GPUDirect RDMA, NIC straight to the GPUs
                add_d2h()
                add_cpu_leg()
                add_h2d()
        elif src_space == MemSpace.GPU:  # GPU -> HOST
            add_d2h()
            if level not in (CommLevel.SELF,) and (ps.node, ps.socket) != (
                pd.node,
                pd.socket,
            ):
                add_cpu_leg()
        else:  # HOST -> GPU
            if level not in (CommLevel.SELF,) and (ps.node, ps.socket) != (
                pd.node,
                pd.socket,
            ):
                add_cpu_leg()
            add_h2d()

        return Route(tuple(links), latency, rate_cap)

    # -- transfers -------------------------------------------------------------

    def start_transfer(
        self,
        src: int,
        dst: int,
        nbytes: int,
        on_complete: Callable[[Flow], None],
        src_space: MemSpace = MemSpace.HOST,
        dst_space: MemSpace = MemSpace.HOST,
        taginfo=None,
    ) -> Optional[Flow]:
        """Launch the wire transfer of one message/segment.

        The transfer is serialized behind earlier transfers on the same
        (src, dst, spaces) channel. Returns the flow, or None if the
        transfer was queued behind channel predecessors.

        An installed fault filter sees every transfer that carries
        ``taginfo`` (MPI data plane; staging copies pass None and are
        exempt). The filter wraps ``on_complete`` *before* channel chaining,
        so a dropped message still releases its in-order channel.

        An active network partition *severs* cross-cut transfers: the
        message never enters the wire — no flow, no channel occupancy, no
        delivery (unlike a drop, where the bytes cross and the delivery
        evaporates).
        """
        if self.faults is not None and self.faults.severed(src, dst):
            self.faults.count_severed(src, dst, nbytes, taginfo)
            return None
        if self.faults is not None and taginfo is not None:
            on_complete, dup_cb = self.faults.intercept(
                src, dst, nbytes, taginfo, on_complete
            )
            if dup_cb is not None:
                flow = self._start_one(
                    src, dst, nbytes, on_complete, src_space, dst_space, taginfo
                )
                # The duplicate rides the same channel right behind the
                # original; the receiver's sequence check suppresses it.
                self._start_one(
                    src, dst, nbytes, dup_cb, src_space, dst_space, taginfo
                )
                return flow
        return self._start_one(
            src, dst, nbytes, on_complete, src_space, dst_space, taginfo
        )

    def _start_one(
        self,
        src: int,
        dst: int,
        nbytes: int,
        on_complete: Callable[[Flow], None],
        src_space: MemSpace,
        dst_space: MemSpace,
        taginfo,
    ) -> Optional[Flow]:
        key = (src, dst, src_space, dst_space)
        if self._channel_busy.get(key):
            self._channel_queue.setdefault(key, []).append(
                (src, dst, nbytes, on_complete, src_space, dst_space, taginfo)
            )
            return None
        self._channel_busy[key] = True
        return self._launch(src, dst, nbytes, self._chain(key, on_complete),
                            src_space, dst_space, taginfo)

    def start_control(
        self,
        src: int,
        dst: int,
        nbytes: int,
        on_complete: Callable[[], None],
        taginfo=None,
    ) -> None:
        """Deliver a tiny control message (RTS/CTS) after path latency.

        Control packets are a few cache lines; their serialization time is
        negligible and real fabrics absorb them without disturbing bulk
        transfers, so they are modelled as pure latency rather than flows —
        they never join contention components. They *are* subject to
        partition severing (an ack, heartbeat, or membership token cannot
        cross a cut any more than data can); ``taginfo`` only classifies
        the severed-message accounting and enables no other fault kind.
        """
        if self.faults is not None and self.faults.severed(src, dst):
            self.faults.count_severed(src, dst, nbytes, taginfo)
            return
        route = self.route(src, dst, MemSpace.HOST, MemSpace.HOST)
        delay = route.latency + nbytes / route.rate_cap
        engine = self.engine
        # Handle-free post: control deliveries are never cancelled.
        engine.post_at(engine.now + delay, on_complete)

    def _chain(self, key: tuple, on_complete: Callable[[Flow], None]):
        def done(flow: Flow) -> None:
            queue = self._channel_queue.get(key)
            if queue:
                nxt = queue.pop(0)
                (src, dst, nbytes, cb, src_space, dst_space, taginfo) = nxt
                self._launch(src, dst, nbytes, self._chain(key, cb),
                             src_space, dst_space, taginfo)
            else:
                self._channel_busy[key] = False
            on_complete(flow)

        return done

    def _launch(
        self,
        src: int,
        dst: int,
        nbytes: int,
        on_complete: Callable[[Flow], None],
        src_space: MemSpace,
        dst_space: MemSpace,
        taginfo,
    ) -> Flow:
        route = self.route(src, dst, src_space, dst_space)
        return self.network.submit(
            route.links,
            nbytes,
            route.rate_cap,
            route.latency,
            on_complete,
            taginfo=taginfo,
        )
