"""The simulated MPI world: per-rank runtimes over the contended fabric.

Every rank owns a :class:`~repro.sim.cpu.Cpu`; posting a send or recv,
matching an arrival, running a completion callback, and performing local
reduction arithmetic all serialize on it, each charged the machine's
per-message overhead ``o``. Noise injected into a rank's CPU therefore delays
exactly the activities a descheduled MPI process would delay — the paper's
propagation mechanism.

Protocol summary (see :mod:`repro.mpi` docstring):

* **eager** (size <= threshold): the sender's CPU posts the message and the
  send request completes locally (buffered send). If the receiver has no
  matching posted recv, the payload waits in the unexpected queue and pays an
  extra memcpy when the recv finally arrives.
* **rendezvous**: the sender's CPU emits an RTS control message; the data
  flow starts only after the receiver has a matching posted recv and its CTS
  reaches the sender. The send request completes when the data drains. This
  handshake is the synchronization through which a noisy receiver delays a
  blocking sender (Section 2.1.1).

Every eager payload, RTS and rendezvous data message is one :class:`_Send`
record put on the wire by one launch function, ``_transmit``; the receiver
checks each arrival's integrity in one place. The reliable transport
(``RuntimeConfig.reliable``) is that same path plus a per-sender sequence
number and an ack timer: a sequenced arrival is acked (or NACKed when its
checksum fails) and delivered at most once, and an unacked send is
retransmitted, parked or abandoned (DESIGN.md S17).

GPU ranks (Section 4) declare a default memory space; transfers route over
the PCIe/QPI/NIC paths of :class:`~repro.network.fabric.Fabric`, and GPU
reduction work runs on simulated CUDA streams instead of the host CPU.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Optional

import numpy as np

from repro.config import DEFAULT_RUNTIME, RuntimeConfig
from repro.machine.spec import MachineSpec
from repro.machine.topology import Topology
from repro.mpi.matching import InboundMessage, Matcher
from repro.mpi.request import Request
from repro.network.fabric import Fabric, MemSpace
from repro.sim.cpu import Cpu
from repro.sim.engine import Engine


def _copy_payload(data: Any) -> Any:
    """Buffer a payload at send time (value semantics, like MPI)."""
    if isinstance(data, np.ndarray):
        return data.copy()
    return data


def _payload_crc(data: Any) -> Optional[int]:
    """Sender-side segment checksum (end-to-end integrity, DESIGN.md S20)."""
    if isinstance(data, np.ndarray):
        return zlib.crc32(np.ascontiguousarray(data).tobytes())
    return None


def _flip_bit(data: Any, bit: int) -> Any:
    """A copy of ``data`` with one bit flipped (in-flight corruption)."""
    if not isinstance(data, np.ndarray):
        return data
    out = np.ascontiguousarray(data).copy()
    view = out.reshape(-1).view(np.uint8)
    if view.size:
        i = (bit // 8) % view.size
        view[i] ^= np.uint8(1 << (bit % 8))
    return out


class _Send:
    """One message of the wire protocol (eager, RTS, or rendezvous data).

    ``seq`` stays ``None`` on the raw transport; the reliable transport
    numbers the message and tracks its attempts, retry timer and parking.
    """

    __slots__ = (
        "seq", "req", "kind", "payload", "src_space", "dst_space",
        "recv_req", "attempt", "timer", "parked",
    )

    def __init__(self, req, kind, payload, src_space, dst_space, recv_req=None):
        self.seq: Optional[int] = None
        self.req = req
        self.kind = kind  # "eager" | "rts" | "data"
        self.payload = payload
        self.src_space = src_space
        self.dst_space = dst_space
        self.recv_req = recv_req
        self.attempt = 0
        self.timer = None
        self.parked = False  # retry budget spent, peer merely suspected


class RankRuntime:
    """One rank's communication engine."""

    def __init__(self, world: "MpiWorld", rank: int):
        self.world = world
        self.rank = rank
        self.cpu = Cpu(world.engine)
        if world.obs is not None:
            self.cpu.obs = world.obs
            self.cpu.obs_rank = rank
        self.matcher = Matcher()
        self.space = MemSpace.GPU if world.gpu_bound else MemSpace.HOST
        self.alive = True
        # GPU ranks: async CUDA streams for offloaded reductions/copies.
        self._gpu_streams: list[float] = []
        if world.gpu_bound:
            gpu = world.spec.node.gpu
            assert gpu is not None
            self._gpu_streams = [0.0] * gpu.streams
        # Reliable transport: per-message sequence numbers, ack/retransmit.
        self._send_seq = 0
        self._reliable_pending: dict[int, _Send] = {}
        # Sends whose retry budget ran dry against a merely *suspected* peer
        # park here (keyed by peer) and probe at a slow capped-backoff
        # cadence until the peer is confirmed dead (abandon) or evidence of
        # life arrives (resume) — a partitioned peer is not a dead peer.
        self._parked: dict[int, list[_Send]] = {}
        self._peer_watch = False
        # Statistics.
        self.sends_posted = 0
        self.recvs_posted = 0
        self.bytes_sent = 0
        self.transmissions = 0       # wire attempts of reliable messages
        self.retransmits = 0
        self.acks_sent = 0
        self.nacks_sent = 0          # corrupt arrivals bounced back for retransmit
        self.checksum_rejects = 0    # deliveries refused on checksum mismatch
        self.sends_abandoned = 0     # retry budget exhausted (peer confirmed dead)
        self.sends_parked = 0        # budget exhausted but peer only suspected
        self.msgs_lost_dead = 0      # reliable messages that reached a dead rank

    # -- helpers ---------------------------------------------------------------

    @property
    def engine(self) -> Engine:
        return self.world.engine

    @property
    def _o(self) -> float:
        return self.world.spec.cpu_overhead

    def _fault(self, name: str, args: Optional[dict] = None) -> None:
        """Record a fault-path event as a zero-length span on this rank.

        Callers test ``world.obs is not None`` first, so the ``args`` dict
        is only built when someone records it.
        """
        from repro.obs.spans import CAT_FAULT  # deferred: avoids cycle

        obs = self.world.obs
        assert obs is not None
        now = self.engine.now
        obs.add(CAT_FAULT, name, ("rank", self.rank), now, now, args)

    def fail_stop(self) -> None:
        """Crash this rank: its CPU halts and its transport state dies.

        The crashed process's in-flight sends will never be acked by anyone
        on its behalf, so their retry timers and requests are torn down.
        """
        if self.world.obs is not None:
            self._fault("killed")
        self.alive = False
        self.cpu.halt()
        for send in self._reliable_pending.values():
            if send.timer is not None:
                send.timer.cancel()
            send.req.cancel()
        self._reliable_pending.clear()
        self._parked.clear()

    # -- non-blocking point-to-point -------------------------------------------

    def isend(
        self,
        dst: int,
        tag: int,
        nbytes: int,
        data: Any = None,
        space: Optional[MemSpace] = None,
        dst_space: Optional[MemSpace] = None,
    ) -> Request:
        """Post a non-blocking send. Returns its request immediately."""
        if dst == self.rank:
            raise ValueError(f"rank {self.rank}: self-send not supported; use a copy")
        req = Request(self, "send", self.rank, dst, tag, nbytes)
        if self.world.observer is not None:
            self.world.observer.op_posted(req)
        if self.world.sanitizer is not None:
            self.world.sanitizer.on_post(req)
        self.sends_posted += 1
        self.bytes_sent += nbytes
        payload = _copy_payload(data) if self.world.carry_data else None
        src_space = space if space is not None else self.space
        to_space = dst_space if dst_space is not None else self.world.ranks[dst].space
        eager = nbytes <= self.world.config.eager_threshold
        # Posting costs CPU time; the wire action happens when the CPU gets
        # to it (noise on this rank delays its own sends).
        self.cpu.execute(
            self._o, self._start, req, "eager" if eager else "rts",
            payload, src_space, to_space,
        )
        return req

    def irecv(self, src: int, tag: int, nbytes: int) -> Request:
        """Post a non-blocking receive. Returns its request immediately."""
        if src == self.rank:
            raise ValueError(f"rank {self.rank}: self-recv not supported")
        req = Request(self, "recv", self.rank, src, tag, nbytes)
        if self.world.observer is not None:
            self.world.observer.op_posted(req)
        if self.world.sanitizer is not None:
            self.world.sanitizer.on_post(req)
        self.recvs_posted += 1
        self.cpu.execute(self._o, self._post_recv, req)
        return req

    # -- wire launch (eager, RTS, rendezvous data) ------------------------------

    def _start(
        self,
        req: Request,
        kind: str,
        payload: Any,
        src_space: MemSpace,
        dst_space: MemSpace,
        recv_req: Optional[Request] = None,
    ) -> None:
        """Launch one message on the sender's CPU (after its overhead)."""
        send = _Send(req, kind, payload, src_space, dst_space, recv_req)
        if self.world.config.reliable:
            self._send_seq += 1
            send.seq = self._send_seq
            self._reliable_pending[send.seq] = send
        self._transmit(send)
        if kind == "eager":
            # Buffered send: locally complete once the message is on the
            # wire (delivery is the reliable transport's job, if any).
            req._complete(self.engine.now)

    def _transmit(self, send: _Send) -> None:
        """Put one attempt of ``send`` on the wire.

        Sequenced (reliable) sends also count the attempt and arm the retry
        timer; retransmits, NACKs and resumed parked sends re-enter here.
        """
        req, kind, seq = send.req, send.kind, send.seq
        if seq is not None:
            send.attempt += 1
            self.transmissions += 1
            if send.attempt > 1:
                self.retransmits += 1
                if self.world.obs is not None:
                    self._fault("retransmit", {
                        "peer": req.peer, "tag": req.tag, "seq": seq,
                        "attempt": send.attempt,
                    })
        fabric = self.world.fabric
        dst_rt = self.world.ranks[req.peer]
        taginfo = (kind, req.rank, req.peer, req.tag)
        if kind == "rts":

            def on_rts_arrival() -> None:
                msg = InboundMessage(
                    src=req.rank, tag=req.tag, nbytes=req.nbytes, eager=False,
                    rendezvous_token=send, seq=seq,
                )
                dst_rt._handle_arrival(msg)

            # Control messages are latency-only (see Fabric.start_control)
            # and never dropped: a reliable RTS's ack/retry loop detects a
            # dead receiver, not loss. The taginfo books a severed RTS as a
            # data-plane launch, like eager payloads and rendezvous data.
            wire_bytes = self.world.config.control_bytes
            fabric.start_control(
                req.rank, req.peer, wire_bytes, on_rts_arrival, taginfo=taginfo
            )
        else:
            payload = send.payload
            crc = bit = None
            faults = fabric.faults
            if faults is not None:
                # Integrity armed: checksum the payload, then roll in-flight
                # corruption. Rolled here on the sender's CPU, so the rng
                # consumption order — the determinism contract — depends
                # only on the sender-side schedule.
                crc = _payload_crc(payload)
                bit = faults.corrupt_roll(req.rank, req.peer, req.nbytes, req.tag)
            corrupt = bit is not None
            if bit is not None:
                payload = _flip_bit(payload, bit)
            if kind == "eager":

                def on_wire(flow) -> None:
                    msg = InboundMessage(
                        src=req.rank, tag=req.tag, nbytes=req.nbytes, eager=True,
                        data=payload, seq=seq, crc=crc, corrupt=corrupt,
                    )
                    dst_rt._handle_arrival(msg)

            else:

                def on_wire(flow) -> None:
                    if seq is None:
                        # Raw transport: the drained flow frees the sender's
                        # buffer (the reliable transport waits for the ack).
                        # The notification itself is CPU work on the sender.
                        self.cpu.execute(0.0, self._complete_send, req)
                    dst_rt._handle_data(send, payload, corrupt, crc)

            wire_bytes = req.nbytes
            fabric.start_transfer(
                req.rank, req.peer, wire_bytes, on_wire,
                send.src_space, send.dst_space, taginfo=taginfo,
            )
        if seq is not None:
            send.timer = self.engine.call_after(
                self._retry_delay(send, wire_bytes), self._on_ack_timeout, send
            )

    def _rndv_send_cts(self, msg: InboundMessage, recv_req: Request) -> None:
        """Receiver side: matching recv exists; tell the sender to fire."""
        rts: _Send = msg.rendezvous_token
        sender_rt = self.world.ranks[msg.src]

        def on_cts_arrival() -> None:
            # Sender CPU processes the CTS, then the data flow starts.
            sender_rt.cpu.execute(
                sender_rt._o, sender_rt._start, rts.req, "data",
                rts.payload, rts.src_space, rts.dst_space, recv_req,
            )

        self.world.fabric.start_control(
            self.rank, msg.src, self.world.config.control_bytes, on_cts_arrival
        )

    def _complete_send(self, req: Request) -> None:
        req._complete(self.engine.now)

    # -- reliable transport: acks, retries, parking ------------------------------
    #
    # At-least-once delivery over a lossy data plane: every sequenced message
    # is acked by the receiver over the reliable control channel (duplicates
    # included) and the matcher suppresses redeliveries, so the MPI layer
    # sees exactly-once semantics. A sender whose retry budget runs dry
    # parks while the peer is merely suspected and abandons the send —
    # cancelling its request — once the peer is confirmed (or, with no
    # detector, presumed) dead.

    def _retry_delay(self, state: _Send, wire_bytes: int) -> float:
        """Retransmission timeout: RTO plus headroom for the transfer itself.

        The 4x uncontended-transfer-time term keeps large segments on a
        congested fabric from triggering spurious retransmissions; the
        exponential backoff dominates once real loss is in play. Backoff is
        capped at the retry limit so a *parked* send (budget spent, peer
        suspected-not-confirmed) probes at a bounded cadence instead of
        backing off forever.
        """
        cfg = self.world.config
        route = self.world.fabric.route(
            self.rank, state.req.peer, state.src_space, state.dst_space
        )
        base = cfg.ack_timeout + 4.0 * route.uncontended_time(wire_bytes)
        exponent = min(state.attempt, cfg.retry_limit) - 1
        return base * (cfg.retry_backoff ** exponent)

    def _on_ack_timeout(self, state: _Send) -> None:
        if state.seq not in self._reliable_pending:
            return  # acked while the timer was in flight
        if state.attempt >= self.world.config.retry_limit:
            peer = state.req.peer
            detector = self.world.failure_detector
            if detector is not None and peer not in detector.failed:
                # The peer is suspected, not confirmed: a partitioned or
                # stalled process looks exactly like a dead one from here.
                # Raise the suspicion (routed through the detector's delayed
                # confirm path) and park — keep probing at the capped-backoff
                # cadence until the detector either confirms the death
                # (abandon, via _on_peer_failed) or retracts it / the probe
                # lands (resume).
                if not state.parked:
                    state.parked = True
                    self.sends_parked += 1
                    self._parked.setdefault(peer, []).append(state)
                    if self.world.obs is not None:
                        self._fault("send-park", {
                            "peer": peer, "tag": state.req.tag,
                            "seq": state.seq, "attempt": state.attempt,
                        })
                    self._watch_peers()
                detector.suspect(
                    peer,
                    reason=f"rank {self.rank}: no ack after {state.attempt} attempts",
                )
                self._transmit(state)
                return
            self._abandon(state)
            return
        self._transmit(state)

    def _abandon(self, state: _Send) -> None:
        """Give up on a reliable send: the peer is confirmed (or presumed,
        absent any detector) dead."""
        if state.seq not in self._reliable_pending:
            return
        del self._reliable_pending[state.seq]
        if state.timer is not None:
            state.timer.cancel()
            state.timer = None
        self.sends_abandoned += 1
        if self.world.obs is not None:
            self._fault("send-abandon", {
                "peer": state.req.peer, "tag": state.req.tag,
                "seq": state.seq, "attempt": state.attempt,
            })
        state.req.cancel()

    def _watch_peers(self) -> None:
        """Lazily subscribe to failure/retraction transitions (once)."""
        if self._peer_watch:
            return
        self._peer_watch = True
        self.world.subscribe_failures(
            self._on_peer_failed, alive_fn=self._on_peer_alive
        )

    def _on_peer_failed(self, peer: int) -> None:
        if not self.alive:
            return
        for state in self._parked.pop(peer, []):
            self._abandon(state)

    def _on_peer_alive(self, peer: int) -> None:
        """A suspected/failed peer acked again: resume parked sends now."""
        if not self.alive:
            return
        for state in self._parked.pop(peer, []):
            if state.seq not in self._reliable_pending:
                continue
            if state.timer is not None:
                state.timer.cancel()
                state.timer = None
            state.parked = False
            self._transmit(state)

    def _send_ack(self, dst: int, seq: int) -> None:
        """Receiver side: confirm delivery of ``seq`` back to the sender."""
        self.acks_sent += 1
        sender_rt = self.world.ranks[dst]
        self.world.fabric.start_control(
            self.rank, dst, self.world.config.control_bytes,
            lambda: sender_rt._on_ack_wire(seq),
        )

    def _send_nack(self, dst: int, seq: int) -> None:
        """Receiver side: the payload arrived but failed its checksum.

        The NACK asks for an immediate retransmit instead of waiting out the
        sender's retry timer — corruption is detected, not silent, so the
        round trip is the only cost.
        """
        self.nacks_sent += 1
        sender_rt = self.world.ranks[dst]
        self.world.fabric.start_control(
            self.rank, dst, self.world.config.control_bytes,
            lambda: sender_rt._on_nack_wire(seq),
        )

    def _on_nack_wire(self, seq: int) -> None:
        if not self.alive:
            return
        self.cpu.execute(self._o, self._process_nack, seq)

    def _process_nack(self, seq: int) -> None:
        state = self._reliable_pending.get(seq)
        if state is None:
            return  # already acked (stale nack) or abandoned
        if state.timer is not None:
            state.timer.cancel()
            state.timer = None
        self._transmit(state)

    def _on_ack_wire(self, seq: int) -> None:
        if not self.alive:
            return
        self.cpu.execute(self._o, self._process_ack, seq)

    def _process_ack(self, seq: int) -> None:
        state = self._reliable_pending.pop(seq, None)
        if state is None:
            return  # duplicate ack, or the send was already abandoned
        if state.timer is not None:
            state.timer.cancel()
            state.timer = None
        detector = self.world.failure_detector
        if detector is not None:
            # An ack is liveness evidence: it retracts a standing suspicion
            # of the peer (the ISSUE's "a suspected rank that acks again").
            detector.observe_alive(state.req.peer)
        if state.kind == "data":
            # Rendezvous data: the sender's buffer is free only once the
            # receiver confirmed delivery.
            self._complete_send(state.req)

    # -- receiver-side handlers -------------------------------------------------------

    def _post_recv(self, req: Request) -> None:
        if req.completed:
            return  # cancelled before the CPU got to the posting
        msg = self.matcher.post_recv(req)
        if msg is None:
            return
        if msg.eager:
            # Unexpected eager message: pay the extra buffered copy.
            copy_time = msg.nbytes / self.world.spec.memcpy_bandwidth
            self.cpu.execute(copy_time, self._deliver, req, msg.data)
        else:
            self._rndv_send_cts(msg, req)

    def _handle_arrival(self, msg: InboundMessage) -> None:
        """An eager payload or RTS reached this rank (wire event)."""
        if not self.alive:
            if msg.seq is not None:
                self.msgs_lost_dead += 1
            return
        self.cpu.execute(self._o, self._match_arrival, msg)

    def _match_arrival(self, msg: InboundMessage) -> None:
        # Verified before matching so a corrupt payload never enters the
        # unexpected queue (an RTS carries no payload and always passes).
        if not self._accept(
            msg.src, msg.seq, msg.tag, msg.data, msg.corrupt, msg.crc
        ):
            return
        req = self.matcher.arrive(msg)
        if req is None:
            return
        if msg.eager:
            self._deliver(req, msg.data)
        else:
            self._rndv_send_cts(msg, req)

    def _handle_data(
        self, send: _Send, payload: Any, corrupt: bool, crc: Optional[int]
    ) -> None:
        """Rendezvous data reached this rank (wire event)."""
        if not self.alive:
            if send.seq is not None:
                self.msgs_lost_dead += 1
            return
        self.cpu.execute(self._o, self._data_arrived, send, payload, corrupt, crc)

    def _data_arrived(
        self, send: _Send, payload: Any, corrupt: bool, crc: Optional[int]
    ) -> None:
        if self._accept(send.req.rank, send.seq, send.req.tag, payload, corrupt, crc):
            self._deliver(send.recv_req, payload)

    def _accept(
        self,
        src: int,
        seq: Optional[int],
        tag: int,
        payload: Any,
        corrupt: bool,
        crc: Optional[int],
    ) -> bool:
        """Admit one arrival: True when it should be delivered.

        Every arrival's end-to-end integrity is verified; on the raw
        transport a failed checksum degenerates to a drop. A sequenced
        (reliable) arrival is also NACKed on failure — no ack and no
        ``register_seq``, so the clean retransmit is still fresh — and
        otherwise acked (a duplicate's sender still needs silencing) and
        delivered at most once.
        """
        if corrupt or (
            crc is not None and payload is not None and _payload_crc(payload) != crc
        ):
            self.checksum_rejects += 1
            if self.world.obs is not None:
                self._fault("crc-reject", {"peer": src, "tag": tag, "seq": seq})
            if seq is not None:
                self._send_nack(src, seq)
            return False
        if seq is None:
            return True
        detector = self.world.failure_detector
        if detector is not None:
            detector.observe_alive(src)
        fresh = self.matcher.register_seq(src, seq)
        self._send_ack(src, seq)
        if not fresh and self.world.obs is not None:
            self._fault("dup-suppressed", {"peer": src, "tag": tag, "seq": seq})
        return fresh

    def _deliver(self, req: Request, payload: Any) -> None:
        if req.completed:
            # A late redelivery of a cancelled (or raced) receive: drop it.
            if self.world.obs is not None:
                self._fault("stale-deliver", {"peer": req.peer, "tag": req.tag})
            return
        req._complete(self.engine.now, data=payload)

    def cancel_recv(self, req: Request) -> bool:
        """Withdraw a posted receive (fault recovery). True if cancelled.

        Works whether the posting is still queued on the CPU (``_post_recv``
        then skips it) or already in the matcher (removed from the posted
        queue). A receive already matched to an in-flight rendezvous has
        completed or will strand on its own; it cannot be withdrawn.
        """
        if req.completed:
            return False
        self.matcher.cancel_recv(req)
        req.cancel()
        return True

    def reduce_local(
        self,
        nbytes: int,
        fn: Optional[Callable] = None,
        *args,
        on_gpu: bool = False,
        tag: Optional[int] = None,
    ) -> None:
        """Charge one reduction pass over ``nbytes`` of operands.

        ``on_gpu=True`` offloads to the least-loaded simulated CUDA stream
        (Section 4.2): the rank's CPU only pays the kernel-launch overhead
        and the arithmetic overlaps with communication.

        ``tag`` identifies the segment being reduced for the dependency
        analyzer; it has no runtime effect.
        """
        if self.world.observer is not None:
            fn = self.world.observer.wrap_reduce(self.rank, nbytes, tag, fn, args)
            args = ()
        if on_gpu:
            gpu = self.world.spec.node.gpu
            if gpu is None:
                raise ValueError("reduce offload requested on a GPU-less machine")
            start = self.cpu.execute(gpu.kernel_launch)
            idx = min(range(len(self._gpu_streams)), key=self._gpu_streams.__getitem__)
            begin = max(start, self._gpu_streams[idx])
            end = begin + nbytes / gpu.reduce_bandwidth
            self._gpu_streams[idx] = end
            if fn is not None:
                self.engine.call_at(end, fn, *args)
        else:
            self.cpu.execute(nbytes / self.world.spec.cpu_reduce_bandwidth, fn, *args)


class MpiWorld:
    """A job: ``nranks`` ranks placed on a machine, sharing one fabric."""

    def __init__(
        self,
        spec: MachineSpec,
        nranks: int,
        config: RuntimeConfig = DEFAULT_RUNTIME,
        gpu_bound: bool = False,
        carry_data: bool = False,
        gpudirect: bool = True,
        sanitize: bool = False,
        observe: bool = False,
    ):
        # A spec out of the topology compiler (repro.topo) carries its
        # compiled model: routing swaps to the compiled link list, and
        # GPU-native families (rail pods) force GPU binding.
        compiled = getattr(spec, "compiled", None)
        if compiled is not None:
            gpu_bound = gpu_bound or compiled.gpu_bound
        self.spec = spec
        self.nranks = nranks
        self.config = config
        self.gpu_bound = gpu_bound
        self.carry_data = carry_data
        self.engine = Engine()
        self.topology = Topology(spec, nranks, gpu_bound=gpu_bound)
        if compiled is not None:
            from repro.network.topofabric import TopoFabric  # deferred: avoids cycle

            self.fabric: Fabric = TopoFabric(
                self.engine, spec, self.topology, compiled, gpudirect=gpudirect
            )
        else:
            self.fabric = Fabric(self.engine, spec, self.topology, gpudirect=gpudirect)
        # Analysis hooks: a dependency-graph recorder may attach as observer
        # (repro.analysis.depgraph); sanitize=True arms runtime invariant
        # checks (repro.analysis.sanitizer). Both default off and cost one
        # attribute test per hot-path event when off.
        self.observer = None
        self.sanitizer = None
        if sanitize:
            from repro.analysis.sanitizer import Sanitizer  # deferred: avoids cycle

            self.sanitizer = Sanitizer(self)
        # Observability (repro.obs): observe=True attaches a span/counter
        # recorder as world.obs; rank CPUs and the fair-share network get a
        # direct reference so their hot paths pay one pointer test when off.
        self.obs = None
        if observe:
            from repro.obs.spans import ObsRecorder  # deferred: avoids cycle

            self.obs = ObsRecorder()
        self.ranks = [RankRuntime(self, r) for r in range(nranks)]
        self.fabric.network.sanitizer = self.sanitizer
        self.fabric.network.obs = self.obs
        # Fault tolerance: a repro.faults.FailureDetector may attach here;
        # fail-stopped ranks accumulate in failed_ranks (see kill_rank).
        # Subscriptions made before a detector exists are buffered and
        # adopted by the detector at construction, so collectives may launch
        # before or after the fault injector is armed.
        self.failure_detector = None
        self._failure_subscribers: list = []
        self.failed_ranks: set[int] = set()
        # Live recovery (repro.recovery): a MembershipService attaches here
        # when ULFM-style agreement/shrink is requested.
        self.membership: Any = None
        self._next_tag = 0

    def subscribe_failures(self, fn, cpu=None, alive_fn=None) -> None:
        """Register a failure callback, detector present or not (yet).

        ``alive_fn`` (optional) hears retractions — a suspected or even
        declared-failed rank that produced liveness evidence again. It may
        fire without a preceding ``fn`` call and must be idempotent.
        """
        if self.failure_detector is not None:
            self.failure_detector.subscribe(fn, cpu=cpu, alive_fn=alive_fn)
        else:
            self._failure_subscribers.append((fn, cpu, alive_fn))

    def allocate_tags(self, count: int) -> int:
        """Reserve a contiguous tag range (collectives namespace segments)."""
        base = self._next_tag
        self._next_tag += max(1, count)
        return base

    def run(self, until: Optional[float] = None) -> float:
        """Drive the simulation until quiescence. Returns final time."""
        t = self.engine.run(until=until)
        if self.sanitizer is not None and until is None:
            self.sanitizer.check_drained()
        return t

    def inject_noise(self, rank: int, duration: float) -> None:
        """Inject one noise interval into ``rank``'s CPU, starting now."""
        self.ranks[rank].cpu.inject_noise(duration)

    def kill_rank(self, rank: int) -> None:
        """Fail-stop ``rank``: its CPU halts, pending work is dropped.

        Messages already on the wire still drain (the network does not know
        the process died) but are discarded on arrival. Detection reaches the
        survivors only through the failure detector's delay, or a reliable
        sender's exhausted retry budget — never instantly.
        """
        rt = self.ranks[rank]
        if not rt.alive:
            return
        rt.fail_stop()
        self.failed_ranks.add(rank)

    def transport_stats(self) -> dict[str, int]:
        """Aggregate reliable-transport counters across ranks."""
        return {
            "transmissions": sum(rt.transmissions for rt in self.ranks),
            "retransmits": sum(rt.retransmits for rt in self.ranks),
            "acks_sent": sum(rt.acks_sent for rt in self.ranks),
            "nacks_sent": sum(rt.nacks_sent for rt in self.ranks),
            "checksum_rejects": sum(rt.checksum_rejects for rt in self.ranks),
            "sends_abandoned": sum(rt.sends_abandoned for rt in self.ranks),
            "sends_parked": sum(rt.sends_parked for rt in self.ranks),
            "msgs_lost_dead": sum(rt.msgs_lost_dead for rt in self.ranks),
            "duplicates_suppressed": sum(
                rt.matcher.duplicates_suppressed for rt in self.ranks
            ),
            "fresh_deliveries": sum(
                rt.matcher.fresh_deliveries() for rt in self.ranks
            ),
        }

    def total_unexpected(self) -> int:
        return sum(rt.matcher.unexpected_eager_count for rt in self.ranks)
