"""Fault injector: turns a :class:`~repro.faults.plan.FaultPlan` into events.

Mirrors :class:`~repro.noise.injector.NoiseInjector`'s design: explicit
arming over a horizon (a drained event queue still means "finished"), a
seeded generator, and per-spec phases drawn once at construction. One-shot
faults (kills, stalls) are armed exactly once regardless of how many
windows are armed; periodic faults (flaps) extend over each new window;
probabilistic faults (drops, duplicates) are evaluated per data message by
the :class:`FabricFaults` filter installed on the fabric.

Every fault materialized is appended to :attr:`FaultInjector.timeline`
``(time, kind, detail)`` — the determinism contract: equal plans over equal
workloads give byte-identical timelines.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional

from repro.faults.plan import FaultPlan
from repro.mpi.runtime import MpiWorld
from repro.network.flows import Flow
from repro.sim.rng import Generator

if TYPE_CHECKING:
    from repro.faults.detector import FailureDetector


class FabricFaults:
    """Per-message loss/duplication filter (installed as ``Fabric.faults``).

    The fabric consults this before launching a data-plane transfer
    (``taginfo`` is set: eager payloads and rendezvous data; control
    messages and GPU staging copies are exempt). A *drop* lets the wire
    time pass but swallows the delivery callback — crucially, the filter
    wraps the callback before the fabric's in-order channel chaining, so a
    dropped message never wedges the channel behind it. A *duplicate*
    launches a faithful second copy right behind the original; duplicates
    are only injected when the runtime is reliable (sequence numbers make
    redelivery safe to suppress).
    """

    def __init__(self, injector: "FaultInjector", dedup_safe: bool):
        self._injector = injector
        self.dedup_safe = dedup_safe

    def intercept(
        self,
        src: int,
        dst: int,
        nbytes: int,
        taginfo,
        on_complete: Callable[[Flow], None],
    ) -> tuple[Callable[[Flow], None], Optional[Callable[[Flow], None]]]:
        """Returns ``(wrapped_on_complete, duplicate_callback_or_None)``."""
        inj = self._injector
        spec = inj.match_loss(src, dst)
        if spec is None:
            return on_complete, None
        dup_cb: Optional[Callable[[Flow], None]] = None
        if spec.duplicate > 0.0 and self.dedup_safe:
            if inj.rng.random() < spec.duplicate:
                inj.duplicated += 1
                inj.record("dup", f"{src}->{dst} tag={taginfo} {nbytes}B")
                dup_cb = on_complete
        if spec.drop > 0.0 and inj.rng.random() < spec.drop:
            inj.dropped += 1
            inj.record("drop", f"{src}->{dst} tag={taginfo} {nbytes}B")

            def swallowed(flow: Flow) -> None:
                # The bytes crossed the wire; the delivery evaporates.
                return

            return swallowed, dup_cb
        return on_complete, dup_cb

    def severed(self, src: int, dst: int) -> bool:
        """True when an active partition cuts the (src -> dst) path.

        Consulted by the fabric for *every* launch — data transfers and
        control messages alike. A severed message never enters the network:
        no wire time, no channel occupancy, no delivery. Severed is not
        lost; the reliable transport parks and resumes after the heal.
        """
        return any(p.severs(src, dst) for p in self._injector.active_partitions)

    def count_severed(self, src: int, dst: int, nbytes: int, taginfo) -> None:
        """Book a severed launch. Data-plane messages (those the runtime
        counted as transmissions: eager, data, rts) feed the transport
        conservation equation; acks/heartbeats/membership tokens are booked
        separately as control."""
        inj = self._injector
        kind = taginfo[0] if taginfo else None
        if kind in ("eager", "data", "rts"):
            inj.severed += 1
        else:
            inj.severed_control += 1

    def corrupt_roll(
        self, src: int, dst: int, nbytes: int, taginfo
    ) -> Optional[int]:
        """Decide whether this data message is corrupted in flight.

        Returns the seed-deterministic bit index to flip (within the
        ``nbytes`` payload), or ``None``. Called by the runtime at wire
        launch — sender CPU order, so equal plans over equal workloads roll
        identically regardless of receiver-side timing.
        """
        inj = self._injector
        spec = inj.match_corrupt(src, dst)
        if spec is None or spec.rate <= 0.0:
            return None
        if inj.rng.random() >= spec.rate:
            return None
        bit = inj.rng.integers(max(1, nbytes * 8))
        inj.corrupted += 1
        inj.record("corrupt", f"{src}->{dst} tag={taginfo} {nbytes}B bit={bit}")
        return bit


class FaultInjector:
    """Schedules a plan's faults into a world's engine and fabric."""

    def __init__(self, world: MpiWorld, plan: FaultPlan):
        self.world = world
        self.plan = plan
        self.rng = Generator(plan.seed)
        self.timeline: list[tuple[float, str, str]] = []
        # Counters (conservation checked by the sanitizer, DESIGN.md S17).
        self.dropped = 0
        self.duplicated = 0
        self.corrupted = 0
        self.kills_done = 0
        self.stalls_done = 0
        self.flap_toggles = 0
        self.severed = 0  # data-plane launches cut by an active partition
        self.severed_control = 0  # acks / heartbeats / membership tokens cut
        self.partitions_done = 0
        self.heals_done = 0
        #: Partitions currently splitting the fabric (between start and heal).
        self.active_partitions: list = []
        # Independent phase per flap spec, fixed for the injector's lifetime
        # (same draw discipline as NoiseInjector rank phases).
        self._flap_phase = [
            self.rng.uniform(0.0, spec.period) for spec in plan.flaps
        ]
        self._flap_armed_until = [0.0] * len(plan.flaps)
        self._flap_base: dict[str, float] = {}  # link name -> base capacity
        self._oneshots_armed = False
        self.fabric_faults = FabricFaults(self, dedup_safe=world.config.reliable)
        # Install the data-plane filter and failure detector immediately:
        # collectives subscribe to the detector at launch time, which may
        # precede the first arm() of the driving loop.
        self.detector: Optional[FailureDetector] = None
        if plan.losses or plan.corrupts or plan.partitions:
            world.fabric.faults = self.fabric_faults
        if plan.kills or plan.partitions or plan.adaptive:
            from repro.faults.detector import FailureDetector

            self.detector = world.failure_detector or FailureDetector(
                world,
                plan.detect_delay,
                phi_threshold=plan.phi_threshold,
                heartbeat_period=plan.heartbeat_period,
            )
        for spec in plan.kills:
            if not 0 <= spec.rank < world.nranks:
                raise ValueError(
                    f"kill rank {spec.rank} outside [0, {world.nranks})"
                )
        for spec in plan.stalls:
            if not 0 <= spec.rank < world.nranks:
                raise ValueError(
                    f"stall rank {spec.rank} outside [0, {world.nranks})"
                )
        for spec in plan.partitions:
            ranks = spec.ranks()
            if ranks != frozenset(range(world.nranks)):
                raise ValueError(
                    f"partition groups must cover all {world.nranks} ranks "
                    f"exactly; got {sorted(ranks)}"
                )

    # -- bookkeeping ---------------------------------------------------------

    def record(self, kind: str, detail: str) -> None:
        self.timeline.append((self.world.engine.now, kind, detail))

    def match_loss(self, src: int, dst: int):
        """First loss spec covering the (src -> dst) channel, if any."""
        for spec in self.plan.losses:
            if spec.matches(src, dst):
                return spec
        return None

    def match_corrupt(self, src: int, dst: int):
        """First corruption spec covering the (src -> dst) channel, if any."""
        for spec in self.plan.corrupts:
            if spec.matches(src, dst):
                return spec
        return None

    # -- arming ---------------------------------------------------------------

    def arm(self, horizon: float) -> int:
        """Install hooks and schedule faults up to ``now + horizon``.

        One-shot kills/stalls are scheduled on the first call only (at their
        absolute plan times, even beyond the horizon); flap toggles cover
        each newly armed window exactly once. Returns the number of engine
        events scheduled.
        """
        eng = self.world.engine
        scheduled = 0
        if not self._oneshots_armed:
            self._oneshots_armed = True
            for spec in self.plan.kills:
                eng.call_at(spec.time, self._do_kill, spec.rank)
                scheduled += 1
            for spec in self.plan.stalls:
                eng.call_at(spec.time, self._do_stall, spec.rank, spec.duration)
                scheduled += 1
            for spec in self.plan.partitions:
                eng.call_at(spec.start, self._do_partition, spec)
                eng.call_at(spec.heal, self._do_heal, spec)
                scheduled += 2
        if self.detector is not None and (self.plan.partitions
                                          or self.plan.adaptive):
            self.detector.arm_heartbeats(horizon)
        for i, spec in enumerate(self.plan.flaps):
            end = eng.now + horizon
            start = max(eng.now, self._flap_armed_until[i])
            k = max(0, math.ceil((start - self._flap_phase[i]) / spec.period))
            t = self._flap_phase[i] + k * spec.period
            while t < end:
                eng.call_at(t, self._do_flap, i, True)
                eng.call_at(t + spec.duty * spec.period, self._do_flap, i, False)
                scheduled += 2
                t += spec.period
            self._flap_armed_until[i] = end
        return scheduled

    # -- fault actions ----------------------------------------------------------

    def _do_kill(self, rank: int) -> None:
        if rank in self.world.failed_ranks:
            return
        self.kills_done += 1
        self.record("kill", f"rank {rank}")
        self.world.kill_rank(rank)
        detector = self.world.failure_detector
        if detector is not None:
            detector.observe_kill(rank)

    def _do_partition(self, spec) -> None:
        self.partitions_done += 1
        self.active_partitions.append(spec)
        groups = "|".join(
            ",".join(str(r) for r in g) for g in spec.groups
        )
        self.record("partition", f"[{groups}] until {spec.heal:.6f}s")

    def _do_heal(self, spec) -> None:
        # A heal fires after its own partition started (heal > start).
        self.heals_done += 1
        self.active_partitions.remove(spec)
        self.record("heal", f"severed {self.severed} data msgs")
        # The membership layer may be parked awaiting quorum or hold ranks
        # it wrote off that are alive; let it evict and re-round.
        svc = getattr(self.world, "membership", None)
        if svc is not None:
            svc.on_heal()

    def _do_stall(self, rank: int, duration: float) -> None:
        if rank in self.world.failed_ranks:
            return  # stalling the dead is a no-op
        self.stalls_done += 1
        self.record("stall", f"rank {rank} for {duration:.6f}s")
        self.world.inject_noise(rank, duration)

    def _do_flap(self, index: int, degrade: bool) -> None:
        spec = self.plan.flaps[index]
        hit = [
            link
            for name, link in self.world.fabric.links().items()
            if spec.link in name
        ]
        if not hit:
            return  # links are lazy; none touched by traffic yet
        for link in hit:
            base = self._flap_base.setdefault(link.name, link.capacity)
            link.capacity = base * spec.factor if degrade else base
        self.flap_toggles += 1
        self.record(
            "flap",
            f"{spec.link!r} x{spec.factor if degrade else 1.0:g} "
            f"({len(hit)} links)",
        )
        self.world.fabric.network.refresh(hit)
