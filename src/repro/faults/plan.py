"""Declarative fault workloads.

A :class:`FaultPlan` is data, not behaviour: it lists what goes wrong and
when, and carries the seed that makes the probabilistic parts reproducible.
The :class:`~repro.faults.injector.FaultInjector` turns a plan into engine
events and fabric hooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.rng import check_seed


@dataclass(frozen=True)
class KillSpec:
    """Fail-stop ``rank`` at absolute simulation time ``time``."""

    rank: int
    time: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"kill time must be >= 0, got {self.time}")


@dataclass(frozen=True)
class StallSpec:
    """Steal ``rank``'s CPU for ``duration`` seconds starting at ``time``.

    A stall is livelock-flavoured noise: the rank recovers, unlike a kill.
    """

    rank: int
    time: float
    duration: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"stall time must be >= 0, got {self.time}")
        if self.duration <= 0:
            raise ValueError(f"stall duration must be > 0, got {self.duration}")


@dataclass(frozen=True)
class LossSpec:
    """Degrade the (src -> dst) data channels: drop and duplicate messages.

    ``src``/``dst`` of ``None`` wildcard over all ranks, so a single
    ``LossSpec(drop=0.01)`` makes the whole fabric 1% lossy. Probabilities
    apply per data-plane message (eager payloads and rendezvous data);
    control traffic rides the reliable credit-based channel and is exempt.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    src: Optional[int] = None
    dst: Optional[int] = None

    def __post_init__(self) -> None:
        for name, p in (("drop", self.drop), ("duplicate", self.duplicate)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability must be in [0, 1], got {p}")

    def matches(self, src: int, dst: int) -> bool:
        return (self.src is None or self.src == src) and (
            self.dst is None or self.dst == dst
        )


@dataclass(frozen=True)
class CorruptSpec:
    """Flip one payload bit in (src -> dst) data messages with rate ``rate``.

    ``src``/``dst`` of ``None`` wildcard over all ranks, like
    :class:`LossSpec`. Corruption is applied at wire launch: the message
    arrives on time but with one seed-deterministically chosen bit flipped,
    which the receiver's per-segment checksum catches at delivery. On the
    reliable transport a corrupt arrival triggers a NACK and an immediate
    retransmit; on the raw transport it is equivalent to a silent drop of
    the payload's integrity (delivered but flagged).
    """

    rate: float
    src: Optional[int] = None
    dst: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"corrupt rate must be in [0, 1], got {self.rate}")

    def matches(self, src: int, dst: int) -> bool:
        return (self.src is None or self.src == src) and (
            self.dst is None or self.dst == dst
        )


@dataclass(frozen=True)
class FlapSpec:
    """Periodically degrade every link whose name contains ``link``.

    Each period the link runs at ``factor`` of its base capacity for
    ``duty`` of the period, then recovers — a flapping cable or a congested
    oversubscribed switch port. Link names follow the fabric inventory
    (e.g. ``"nic-out:n1"``, ``"qpi"``, or ``""`` for every link).
    """

    link: str
    factor: float
    period: float
    duty: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.factor <= 1.0:
            raise ValueError(f"flap factor must be in (0, 1], got {self.factor}")
        if self.period <= 0:
            raise ValueError(f"flap period must be > 0, got {self.period}")
        if not 0.0 < self.duty < 1.0:
            raise ValueError(f"flap duty must be in (0, 1), got {self.duty}")


@dataclass(frozen=True)
class PartitionSpec:
    """Split the fabric into isolated ``groups`` from ``start`` until ``heal``.

    While active, every message whose endpoints sit in *different* groups is
    **severed** at the fabric boundary — data, acks, control tokens and
    heartbeats alike. Severed is not lost: nothing crosses, so the reliable
    transport parks and resumes after the heal instead of abandoning. Ranks
    must appear in exactly one group; the injector additionally checks that
    the groups cover the whole world.
    """

    groups: tuple[tuple[int, ...], ...]
    start: float
    heal: float

    def __init__(self, groups, start: float, heal: float):
        # Frozen dataclass with nested coercion, so asdict/JSON round-trips
        # (lists of lists) rebuild cleanly via plan_from_dict.
        object.__setattr__(
            self, "groups", tuple(tuple(int(r) for r in g) for g in groups)
        )
        object.__setattr__(self, "start", float(start))
        object.__setattr__(self, "heal", float(heal))
        if len(self.groups) < 2:
            raise ValueError(
                f"a partition needs >= 2 groups, got {len(self.groups)}"
            )
        seen: set[int] = set()
        for g in self.groups:
            if not g:
                raise ValueError("partition groups must be non-empty")
            overlap = seen & set(g)
            if overlap:
                raise ValueError(
                    f"partition groups must be disjoint; rank(s) "
                    f"{sorted(overlap)} appear twice"
                )
            seen |= set(g)
        if self.start < 0:
            raise ValueError(f"partition start must be >= 0, got {self.start}")
        if self.heal <= self.start:
            raise ValueError(
                f"partition heal must be > start, got start={self.start} "
                f"heal={self.heal}"
            )

    def side_of(self, rank: int) -> Optional[int]:
        """Index of the group holding ``rank`` (None if unlisted)."""
        for i, g in enumerate(self.groups):
            if rank in g:
                return i
        return None

    def severs(self, src: int, dst: int) -> bool:
        """True when the cut lies between these endpoints."""
        a, b = self.side_of(src), self.side_of(dst)
        return a is not None and b is not None and a != b

    def ranks(self) -> frozenset[int]:
        return frozenset(r for g in self.groups for r in g)


@dataclass(frozen=True)
class FaultPlan:
    """One seeded fault workload.

    ``seed`` drives every probabilistic decision (drops, duplicates, flap
    phases): two injectors built from equal plans over identical workloads
    produce byte-identical fault timelines. ``detect_delay`` is how long
    the detector waits between suspecting a rank and confirming the failure
    (the retraction window); ``phi_threshold``/``heartbeat_period``
    parameterize the phi-accrual detector, armed whenever the plan carries
    partitions or sets ``adaptive``.
    """

    kills: tuple[KillSpec, ...] = ()
    stalls: tuple[StallSpec, ...] = ()
    losses: tuple[LossSpec, ...] = ()
    flaps: tuple[FlapSpec, ...] = ()
    corrupts: tuple[CorruptSpec, ...] = ()
    partitions: tuple[PartitionSpec, ...] = ()
    seed: int = 0
    detect_delay: float = 1e-3
    phi_threshold: float = 8.0
    heartbeat_period: float = 1e-3
    adaptive: bool = False

    def __init__(
        self,
        kills=(),
        stalls=(),
        losses=(),
        flaps=(),
        corrupts=(),
        seed: int = 0,
        detect_delay: float = 1e-3,
        partitions=(),
        phi_threshold: float = 8.0,
        heartbeat_period: float = 1e-3,
        adaptive: bool = False,
    ):
        # Frozen dataclass with sequence coercion: accept any iterables.
        object.__setattr__(self, "kills", tuple(kills))
        object.__setattr__(self, "stalls", tuple(stalls))
        object.__setattr__(self, "losses", tuple(losses))
        object.__setattr__(self, "flaps", tuple(flaps))
        object.__setattr__(self, "corrupts", tuple(corrupts))
        object.__setattr__(self, "partitions", tuple(partitions))
        object.__setattr__(self, "seed", check_seed(seed))
        object.__setattr__(self, "detect_delay", detect_delay)
        object.__setattr__(self, "phi_threshold", float(phi_threshold))
        object.__setattr__(self, "heartbeat_period", float(heartbeat_period))
        object.__setattr__(self, "adaptive", bool(adaptive))
        if detect_delay < 0:
            raise ValueError(f"detect_delay must be >= 0, got {detect_delay}")
        if phi_threshold <= 0:
            raise ValueError(
                f"phi_threshold must be > 0, got {phi_threshold}"
            )
        if heartbeat_period <= 0:
            raise ValueError(
                f"heartbeat_period must be > 0, got {heartbeat_period}"
            )

    @classmethod
    def single_kill(
        cls, rank: int, time: float, detect_delay: float = 1e-3
    ) -> "FaultPlan":
        """The one-victim fail-stop plan the recovery checkers sweep with."""
        return cls(kills=[KillSpec(rank=rank, time=time)],
                   detect_delay=detect_delay)

    @classmethod
    def stall_sweep(
        cls,
        nranks: int,
        *,
        victims: int = 1,
        duration: float = 5e-3,
        start: float = 0.0,
        spread: float = 0.0,
        seed: int = 0,
        detect_delay: float = 1e-3,
    ) -> "FaultPlan":
        """A seeded per-rank stall grid — ``single_kill``'s straggler twin.

        Picks ``victims`` distinct ranks with the plan's own RNG and stalls
        each for ``duration`` seconds; with ``spread`` > 0 the start times
        scatter uniformly over ``[start, start + spread)`` instead of
        landing together. Equal arguments build equal plans (the cache-key
        property every :class:`FaultPlan` constructor must keep), so figq
        and the fuzz suite can sweep straggler grids in one line.
        """
        import random

        if not 0 <= victims <= nranks:
            raise ValueError(
                f"victims must be in [0, {nranks}], got {victims}"
            )
        rng = random.Random(seed)
        ranks = sorted(rng.sample(range(nranks), victims))
        stalls = [
            StallSpec(
                rank=r,
                time=start + (rng.random() * spread if spread > 0 else 0.0),
                duration=duration,
            )
            for r in ranks
        ]
        return cls(stalls=stalls, seed=seed, detect_delay=detect_delay)


#: Every fault kind a plan dict may carry, mapped to its spec class.  The
#: explicit registry is what lets :func:`plan_from_dict` reject a typo'd or
#: not-yet-supported kind with a clear error instead of silently ignoring
#: the entry (a silently dropped ``"kils"`` key once cost an afternoon).
FAULT_KINDS: dict[str, type] = {
    "kills": KillSpec,
    "stalls": StallSpec,
    "losses": LossSpec,
    "flaps": FlapSpec,
    "corrupts": CorruptSpec,
    "partitions": PartitionSpec,
}

_SCALARS = (
    "seed", "detect_delay", "phi_threshold", "heartbeat_period", "adaptive",
)


def plan_from_dict(payload: dict) -> FaultPlan:
    """Rebuild a :class:`FaultPlan` from its ``dataclasses.asdict`` form.

    Unknown keys — fault kinds this build does not implement, or typos —
    raise ``ValueError`` naming the offender and the known kinds, instead
    of producing a plan that silently does less than the caller asked for.
    """
    unknown = sorted(k for k in payload if k not in FAULT_KINDS and k not in _SCALARS)
    if unknown:
        raise ValueError(
            f"unknown fault kind(s) {unknown}; "
            f"known kinds: {sorted(FAULT_KINDS)} plus {list(_SCALARS)}"
        )
    kwargs: dict[str, object] = {}
    for kind, cls in FAULT_KINDS.items():
        entries = payload.get(kind, ())
        kwargs[kind] = tuple(
            e if isinstance(e, cls) else cls(**e) for e in entries
        )
    for name in _SCALARS:
        if name in payload:
            kwargs[name] = payload[name]
    return FaultPlan(**kwargs)
