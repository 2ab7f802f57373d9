"""Recovery-path verification: the symbolic kill-sweep.

For an ADAPT collective the checker has already certified fault-free, this
module certifies the *recovery* path: at every explored state of the base
transition system, symbolically kill each non-root rank and verify the
repair machinery reaches a safe completion. Four obligations per
(collective, victim) pair, the middle two re-checked at every state:

1. **membership agreement** — stepping the pure transition functions the
   live :class:`~repro.recovery.membership.MembershipService` runs
   (``merge_suspicions`` → ``ring_walk`` → ``agreed_view``) from the
   pre-kill view must commit a bumped epoch whose failed set contains
   exactly the victim and whose members are exactly the survivors;
2. **re-graft soundness** — ``regraft_tree`` around the victim must leave
   no live rank orphaned (``Regraft.check``) and, with the root alive,
   strand nobody (``lost`` empty);
3. **stale-epoch safety, per state** — a message already in flight when
   the kill hits must never be accepted by the recovery path. Restart
   collectives get this from tag disjointness (every stale message carries
   a base-epoch tag, the relaunch allocates strictly larger ones); in-place
   collectives get it from exact-source matching (every in-flight victim
   message's wire key names the victim, so post-commit arrivals are
   attributable and droppable — no wildcard recv exists to swallow one);
4. **survivor completion witness** — restart collectives: record the
   actual relaunch among the survivors on the re-grafted structure (fresh
   tag block, exactly as :class:`~repro.recovery.restart.EpochRestart`
   builds it) and explore *that* model to completion; in-place
   collectives: record a live faulted run (``launch_recover`` plus a
   seeded fail-stop) and require the schedule linter to pass — no
   stranded survivor, every survivor done or excused.

The triple count the CI budget is phrased in is
``sum over victims of (base states re-checked)`` — every
(collective, killed-rank, state) combination the sweep visited.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.analysis.depgraph import DepGraph, record
from repro.collectives.models import VERIFY_MODELS, AdaptCollective
from repro.recovery.membership import (
    SurvivorView,
    agreed_view,
    merge_suspicions,
    ring_walk,
)
from repro.trees.regraft import regraft_tree
from repro.verify.checker import Exploration, explore
from repro.verify.model import ScheduleModel, build_model, model_from_graph


@dataclass
class VictimReport:
    """One symbolic kill: obligations 1-4 for a single victim rank."""

    victim: int
    membership_ok: bool = False
    regraft_ok: bool = False
    adoptions: dict[int, int] = field(default_factory=dict)
    #: Base states at which stale-epoch safety was re-checked.
    states_checked: int = 0
    stale_ok: bool = False
    #: "restart-model" | "in-place-live" | "skipped"
    witness: str = "skipped"
    witness_ok: bool = False
    #: States of the relaunch model's own exploration (restart only).
    witness_states: int = 0
    issues: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.membership_ok
            and self.regraft_ok
            and self.stale_ok
            and self.witness_ok
            and not self.issues
        )


@dataclass
class KillSweepResult:
    """The sweep verdict for one (collective, nranks, tree) configuration."""

    schedule: str
    collective: str
    mode: str  # "in-place" | "restart"
    nranks: int
    tree: str
    root: int
    base: Exploration
    victims: list[VictimReport] = field(default_factory=list)
    complete: bool = True
    elapsed: float = 0.0

    @property
    def triples(self) -> int:
        """(collective, killed-rank, state) combinations actually checked."""
        return sum(v.states_checked for v in self.victims)

    @property
    def ok(self) -> bool:
        return (
            self.complete
            and self.base.ok
            and bool(self.victims)
            and all(v.ok for v in self.victims)
        )

    def verdict(self) -> str:
        if not self.base.ok:
            return f"BASE NOT SAFE: {self.base.verdict()}"
        if not self.complete:
            return "UNKNOWN (budget exhausted mid-sweep)"
        bad = [v.victim for v in self.victims if not v.ok]
        if bad:
            return f"RECOVERY UNSAFE for victim(s) {bad}"
        return (
            f"RECOVERY CERTIFIED ({self.mode}): {len(self.victims)} "
            f"victim(s) x {self.base.states_explored} state(s) = "
            f"{self.triples} kill points, all safe"
        )


def _base_max_tag(model: ScheduleModel) -> int:
    tags = [
        op.tag for op in model.ops.values()
        if op.kind in ("send", "recv") and op.tag is not None
    ]
    return max(tags) if tags else -1


def _check_membership(victim: int, nranks: int) -> tuple[bool, list[str]]:
    """Step the pure agreement functions for a single-victim round."""
    issues: list[str] = []
    view0 = SurvivorView(0, frozenset(), tuple(range(nranks)))
    proposed = merge_suspicions(view0.failed, [victim])
    responsive = [r for r in range(nranks) if r != victim]
    failed = ring_walk(view0.members, proposed, responsive)
    view1 = agreed_view(view0, failed, nranks)
    if view1.epoch != view0.epoch + 1:
        issues.append(f"epoch not bumped: {view0.epoch} -> {view1.epoch}")
    if failed != frozenset({victim}):
        issues.append(f"agreed failed set {sorted(failed)} != [{victim}]")
    if victim in view1.members:
        issues.append(f"victim {victim} still a member after commit")
    if set(view1.members) != set(range(nranks)) - {victim}:
        issues.append(f"members {view1.members} are not the survivors")
    # Convergence: a second round over the same suspicion is a no-op view
    # change (same members, epoch keeps counting) — re-suspecting the dead
    # must never shrink the survivors further.
    again = ring_walk(
        view1.members, merge_suspicions(view1.failed, [victim]),
        view1.members,
    )
    view2 = agreed_view(view1, again, nranks)
    if view2.members != view1.members or view2.failed != view1.failed:
        issues.append("agreement not convergent: re-suspecting moved the view")
    return not issues, issues


def _check_stale_restart(
    model: ScheduleModel, base: Exploration, tag_floor: int
) -> tuple[int, bool, list[str]]:
    """Every op the base epoch ever posts carries a tag below ``tag_floor``.

    Checked per explored state over the ops in flight there: any message
    crossing the wire when the kill lands is numerically incapable of
    matching a relaunch-epoch recv (which tags from ``tag_floor`` up).
    """
    issues: list[str] = []
    checked = 0
    from repro.verify.checker import _closure

    for state in base.states:
        checked += 1
        posted, _ = _closure(model, state)
        hot = [
            op for op in model.sends
            if op.oid in posted and op.oid not in state
        ]
        for op in hot:
            if op.tag is not None and op.tag >= tag_floor:
                issues.append(
                    f"stale-epoch hazard: {op.label} in flight with tag "
                    f"{op.tag} >= relaunch tag floor {tag_floor}"
                )
        if len(issues) > 8:
            break
    return checked, not issues, issues


def _check_stale_inplace(
    model: ScheduleModel, base: Exploration, victim: int
) -> tuple[int, bool, list[str]]:
    """Every message the victim could leave in flight is attributable.

    In-place repair drops post-commit arrivals from the dead: that needs
    (a) no wildcard recv anywhere (exact-source matching only — a wildcard
    could swallow a stale victim message into a live exchange), and (b) at
    every state, each in-flight victim send's wire key names the victim as
    source, so the transport can identify and discard it after the commit.
    """
    issues: list[str] = []
    for r in model.recvs:
        if r.peer is None:
            issues.append(f"wildcard recv breaks attributability: {r.label}")
    checked = 0
    from repro.verify.checker import _closure

    for state in base.states:
        checked += 1
        posted, _ = _closure(model, state)
        for op in model.sends:
            if op.rank != victim:
                continue
            if op.oid in posted and op.oid not in state and op.key[0] != victim:
                issues.append(
                    f"in-flight victim message not attributable: {op.label}"
                )
        if len(issues) > 8:
            break
    return checked, not issues, issues


def _record_restart_witness(
    schedule: str,
    adapt: AdaptCollective,
    victim: int,
    nranks: int,
    tree: str,
    nbytes: int,
    segment_size: int,
    root: int,
    tag_floor: int,
) -> tuple[DepGraph, list[int]]:
    """Record the survivors' relaunch exactly as ``EpochRestart`` builds it:
    same communicator, original tree re-grafted around the victim, fresh
    tag block strictly above the base epoch's."""
    from repro.analysis.schedules import recording_context
    from repro.config import CollectiveConfig

    # Push the floor first: the relaunch's tags are disjoint from the base's.
    ctx = recording_context(
        nranks, tree, root, nbytes, CollectiveConfig(segment_size=segment_size),
        tag_floor=tag_floor,
    )
    assert ctx.tree is not None
    ctx.tree = regraft_tree(ctx.tree, {victim}).survivor
    members = sorted(set(range(nranks)) - {victim})
    graph = record(
        ctx.world,
        lambda: adapt.relaunch(ctx, members),
        meta={
            "schedule": f"{schedule}-relaunch",
            "nranks": nranks,
            "nbytes": nbytes,
            "victim": victim,
            "eager_threshold": ctx.world.config.eager_threshold,
        },
    )
    return graph, members


def _witness_restart(
    rep: VictimReport,
    schedule: str,
    adapt: AdaptCollective,
    nranks: int,
    tree: str,
    nbytes: int,
    segment_size: int,
    root: int,
    tag_floor: int,
    max_states: int,
) -> None:
    rep.witness = "restart-model"
    graph, members = _record_restart_witness(
        schedule, adapt, rep.victim, nranks, tree, nbytes,
        segment_size, root, tag_floor,
    )
    wmodel = model_from_graph(graph)
    wexp = explore(wmodel, max_states=max_states, keep_states=False)
    rep.witness_states = wexp.states_explored
    ok = True
    if not wexp.ok:
        ok = False
        rep.issues.append(f"relaunch model: {wexp.verdict()}")
    if rep.victim in wmodel.ranks:
        ok = False
        rep.issues.append(
            f"dead rank {rep.victim} participates in the relaunch"
        )
    stray = set(wmodel.ranks) - set(members)
    if stray:
        ok = False
        rep.issues.append(f"non-member rank(s) {sorted(stray)} in relaunch")
    low = [
        op.label for op in wmodel.ops.values()
        if op.kind in ("send", "recv")
        and op.tag is not None and op.tag < tag_floor
    ]
    if low:
        ok = False
        rep.issues.append(
            f"relaunch tag(s) below the stale floor {tag_floor}: {low[:4]}"
        )
    rep.witness_ok = ok


def _witness_inplace(
    rep: VictimReport,
    schedule: str,
    collective: str,
    nranks: int,
    tree: str,
    nbytes: int,
    segment_size: int,
    root: int,
) -> None:
    """Record a live faulted run and require a clean lint + full completion."""
    from repro.analysis.lint import lint
    from repro.analysis.schedules import recording_context
    from repro.config import CollectiveConfig
    from repro.faults import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.recovery import launch_recover

    rep.witness = "in-place-live"
    ctx = recording_context(
        nranks, tree, root, nbytes, CollectiveConfig(segment_size=segment_size)
    )
    world = ctx.world
    plan = FaultPlan.single_kill(rep.victim, 2e-4, detect_delay=2e-4)
    handles: list[Any] = []

    def launch() -> None:
        handles.append(launch_recover(collective, ctx))
        FaultInjector(world, plan).arm(0.05)

    graph = record(
        world,
        launch,
        meta={
            "schedule": f"{schedule}-kill{rep.victim}",
            "nranks": nranks,
            "nbytes": nbytes,
            "victim": rep.victim,
            "eager_threshold": world.config.eager_threshold,
        },
    )
    report = lint(graph)
    ok = True
    if not report.ok:
        ok = False
        rules = sorted({f.rule for f in report.errors})
        rep.issues.append(
            f"live kill run fails lint: {rules} "
            f"({len(report.errors)} error finding(s))"
        )
    handle = handles[0]
    missing = [
        r for r in range(nranks)
        if r != rep.victim
        and r not in handle.done_time
        and r not in handle.excused
    ]
    if missing:
        ok = False
        rep.issues.append(f"survivor(s) {missing} never completed or excused")
    agreed = handle.report.agreed_failed
    if agreed and rep.victim not in agreed:
        ok = False
        rep.issues.append(
            f"membership agreed {sorted(agreed)} without the victim"
        )
    rep.witness_ok = ok


@dataclass
class CutReport:
    """One symbolic bipartition: split-brain obligations for a single cut."""

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]
    #: "a" | "b" | None — which side's proposal reaches quorum.
    committer: Optional[str] = None
    quorum_ok: bool = False
    reconcile_ok: bool = False
    ringwalk_ok: bool = False
    #: Base states at which stale-epoch safety was re-checked.
    states_checked: int = 0
    stale_ok: bool = False
    #: "partition-live" | "skipped"
    witness: str = "skipped"
    witness_ok: bool = True
    issues: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.quorum_ok
            and self.reconcile_ok
            and self.ringwalk_ok
            and self.stale_ok
            and self.witness_ok
            and not self.issues
        )


@dataclass
class PartitionSweepResult:
    """The sweep verdict for one (collective, nranks, tree) configuration."""

    schedule: str
    collective: str
    mode: str  # "in-place" | "restart"
    nranks: int
    tree: str
    root: int
    base: Exploration
    cuts: list[CutReport] = field(default_factory=list)
    complete: bool = True
    elapsed: float = 0.0

    @property
    def triples(self) -> int:
        """(collective, cut, state) combinations actually checked."""
        return sum(c.states_checked for c in self.cuts)

    @property
    def witnessed(self) -> int:
        return sum(1 for c in self.cuts if c.witness != "skipped")

    @property
    def ok(self) -> bool:
        return (
            self.complete
            and self.base.ok
            and bool(self.cuts)
            and all(c.ok for c in self.cuts)
        )

    def verdict(self) -> str:
        if not self.base.ok:
            return f"BASE NOT SAFE: {self.base.verdict()}"
        if not self.complete:
            return "UNKNOWN (budget exhausted mid-sweep)"
        bad = [
            f"{list(c.side_a)}|{list(c.side_b)}"
            for c in self.cuts if not c.ok
        ]
        if bad:
            return f"PARTITION UNSAFE for cut(s) {bad[:4]}"
        return (
            f"PARTITION CERTIFIED ({self.mode}): {len(self.cuts)} cut(s) x "
            f"{self.base.states_explored} state(s) = {self.triples} "
            f"split points, {self.witnessed} live witness(es), all safe"
        )


def _bipartitions(nranks: int):
    """Every nontrivial two-sided cut, rank 0 always on side A.

    Fixing rank 0's side halves the enumeration without losing a cut
    (sides are unordered): 2**(nranks-1) - 1 cuts.
    """
    for mask in range(1, 2 ** (nranks - 1)):
        side_b = tuple(r for r in range(1, nranks) if mask & (1 << (r - 1)))
        side_a = tuple(r for r in range(nranks) if r not in side_b)
        yield side_a, side_b


def _check_cut_agreement(
    rep: CutReport, nranks: int
) -> None:
    """Obligations 1+2: at most one side commits; heal converges by epoch.

    Steps the same pure functions the live service runs, once from each
    side's vantage point: each side proposes the *other* side as failed
    (that is exactly what its detector accrues during the cut) and runs
    the quorum gate. Split-brain safety is the exclusivity of the commit;
    heal-and-merge safety is both sides reconciling to one view.
    """
    from repro.recovery.membership import quorum_commit, reconcile_views

    view0 = SurvivorView(0, frozenset(), tuple(range(nranks)))
    a, b = rep.side_a, rep.side_b
    commit_a = quorum_commit(view0, b, nranks)  # A writes off B
    commit_b = quorum_commit(view0, a, nranks)  # B writes off A
    if commit_a is not None and commit_b is not None:
        rep.issues.append(
            f"split brain: both sides committed epoch "
            f"{commit_a.epoch}/{commit_b.epoch} for one cut"
        )
    expect_a = 2 * len(a) > nranks
    expect_b = 2 * len(b) > nranks
    if (commit_a is not None) != expect_a or (commit_b is not None) != expect_b:
        rep.issues.append(
            f"quorum gate wrong: |A|={len(a)} commit={commit_a is not None}, "
            f"|B|={len(b)} commit={commit_b is not None}, n={nranks}"
        )
    rep.quorum_ok = not rep.issues
    rep.committer = "a" if commit_a is not None else (
        "b" if commit_b is not None else None
    )
    committed = commit_a if commit_a is not None else commit_b
    if committed is not None:
        # The parked side holds view0; the committed side holds epoch 1.
        # Reconciliation must hand *both* sides the committed view,
        # regardless of argument order (epoch precedence is symmetric).
        merged_1 = reconcile_views(committed, view0)
        merged_2 = reconcile_views(view0, committed)
        rep.reconcile_ok = merged_1 == committed and merged_2 == committed
        if not rep.reconcile_ok:
            rep.issues.append(
                f"heal reconciliation lost the committed epoch: "
                f"{merged_1.describe()} / {merged_2.describe()}"
            )
        # Obligation: the committing side's ring walk (its members only
        # responsive) proposes exactly the other side — agreement-as-
        # detection must not write off any member of the quorum side.
        survivors = a if rep.committer == "a" else b
        lost = b if rep.committer == "a" else a
        walked = ring_walk(
            view0.members,
            merge_suspicions(view0.failed, lost),
            survivors,
        )
        rep.ringwalk_ok = walked == frozenset(lost)
        if not rep.ringwalk_ok:
            rep.issues.append(
                f"ring walk wrote off {sorted(walked)} != cut side "
                f"{sorted(lost)}"
            )
    else:
        # Even split: neither side commits, both keep view0 — reconciling
        # two identical epoch-0 views is trivially that view, and no ring
        # walk ever ran to completion (the quorum gate parked it).
        rep.reconcile_ok = (
            reconcile_views(view0, view0) == view0
        )
        rep.ringwalk_ok = True
        if not rep.reconcile_ok:
            rep.issues.append("even-split reconcile mutated the parked view")


def _check_stale_cut(
    model: ScheduleModel, base: Exploration, lost: tuple[int, ...],
    mode: str, tag_floor: int,
) -> tuple[int, bool, list[str]]:
    """Obligation 3 at every base state, with the whole cut side written off.

    Restart collectives: tag disjointness (identical to the kill sweep —
    the floor does not depend on who died). In-place collectives: every
    in-flight message from *any* written-off rank must carry that rank as
    its wire source, so post-commit arrivals from across a healed cut are
    attributable and droppable.
    """
    if mode == "restart":
        return _check_stale_restart(model, base, tag_floor)
    issues: list[str] = []
    for r in model.recvs:
        if r.peer is None:
            issues.append(f"wildcard recv breaks attributability: {r.label}")
    checked = 0
    lost_set = set(lost)
    from repro.verify.checker import _closure

    for state in base.states:
        checked += 1
        posted, _ = _closure(model, state)
        for op in model.sends:
            if op.rank not in lost_set:
                continue
            if op.oid in posted and op.oid not in state \
                    and op.key[0] != op.rank:
                issues.append(
                    f"in-flight cut-side message not attributable: {op.label}"
                )
        if len(issues) > 8:
            break
    return checked, not issues, issues


def _witness_partition(
    rep: CutReport,
    collective: str,
    nranks: int,
    tree: str,
    nbytes: int,
    segment_size: int,
    root: int,
) -> None:
    """Obligation 4, live: drive a real partitioned run through the stack.

    A heal-after-deadline partition over the full recovery stack
    (``launch_recover`` + membership + adaptive detector): the quorum side
    must commit exactly one epoch naming the cut side, every quorum-side
    rank must complete or be excused, and the healed stragglers must be
    evicted — never re-admitted into the committed epoch. For an even
    split the obligations invert: *no* epoch may commit (the round parks
    awaiting quorum), and after the heal everyone completes clean.
    """
    from repro.analysis.schedules import recording_context
    from repro.config import CollectiveConfig
    from repro.faults import FaultInjector
    from repro.faults.plan import FaultPlan, PartitionSpec
    from repro.recovery import launch_recover

    rep.witness = "partition-live"
    ctx = recording_context(
        nranks, tree, root, nbytes, CollectiveConfig(segment_size=segment_size)
    )
    world = ctx.world
    # Heal far beyond the detection deadline (phi crossing + confirm is
    # ~20 periods); the post-deadline path must behave as a kill.
    plan = FaultPlan(partitions=(
        PartitionSpec(groups=(rep.side_a, rep.side_b), start=1e-4, heal=0.2),
    ))
    handle = launch_recover(collective, ctx)
    injector = FaultInjector(world, plan)
    horizon = 0.05
    while world.engine.now < 0.3:
        injector.arm(horizon)
        t = world.engine.now + horizon
        world.run(until=t)
        if world.engine.now < t:
            break  # quiesced early
        horizon = min(horizon * 2, 0.2)
    world.run()

    even = 2 * len(rep.side_a) == nranks
    quorum_side = rep.side_a if 2 * len(rep.side_a) > nranks else rep.side_b
    lost_side = rep.side_b if quorum_side == rep.side_a else rep.side_a
    svc = world.membership
    ok = True
    if even:
        if svc is not None and svc.view.epoch != 0:
            ok = False
            rep.issues.append(
                f"even split committed epoch {svc.view.epoch}: "
                f"{svc.view.describe()}"
            )
        missing = [
            r for r in range(nranks)
            if r not in handle.done_time and r not in handle.excused
        ]
        if missing:
            ok = False
            rep.issues.append(
                f"rank(s) {missing} never completed after even-split heal"
            )
    else:
        if svc is None or svc.view.epoch == 0:
            ok = False
            rep.issues.append("quorum side never committed an epoch")
        elif svc.view.failed != frozenset(lost_side):
            ok = False
            rep.issues.append(
                f"committed failed set {sorted(svc.view.failed)} != cut "
                f"side {sorted(lost_side)}"
            )
        elif set(svc.view.members) & set(lost_side):
            ok = False
            rep.issues.append("cut-side rank re-admitted into the epoch")
        missing = [
            r for r in quorum_side
            if r not in handle.done_time and r not in handle.excused
        ]
        if missing:
            ok = False
            rep.issues.append(
                f"quorum-side rank(s) {missing} never completed or excused"
            )
        still_live = [r for r in lost_side if r not in world.failed_ranks]
        if still_live:
            ok = False
            rep.issues.append(
                f"healed straggler(s) {still_live} not evicted "
                f"(kill-path fall-through broken)"
            )
    rep.witness_ok = ok


def partition_sweep(
    schedule: str,
    nranks: int = 6,
    tree: str = "binary",
    nbytes: int = 64 * 1024,
    segment_size: int = 16 * 1024,
    root: int = 0,
    max_states: int = 200_000,
    budget_seconds: Optional[float] = None,
    witness: bool = True,
) -> PartitionSweepResult:
    """Certify split-brain safety of one ADAPT collective under partitions.

    Enumerates every nontrivial bipartition of the ranks (``2**(n-1) - 1``
    cuts) and, per cut, steps the pure membership transition functions from
    both sides' vantage points: **no cut may yield two committed views for
    one epoch** (the quorum gate's exclusivity), heal-time reconciliation
    must converge both sides onto the committed view (epoch precedence),
    the committing side's ring walk must write off exactly the cut side,
    and in-flight cross-cut traffic must be stale-safe at every explored
    base state (tag disjointness / source attributability, as in the kill
    sweep). ``witness=True`` additionally drives a live heal-after-deadline
    run through the full stack for each cut along the root's contiguous
    prefix family (one cut per minority size, plus the even split) and
    checks the committed epoch, survivor completion, and straggler
    eviction on the real timeline.
    """
    t0 = time.monotonic()
    spec = VERIFY_MODELS.get(schedule)
    adapt = spec.adapt if spec is not None else None
    if adapt is None:
        raise ValueError(
            f"partition-sweep needs an ADAPT collective with a declared "
            f"recovery mode; {schedule!r} is not one"
        )
    model = build_model(
        schedule, nranks=nranks, tree=tree, nbytes=nbytes,
        segment_size=segment_size, root=root,
    )
    base = explore(
        model, max_states=max_states, budget_seconds=budget_seconds,
        keep_states=True,
    )
    result = PartitionSweepResult(
        schedule=schedule,
        collective=adapt.name,
        mode=adapt.recovery,
        nranks=nranks,
        tree=tree,
        root=root,
        base=base,
    )
    if not base.ok:
        result.elapsed = time.monotonic() - t0
        return result
    tag_floor = _base_max_tag(model) + 1
    # The live-witness family: contiguous prefix cuts {0..k} | {k+1..n-1}
    # with the root inside the (weak) majority prefix — one witness per
    # minority size, the even split included. Root-in-minority cuts stay
    # symbolic (a bcast whose quorum side lost the root has no completion
    # to witness; the kill sweep already excludes root victims for the
    # same reason).
    witness_cuts = set()
    if witness:
        for k in range((nranks - 1) // 2, nranks - 1):
            witness_cuts.add(tuple(range(k + 1, nranks)))
    for side_a, side_b in _bipartitions(nranks):
        if budget_seconds is not None \
                and time.monotonic() - t0 > budget_seconds:
            result.complete = False
            break
        rep = CutReport(side_a=side_a, side_b=side_b)
        _check_cut_agreement(rep, nranks)
        lost = ()
        if rep.committer == "a":
            lost = side_b
        elif rep.committer == "b":
            lost = side_a
        if lost:
            rep.states_checked, rep.stale_ok, stale_issues = _check_stale_cut(
                model, base, lost, adapt.recovery, tag_floor
            )
            rep.issues.extend(stale_issues)
        else:
            # Even split: nothing is written off, so there is no stale
            # epoch to guard against — count the states as trivially safe.
            rep.states_checked = base.states_explored
            rep.stale_ok = True
        if side_b in witness_cuts and root in side_a:
            _witness_partition(
                rep, adapt.name, nranks, tree, nbytes,
                segment_size, root,
            )
        result.cuts.append(rep)
    result.elapsed = time.monotonic() - t0
    return result


def kill_sweep(
    schedule: str,
    nranks: int = 6,
    tree: str = "binary",
    nbytes: int = 64 * 1024,
    segment_size: int = 16 * 1024,
    root: int = 0,
    max_states: int = 200_000,
    budget_seconds: Optional[float] = None,
    witness: bool = True,
) -> KillSweepResult:
    """Certify the recovery path of one ADAPT collective.

    Explores the fault-free model, then runs obligations 1-4 (module
    docstring) for every non-root victim. ``witness=False`` skips the
    (comparatively slow) completion-witness recordings — obligations 1-3
    still run at every state.
    """
    t0 = time.monotonic()
    spec = VERIFY_MODELS.get(schedule)
    adapt = spec.adapt if spec is not None else None
    if adapt is None:
        raise ValueError(
            f"kill-sweep needs an ADAPT collective with a declared recovery "
            f"mode; {schedule!r} is not one"
        )
    model = build_model(
        schedule, nranks=nranks, tree=tree, nbytes=nbytes,
        segment_size=segment_size, root=root,
    )
    base = explore(
        model, max_states=max_states, budget_seconds=budget_seconds,
        keep_states=True,
    )
    result = KillSweepResult(
        schedule=schedule,
        collective=adapt.name,
        mode=adapt.recovery,
        nranks=nranks,
        tree=tree,
        root=root,
        base=base,
    )
    if not base.ok:
        result.elapsed = time.monotonic() - t0
        return result
    tag_floor = _base_max_tag(model) + 1
    for victim in range(nranks):
        if victim == root:
            continue
        if budget_seconds is not None and time.monotonic() - t0 > budget_seconds:
            result.complete = False
            break
        rep = VictimReport(victim=victim)
        rep.membership_ok, mem_issues = _check_membership(victim, nranks)
        rep.issues.extend(mem_issues)

        from repro.analysis.schedules import TREES

        shape = TREES[tree](nranks).reroot_relabelled(root)
        rg = regraft_tree(shape, {victim})
        try:
            rg.check({victim})
            rep.regraft_ok = not rg.lost
            if rg.lost:
                rep.issues.append(
                    f"re-graft strands live rank(s) {sorted(rg.lost)}"
                )
            rep.adoptions = dict(rg.adoptions)
        except AssertionError as exc:
            rep.regraft_ok = False
            rep.issues.append(f"re-graft check failed: {exc}")

        if adapt.recovery == "restart":
            rep.states_checked, rep.stale_ok, stale_issues = (
                _check_stale_restart(model, base, tag_floor)
            )
        else:
            rep.states_checked, rep.stale_ok, stale_issues = (
                _check_stale_inplace(model, base, victim)
            )
        rep.issues.extend(stale_issues)

        if witness:
            if adapt.recovery == "restart":
                _witness_restart(
                    rep, schedule, adapt, nranks, tree, nbytes,
                    segment_size, root, tag_floor, max_states,
                )
            else:
                _witness_inplace(
                    rep, schedule, adapt.name, nranks, tree, nbytes,
                    segment_size, root,
                )
        else:
            rep.witness_ok = True
        result.victims.append(rep)
    result.elapsed = time.monotonic() - t0
    return result
