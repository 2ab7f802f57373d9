"""Recovery-path verification: the symbolic fault sweep.

For an ADAPT collective the checker has already certified fault-free, this
module certifies the *repair* path. :func:`fault_sweep` explores the base
transition system once and then walks fault points over it: a **kill
point** per non-root victim (fail-stop, S20) and a **cut point** per
nontrivial bipartition of the ranks (partition with heal, S22). A kill is
a cut whose lost side is one rank; both kinds share the base exploration,
the tag floor, the per-state stale check and the report type.

Kill-point obligations, the third re-checked at every base state:

1. **membership agreement** — stepping the pure transition functions the
   live :class:`~repro.recovery.membership.MembershipService` runs
   (``merge_suspicions`` → ``ring_walk`` → ``agreed_view``) from the
   pre-kill view must commit a bumped epoch whose failed set contains
   exactly the victim and whose members are exactly the survivors;
2. **re-graft soundness** — ``regraft_tree`` around the victim must leave
   no live rank orphaned (``Regraft.check``) and, with the root alive,
   strand nobody (``lost`` empty);
3. **stale-epoch safety, per state** — a message already in flight when
   the fault hits must never be accepted by the recovery path (see
   :func:`_check_stale`);
4. **survivor completion witness** — restart collectives: record the
   actual relaunch among the survivors on the re-grafted structure (fresh
   tag block, exactly as :class:`~repro.recovery.restart.EpochRestart`
   builds it) and explore *that* model to completion; in-place
   collectives: record a live faulted run (``launch_recover`` plus a
   seeded fail-stop) and require the schedule linter to pass — no
   stranded survivor, every survivor done or excused.

Cut-point obligations: quorum exclusivity, heal reconciliation and
ring-walk exactness (:func:`_check_cut_agreement`), the same per-state
stale check with the whole written-off side lost, and — for every cut the
live stack can witness — a heal-after-deadline run through the full stack
(:func:`_witness_partition`).

The triple count the CI budget is phrased in is
``sum over fault points of (base states re-checked)`` — every
(collective, fault point, state) combination the sweep visited.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.analysis.depgraph import DepGraph, record
from repro.collectives.base import CollectiveContext
from repro.collectives.models import VERIFY_MODELS, AdaptCollective
from repro.recovery.membership import (
    SurvivorView,
    agreed_view,
    merge_suspicions,
    ring_walk,
)
from repro.trees.regraft import regraft_tree
from repro.verify.checker import Exploration, _closure, explore
from repro.verify.model import ScheduleModel, build_model, model_from_graph


@dataclass
class PointReport:
    """The obligations of one fault point: a kill or a cut."""

    kind: str  # "kill" | "cut"
    #: A cut's two sides, rank 0 on side A; a kill's survivors and victim.
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]
    #: Base states at which stale-epoch safety was re-checked.
    states_checked: int = 0
    #: "restart-model" | "in-place-live" | "partition-live" | "skipped"
    witness: str = "skipped"
    #: States of the relaunch model's own exploration (restart kills only).
    witness_states: int = 0
    issues: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        # Every obligation that fails records an issue.
        return not self.issues

    @property
    def label(self) -> str:
        if self.kind == "kill":
            return f"victim {self.side_b[0]}"
        return f"cut {self.side_a}|{self.side_b}"


@dataclass
class SweepResult:
    """The verdict for one kind of fault point over one configuration."""

    kind: str  # "kill" | "cut"
    schedule: str
    collective: str
    mode: str  # "in-place" | "restart"
    nranks: int
    tree: str
    root: int
    base: Exploration
    points: list[PointReport] = field(default_factory=list)
    #: False when the budget ran out in the base exploration or the sweep.
    complete: bool = True
    elapsed: float = 0.0

    @property
    def name(self) -> str:
        return "kill-sweep" if self.kind == "kill" else "partition-sweep"

    @property
    def triples(self) -> int:
        """(collective, fault point, state) combinations actually checked."""
        return sum(p.states_checked for p in self.points)

    @property
    def witnessed(self) -> int:
        return sum(1 for p in self.points if p.witness != "skipped")

    @property
    def ok(self) -> bool:
        return (
            self.complete
            and self.base.ok
            and bool(self.points)
            and all(p.ok for p in self.points)
        )

    def verdict(self) -> str:
        if not self.base.complete:
            return self.base.verdict()
        if not self.base.ok:
            return f"BASE NOT SAFE: {self.base.verdict()}"
        if not self.complete:
            return "UNKNOWN (budget exhausted mid-sweep)"
        kill = self.kind == "kill"
        head, unit = ("RECOVERY", "victim(s)") if kill else ("PARTITION", "cut(s)")
        bad = [
            p.side_b[0] if kill else f"{list(p.side_a)}|{list(p.side_b)}"
            for p in self.points if not p.ok
        ]
        if bad:
            return f"{head} UNSAFE for {unit} {bad if kill else bad[:4]}"
        tail = (
            "kill points" if kill
            else f"split points, {self.witnessed} live witness(es)"
        )
        return (
            f"{head} CERTIFIED ({self.mode}): {len(self.points)} {unit} x "
            f"{self.base.states_explored} state(s) = {self.triples} {tail}, "
            f"all safe"
        )

    def summary(self) -> dict[str, Any]:
        """The machine-readable verdict ``repro verify --json`` writes."""
        out: dict[str, Any] = {
            "ok": self.ok,
            "mode": self.mode,
            "triples": self.triples,
            "base_states": self.base.states_explored,
        }
        if self.kind == "kill":
            out["victims"] = len(self.points)
        else:
            out["cuts"] = len(self.points)
            out["witnessed"] = self.witnessed
        return out


@dataclass
class _Sweep:
    """One configuration and its base exploration: what every point reads."""

    schedule: str
    adapt: AdaptCollective
    nranks: int
    tree: str
    nbytes: int
    segment_size: int
    root: int
    max_states: int
    model: ScheduleModel
    base: Exploration
    #: Every base-epoch tag is below it; a relaunch tags from it up.
    tag_floor: int
    #: Run the live and relaunch witnesses.
    witness: bool

    def witnesses_cut(self, side_a: tuple[int, ...]) -> bool:
        """Every cut the live stack can witness: rank 0 and the root on the
        non-minority side (rank 0 is always on side A).

        Rank 0, because the failure detector's observer is the lowest live
        rank: with rank 0 cut into a minority, the majority never hears
        the silence and never commits. The root, because a quorum side
        that lost the root has no completion to witness (kills exclude the
        root for the same reason). Other cuts stay symbolic.
        """
        return (
            self.witness and self.root in side_a
            and 2 * len(side_a) >= self.nranks
        )

    def context(self, tag_floor: int = 0) -> CollectiveContext:
        from repro.analysis.schedules import recording_context
        from repro.config import CollectiveConfig

        return recording_context(
            self.nranks, self.tree, self.root, self.nbytes,
            CollectiveConfig(segment_size=self.segment_size),
            tag_floor=tag_floor,
        )

    def record(
        self, world: Any, launch: Callable[[], object], name: str, victim: int
    ) -> DepGraph:
        return record(world, launch, meta={
            "schedule": name,
            "nranks": self.nranks,
            "nbytes": self.nbytes,
            "victim": victim,
            "eager_threshold": world.config.eager_threshold,
        })


def _base_max_tag(model: ScheduleModel) -> int:
    tags = [
        op.tag for op in model.ops.values()
        if op.kind in ("send", "recv") and op.tag is not None
    ]
    return max(tags) if tags else -1


def _check_membership(victim: int, nranks: int) -> list[str]:
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
    return issues


def _check_regraft(sw: _Sweep, victim: int) -> list[str]:
    from repro.analysis.schedules import TREES

    shape = TREES[sw.tree](sw.nranks).reroot_relabelled(sw.root)
    rg = regraft_tree(shape, {victim})
    try:
        rg.check({victim})
    except AssertionError as exc:
        return [f"re-graft check failed: {exc}"]
    if rg.lost:
        return [f"re-graft strands live rank(s) {sorted(rg.lost)}"]
    return []


def _check_stale(
    model: ScheduleModel, base: Exploration, lost: tuple[int, ...],
    mode: str, tag_floor: int,
) -> tuple[int, list[str]]:
    """Obligation 3 at every base state, with the ``lost`` ranks written off.

    Returns the states checked and the issues found. Restart collectives
    rely on tag disjointness: every message in flight when the fault lands
    tags below ``tag_floor``, so it cannot match a relaunch-epoch recv
    (which tags from ``tag_floor`` up). In-place collectives rely on exact
    source matching: no wildcard recv exists (one could swallow a stale
    message into a live exchange), and every in-flight message from a
    written-off rank carries that rank as its wire source, so post-commit
    arrivals are attributable and droppable. With nothing written off (an
    even split parks both sides) there is no stale epoch to guard against.
    """
    if not lost:
        return base.states_explored, []
    issues: list[str] = []
    if mode != "restart":
        issues.extend(
            f"wildcard recv breaks attributability: {r.label}"
            for r in model.recvs if r.peer is None
        )
    lost_set = set(lost)
    checked = 0
    for state in base.states:
        checked += 1
        posted, _ = _closure(model, state)
        for op in model.sends:
            if op.oid not in posted or op.oid in state:
                continue
            if mode == "restart":
                if op.tag is not None and op.tag >= tag_floor:
                    issues.append(
                        f"stale-epoch hazard: {op.label} in flight with tag "
                        f"{op.tag} >= relaunch tag floor {tag_floor}"
                    )
            elif op.rank in lost_set and op.key[0] != op.rank:
                issues.append(
                    f"in-flight message from written-off rank {op.rank} "
                    f"not attributable: {op.label}"
                )
        if len(issues) > 8:
            break
    return checked, issues


def _witness_restart(rep: PointReport, sw: _Sweep, victim: int) -> None:
    """Record the survivors' relaunch exactly as ``EpochRestart`` builds it
    (same communicator, original tree re-grafted around the victim, fresh
    tag block strictly above the base epoch's) and explore it."""
    rep.witness = "restart-model"
    # Push the floor first: the relaunch's tags are disjoint from the base's.
    ctx = sw.context(tag_floor=sw.tag_floor)
    assert ctx.tree is not None
    ctx.tree = regraft_tree(ctx.tree, {victim}).survivor
    members = sorted(set(range(sw.nranks)) - {victim})
    graph = sw.record(
        ctx.world, lambda: sw.adapt.relaunch(ctx, members),
        f"{sw.schedule}-relaunch", victim,
    )
    wmodel = model_from_graph(graph)
    wexp = explore(wmodel, max_states=sw.max_states, keep_states=False)
    rep.witness_states = wexp.states_explored
    if not wexp.ok:
        rep.issues.append(f"relaunch model: {wexp.verdict()}")
    if victim in wmodel.ranks:
        rep.issues.append(f"dead rank {victim} participates in the relaunch")
    stray = set(wmodel.ranks) - set(members)
    if stray:
        rep.issues.append(f"non-member rank(s) {sorted(stray)} in relaunch")
    low = [
        op.label for op in wmodel.ops.values()
        if op.kind in ("send", "recv")
        and op.tag is not None and op.tag < sw.tag_floor
    ]
    if low:
        rep.issues.append(
            f"relaunch tag(s) below the stale floor {sw.tag_floor}: {low[:4]}"
        )


def _witness_inplace(rep: PointReport, sw: _Sweep, victim: int) -> None:
    """Record a live faulted run and require a clean lint + full completion."""
    from repro.analysis.lint import lint
    from repro.faults import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.recovery import launch_recover

    rep.witness = "in-place-live"
    ctx = sw.context()
    world = ctx.world
    plan = FaultPlan.single_kill(victim, 2e-4, detect_delay=2e-4)
    handles: list[Any] = []

    def launch() -> None:
        handles.append(launch_recover(sw.adapt.name, ctx))
        FaultInjector(world, plan).arm(0.05)

    graph = sw.record(world, launch, f"{sw.schedule}-kill{victim}", victim)
    report = lint(graph)
    if not report.ok:
        rules = sorted({f.rule for f in report.errors})
        rep.issues.append(
            f"live kill run fails lint: {rules} "
            f"({len(report.errors)} error finding(s))"
        )
    handle = handles[0]
    missing = [
        r for r in range(sw.nranks)
        if r != victim
        and r not in handle.done_time
        and r not in handle.excused
    ]
    if missing:
        rep.issues.append(f"survivor(s) {missing} never completed or excused")
    agreed = handle.report.agreed_failed
    if agreed and victim not in agreed:
        rep.issues.append(
            f"membership agreed {sorted(agreed)} without the victim"
        )


def _kill_point(sw: _Sweep, victim: int) -> PointReport:
    """Obligations 1-4 (module docstring) for one victim."""
    rep = PointReport(
        "kill", tuple(r for r in range(sw.nranks) if r != victim), (victim,)
    )
    rep.issues.extend(_check_membership(victim, sw.nranks))
    rep.issues.extend(_check_regraft(sw, victim))
    rep.states_checked, stale = _check_stale(
        sw.model, sw.base, (victim,), sw.adapt.recovery, sw.tag_floor
    )
    rep.issues.extend(stale)
    if sw.witness:
        if sw.adapt.recovery == "restart":
            _witness_restart(rep, sw, victim)
        else:
            _witness_inplace(rep, sw, victim)
    return rep


def _bipartitions(
    nranks: int,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every nontrivial two-sided cut, rank 0 always on side A.

    Fixing rank 0's side halves the enumeration without losing a cut
    (sides are unordered): 2**(nranks-1) - 1 cuts.
    """
    for mask in range(1, 2 ** (nranks - 1)):
        side_b = tuple(r for r in range(1, nranks) if mask & (1 << (r - 1)))
        side_a = tuple(r for r in range(nranks) if r not in side_b)
        yield side_a, side_b


def _check_cut_agreement(rep: PointReport, nranks: int) -> tuple[int, ...]:
    """Quorum exclusivity, heal reconciliation and ring-walk exactness.

    Steps the same pure functions the live service runs, once from each
    side's vantage point: each side proposes the *other* side as failed
    (that is exactly what its detector accrues during the cut) and runs
    the quorum gate. Split-brain safety is the exclusivity of the commit;
    heal-and-merge safety is both sides reconciling to one view. Returns
    the side the committed epoch writes off (empty for an even split).
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
    committed = commit_a if commit_a is not None else commit_b
    if committed is None:
        # Even split: neither side commits, both keep view0 — reconciling
        # two identical epoch-0 views is trivially that view, and no ring
        # walk ever ran to completion (the quorum gate parked it).
        if reconcile_views(view0, view0) != view0:
            rep.issues.append("even-split reconcile mutated the parked view")
        return ()
    # The parked side holds view0; the committed side holds epoch 1.
    # Reconciliation must hand *both* sides the committed view,
    # regardless of argument order (epoch precedence is symmetric).
    merged_1 = reconcile_views(committed, view0)
    merged_2 = reconcile_views(view0, committed)
    if merged_1 != committed or merged_2 != committed:
        rep.issues.append(
            f"heal reconciliation lost the committed epoch: "
            f"{merged_1.describe()} / {merged_2.describe()}"
        )
    # The committing side's ring walk (its members only responsive) must
    # propose exactly the other side — agreement-as-detection must not
    # write off any member of the quorum side.
    survivors, lost = (a, b) if commit_a is not None else (b, a)
    walked = ring_walk(
        view0.members, merge_suspicions(view0.failed, lost), survivors,
    )
    if walked != frozenset(lost):
        rep.issues.append(
            f"ring walk wrote off {sorted(walked)} != cut side {sorted(lost)}"
        )
    return lost


def _witness_partition(rep: PointReport, sw: _Sweep) -> None:
    """Drive a real partitioned run through the stack.

    A heal-after-deadline partition over the full recovery stack
    (``launch_recover`` + membership + adaptive detector): the quorum side
    must commit exactly one epoch naming the cut side, every quorum-side
    rank must complete or be excused, and the healed stragglers must be
    evicted — never re-admitted into the committed epoch. For an even
    split the obligations invert: *no* epoch may commit (the round parks
    awaiting quorum), and after the heal everyone completes clean.
    """
    from repro.faults import FaultInjector
    from repro.faults.plan import FaultPlan, PartitionSpec
    from repro.recovery import launch_recover

    rep.witness = "partition-live"
    nranks = sw.nranks
    ctx = sw.context()
    world = ctx.world
    # Heal far beyond the detection deadline (phi crossing + confirm is
    # ~20 periods); the post-deadline path must behave as a kill.
    plan = FaultPlan(partitions=(
        PartitionSpec(groups=(rep.side_a, rep.side_b), start=1e-4, heal=0.2),
    ))
    handle = launch_recover(sw.adapt.name, ctx)
    injector = FaultInjector(world, plan)
    horizon = 0.05
    while world.engine.now < 0.3:
        injector.arm(horizon)
        world.run(until=world.engine.now + horizon)
        horizon = min(horizon * 2, 0.2)
    world.run()

    even = 2 * len(rep.side_a) == nranks
    quorum_side = rep.side_a if 2 * len(rep.side_a) > nranks else rep.side_b
    lost_side = rep.side_b if quorum_side == rep.side_a else rep.side_a
    svc = world.membership
    if even:
        if svc is not None and svc.view.epoch != 0:
            rep.issues.append(
                f"even split committed epoch {svc.view.epoch}: "
                f"{svc.view.describe()}"
            )
        missing = [
            r for r in range(nranks)
            if r not in handle.done_time and r not in handle.excused
        ]
        if missing:
            rep.issues.append(
                f"rank(s) {missing} never completed after even-split heal"
            )
        return
    if svc is None or svc.view.epoch == 0:
        rep.issues.append("quorum side never committed an epoch")
    elif svc.view.failed != frozenset(lost_side):
        rep.issues.append(
            f"committed failed set {sorted(svc.view.failed)} != cut "
            f"side {sorted(lost_side)}"
        )
    elif set(svc.view.members) & set(lost_side):
        rep.issues.append("cut-side rank re-admitted into the epoch")
    missing = [
        r for r in quorum_side
        if r not in handle.done_time and r not in handle.excused
    ]
    if missing:
        rep.issues.append(
            f"quorum-side rank(s) {missing} never completed or excused"
        )
    still_live = [r for r in lost_side if r not in world.failed_ranks]
    if still_live:
        rep.issues.append(
            f"healed straggler(s) {still_live} not evicted "
            f"(kill-path fall-through broken)"
        )


def _cut_point(
    sw: _Sweep, side_a: tuple[int, ...], side_b: tuple[int, ...]
) -> PointReport:
    """Split-brain obligations for one cut."""
    rep = PointReport("cut", side_a, side_b)
    lost = _check_cut_agreement(rep, sw.nranks)
    rep.states_checked, stale = _check_stale(
        sw.model, sw.base, lost, sw.adapt.recovery, sw.tag_floor
    )
    rep.issues.extend(stale)
    if sw.witnesses_cut(side_a):
        _witness_partition(rep, sw)
    return rep


def fault_sweep(
    schedule: str,
    *,
    kills: bool = False,
    cuts: bool = False,
    nranks: int = 6,
    tree: str = "binary",
    nbytes: int = 64 * 1024,
    segment_size: int = 16 * 1024,
    root: int = 0,
    max_states: int = 200_000,
    budget_seconds: Optional[float] = None,
    witness: bool = True,
) -> list[SweepResult]:
    """Certify the repair paths of one ADAPT collective.

    Explores the fault-free model once, then walks the requested fault
    points over it: ``kills`` runs obligations 1-4 (module docstring) for
    every non-root victim; ``cuts`` enumerates every nontrivial
    bipartition (``2**(n-1) - 1`` cuts) and certifies split-brain safety —
    no cut yields two committed views for one epoch, heal reconciliation
    converges both sides onto the committed view, the committing side's
    ring walk writes off exactly the cut side, and in-flight cross-cut
    traffic is stale-safe at every explored base state. Returns one
    :class:`SweepResult` per requested kind, kills first.

    ``witness=False`` skips the (comparatively slow) live and relaunch
    witnesses; every symbolic obligation still runs at every state. With
    witnesses on, every cut :meth:`_Sweep.witnesses_cut` admits also runs
    a live heal-after-deadline partition through the full stack.
    ``budget_seconds`` bounds the whole call; a kind cut short reports
    ``complete=False``.
    """
    t0 = time.monotonic()
    spec = VERIFY_MODELS.get(schedule)
    adapt = spec.adapt if spec is not None else None
    if adapt is None:
        raise ValueError(
            f"the fault sweep needs an ADAPT collective with a declared "
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
    sw = _Sweep(
        schedule, adapt, nranks, tree, nbytes, segment_size, root,
        max_states, model, base, _base_max_tag(model) + 1, witness,
    )
    base_elapsed = time.monotonic() - t0
    kinds: list[tuple[str, Callable[..., PointReport], list[tuple[Any, ...]]]]
    kinds = []
    if kills:
        kinds.append((
            "kill", _kill_point, [(v,) for v in range(nranks) if v != root]
        ))
    if cuts:
        kinds.append(("cut", _cut_point, list(_bipartitions(nranks))))
    results: list[SweepResult] = []
    for kind, check, points in kinds:
        t1 = time.monotonic()
        result = SweepResult(
            kind=kind,
            schedule=schedule,
            collective=adapt.name,
            mode=adapt.recovery,
            nranks=nranks,
            tree=tree,
            root=root,
            base=base,
            complete=base.complete,
        )
        for point in points if base.ok else ():
            if budget_seconds is not None \
                    and time.monotonic() - t0 > budget_seconds:
                result.complete = False
                break
            result.points.append(check(sw, *point))
        result.elapsed = base_elapsed + time.monotonic() - t1
        results.append(result)
    return results
