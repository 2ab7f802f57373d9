"""Chaos (ours) — collectives on a faulty fabric: the ``repro chaos`` cells.

A cell is the argument list of one ``repro chaos`` command: an operation,
a world, and a plan of loss, corruption, a kill, a partition and stalls
(DESIGN.md S17, S20, S22, S25). It is up to three rows: the fault-free
run, which places the kill and the cut; the faulty run; and the
Waitall-style ``--compare`` library under the same plan. A row's status
is the run's ``outcome``, so a verdict that flips is a golden diff.
``repro chaos`` runs :data:`CELLS` (golden ``benchmarks/goldens/chaos.txt``);
``repro chaos OPERATION [flags]`` runs one cell through :func:`run_cells`.
"""

from __future__ import annotations

import math

from repro.collectives.models import ADAPT_COLLECTIVES, COLLECTIVES
from repro.faults import FaultPlan, KillSpec, LossSpec, PartitionSpec
from repro.faults.plan import CorruptSpec, StallSpec
from repro.harness.experiments.common import Claim, ExperimentResult, sweep
from repro.harness.experiments.figx_recovery import COMPARATOR_OPS
from repro.harness.experiments.figxp_partition import detection_deadline
from repro.libraries.presets import library_by_name, prepare_operation
from repro.machine.presets import PRESETS, TOPO_FAMILY_NAMES, default_nranks, resolve
from repro.parallel import SimJob
from repro.relaxed import QuorumPolicy

#: The registered grid: cell name -> ``repro chaos`` arguments.
CELLS = {
    "lossy-kill": "bcast --drop 0.01 --kill-rank 5 --nodes 2",
    "lossy": "reduce --drop 0.01 --nodes 2",
    **{f"kill-{op}": f'{op} --kill-rank 5 --nodes 2 --compare ""'
       for op in ADAPT_COLLECTIVES},
    "recover-allreduce": "allreduce --kill-rank 5 --recover --nodes 2",
    "recover-allgather": 'allgather --kill-rank 5 --recover --nodes 2 --compare ""',
    "recover-reduce_scatter":
        'reduce_scatter --kill-rank 5 --recover --nodes 2 --compare ""',
    "corrupt": 'alltoall --corrupt 0.05 --recover --compare "" --nodes 2 --iterations 1',
    "heal-before": 'bcast --nodes 2 --partition "0-42|43-63" --partition-at 0.0001 '
                   "--heal 0.004",
    "heal-after": 'bcast --nodes 2 --recover --partition "0-42|43-63" '
                  "--partition-at 0.0001 --heal 0.08",
    "quorum-allreduce": "allreduce_quorum --machine cori --nodes 2 --nranks 16 "
                        "--nbytes 65536 --iterations 3 --stall 9:0.0001:0.006 "
                        "--stall 14:0.0001:0.006 --quorum 0.75",
    "quorum-bcast": "bcast_quorum --machine cori --nodes 2 --nranks 16 --nbytes 65536 "
                    "--iterations 2 --stall 3:0.0001:0.004 --quorum 0.9 "
                    "--staleness-window 2",
    "quorum-reduce": "reduce_quorum --machine cori --nodes 2 --nranks 16 --nbytes 65536 "
                     "--iterations 3 --stall 5:0.0001:0.006 --quorum 0.75",
}

#: What a mid-run kill of rank 5 leaves each exact ADAPT operation without
#: recovery (DESIGN.md S17): gather and the rings lose the result; none hangs.
KILL_OUTCOMES = {
    op: "unrecoverable" if op in ("gather", "allgather", "reduce_scatter") else "degraded"
    for op in ADAPT_COLLECTIVES
}


def add_arguments(p) -> None:
    """Put the ``repro chaos`` flags on ``p``."""
    p.add_argument("operation", nargs="?", choices=list(COLLECTIVES),
                   help="run one cell (default: the registered grid)")
    p.add_argument("--library", default="OMPI-adapt")
    p.add_argument("--compare", default="OMPI-default-topo",
                   help="comparator run under the same plan ('' to skip)")
    p.add_argument("--machine", default="cori",
                   choices=sorted(PRESETS) + sorted(TOPO_FAMILY_NAMES))
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--nranks", type=int, default=None)
    p.add_argument("--nbytes", type=int, default=512 << 10)
    p.add_argument("--iterations", type=int, default=4)
    p.add_argument("--drop", type=float, default=0.0,
                   help="per-message drop probability on every link")
    p.add_argument("--duplicate", type=float, default=0.0,
                   help="per-message duplication probability")
    p.add_argument("--corrupt", type=float, default=0.0,
                   help="per-message corruption probability (repaired via NACK)")
    p.add_argument("--recover", action="store_true",
                   help="arm live recovery (DESIGN.md S20)")
    p.add_argument("--stall", action="append", default=[], metavar="RANK:TIME:DURATION",
                   help="freeze RANK's CPU for DURATION s from TIME s (repeatable)")
    p.add_argument("--quorum", type=float, default=None,
                   help="*_quorum completion quorum: a fraction in (0,1] or a rank count")
    p.add_argument("--min-quorum", type=int, default=1,
                   help="floor below which a shrinking quorum degrades")
    p.add_argument("--staleness-window", type=int, default=1,
                   help="epochs a late contribution may merge forward")
    p.add_argument("--kill-rank", type=int, default=None,
                   help="fail-stop this rank mid-collective")
    p.add_argument("--kill-at", type=float, default=None,
                   help="kill time in s (default: 30%% of the fault-free run)")
    p.add_argument("--partition", default=None, metavar="A|B",
                   help="sever the fabric between rank groups covering every rank, "
                   "e.g. '0-15|16-23'")
    p.add_argument("--partition-at", type=float, default=None,
                   help="cut time in s (default: as --kill-at)")
    p.add_argument("--heal", type=float, default=None,
                   help="heal time in s (default: cut + 4x the detection deadline)")
    p.add_argument("--seed", type=int, default=0)


def parse(text: str):
    """One cell's arguments, parsed by the ``repro chaos`` flags."""
    import argparse
    import shlex

    parser = argparse.ArgumentParser(prog="repro chaos")
    add_arguments(parser)
    return parser.parse_args(shlex.split(text))


def parse_partition(text: str, nranks: int) -> tuple[tuple[int, ...], ...]:
    """``'0-15|16-23'`` as rank groups, each side a comma-separated list of
    ranks and inclusive ranges. Every rank of ``range(nranks)`` must be
    listed; disjointness is :class:`PartitionSpec`'s check."""
    sides = []
    for part in text.split("|"):
        ranks: list[int] = []
        for tok in filter(None, (t.strip() for t in part.split(","))):
            lo, _, hi = tok.partition("-")
            try:
                ranks.extend(range(int(lo), int(hi or lo) + 1))
            except ValueError:
                raise SystemExit(f"chaos: bad --partition token {tok!r}; expected a rank "
                                 "or an inclusive range like '16-23'") from None
        sides.append(tuple(ranks))
    if len(sides) < 2 or not all(sides):
        raise SystemExit("chaos: --partition needs at least two non-empty '|'-separated "
                         "rank groups, e.g. '0-15|16-23'")
    listed = {r for s in sides for r in s}
    outside = sorted(r for r in listed if not 0 <= r < nranks)
    if outside:
        raise SystemExit(f"chaos: --partition ranks must lie in [0, {nranks}); "
                         f"got {outside}")
    missing = set(range(nranks)) - listed
    if missing:
        raise SystemExit(f"chaos: --partition groups must cover every rank; "
                         f"missing {sorted(missing)} of {nranks}")
    return tuple(sides)


def _check(args) -> tuple:
    """Validate a cell before anything runs: ``(nranks, policy, stalls,
    groups)``, the policy ``None`` for an exact operation and the groups
    ``None`` without ``--partition``."""
    nranks = default_nranks(resolve(args.machine, args.nodes), args.nranks)
    relaxed = COLLECTIVES[args.operation].relaxed
    if not relaxed and (args.quorum is not None or args.min_quorum != 1
                        or args.staleness_window != 1):
        raise SystemExit("chaos: --quorum, --min-quorum and --staleness-window "
                         "need a *_quorum operation")
    if relaxed and args.recover:
        raise SystemExit("chaos: --recover and *_quorum operations are mutually "
                         "exclusive (quorum completion already is a "
                         "degraded-completion strategy)")
    stalls = []
    for spec in args.stall:
        try:
            rank, time, duration = spec.split(":")
            stalls.append(StallSpec(rank=int(rank), time=float(time),
                                    duration=float(duration)))
        except ValueError:
            raise SystemExit(f"chaos: bad --stall {spec!r}; expected "
                             "RANK:TIME:DURATION") from None
    policy = None
    if relaxed:
        q = args.quorum if args.quorum is not None else 1.0
        # A count if it is an integral value above 1, else a fraction.
        q = int(q) if q > 1 and float(q).is_integer() else q
        try:
            policy = QuorumPolicy(quorum=q, min_quorum=args.min_quorum,
                                  staleness_window=args.staleness_window)
        except ValueError as exc:
            raise SystemExit(f"chaos: {exc}") from None
    if not (args.drop > 0 or args.duplicate > 0 or args.corrupt > 0 or stalls
            or args.kill_rank is not None or args.partition is not None):
        raise SystemExit("chaos: nothing to inject; pass --drop, --duplicate, "
                         "--corrupt, --kill-rank, --stall and/or --partition")
    if args.partition is None and (args.partition_at is not None or args.heal is not None):
        raise SystemExit("chaos: --partition-at/--heal need --partition")
    try:
        prepare_operation(library_by_name(args.library), args.operation,
                          recover=args.recover, policy=policy)
    except ValueError as exc:
        raise SystemExit(f"chaos: {exc}") from None
    groups = None if args.partition is None else parse_partition(args.partition, nranks)
    return nranks, policy, stalls, groups


def _plan(args, base, policy, stalls, groups) -> tuple[FaultPlan, str]:
    """The cell's fault plan, with kill and cut timed from its fault-free
    run ``base``, and the plan in words."""
    lossy = args.drop > 0 or args.duplicate > 0
    desc = []
    if stalls:
        desc.append("; ".join(f"stall rank {s.rank} at t={s.time * 1e3:.3f} ms for "
                              f"{s.duration * 1e3:.3f} ms" for s in stalls))
    if policy is not None:
        desc.append(f"quorum={policy.quorum:g} min={policy.min_quorum} "
                    f"window={policy.staleness_window}")
    if lossy:
        desc.append(f"drop={args.drop:g} duplicate={args.duplicate:g} per message")
    if args.corrupt > 0:
        desc.append(f"corrupt={args.corrupt:g} per message")
    default_at = 0.3 * base.mean_time * args.iterations
    kills = []
    if args.kill_rank is not None:
        kill_at = default_at if args.kill_at is None else args.kill_at
        kills.append(KillSpec(rank=args.kill_rank, time=kill_at))
        desc.append(f"kill rank {args.kill_rank} at t={kill_at * 1e3:.3f} ms")
    partitions = []
    if groups is not None:
        cut = default_at if args.partition_at is None else args.partition_at
        deadline = detection_deadline()
        heal = cut + 4.0 * deadline if args.heal is None else args.heal
        try:
            partitions.append(PartitionSpec(groups=groups, start=cut, heal=heal))
        except ValueError as exc:
            raise SystemExit(f"chaos: {exc}") from None
        desc.append(
            f"partition [{' | '.join(f'{len(g)} rank(s)' for g in groups)}] at "
            f"t={cut * 1e3:.3f} ms, heal at t={heal * 1e3:.3f} ms "
            f"({'before' if heal - cut < deadline else 'after'} the "
            f"{deadline * 1e3:.1f} ms detection deadline)")
    if args.recover:
        desc.append("recovery armed")
    plan = FaultPlan(
        losses=[LossSpec(drop=args.drop, duplicate=args.duplicate)] if lossy else [],
        kills=kills, corrupts=[CorruptSpec(rate=args.corrupt)] if args.corrupt > 0 else [],
        partitions=partitions, stalls=stalls, seed=args.seed,
    )
    return plan, f"{'; '.join(desc)} (seed={args.seed})"


def _ranks(ranks) -> str:
    """Ranks as comma-separated runs (``'5'``, ``'13-15'``); ``'-'`` for none."""
    spans: list[list[int]] = []
    for r in sorted(ranks):
        if spans and r == spans[-1][1] + 1:
            spans[-1][1] = r
        else:
            spans.append([r, r])
    return ",".join(f"{a}-{b}" if b > a else str(a) for a, b in spans) or "-"


HEADERS = ["cell", "run", "library", "operation", "outcome", "mean_ms", "drops",
           "retransmits", "nacks", "rejects", "severed", "severed_ctl", "parked",
           "false_kills", "quorum_parks", "failed", "ttr_ms", "contributed", "epochs",
           "excluded", "merged", "discarded"]


def _columns(r) -> list:
    """One run's cells after ``cell`` and ``run``."""
    t, mean, ttr = r.transport, r.mean_time, r.time_to_repair
    quorum: list = ["-"] * 5
    if r.staleness_epoch:
        merged = sum(1 for m in r.late_merges if m[2] >= 0)
        quorum = [len(r.contributed_ranks), r.staleness_epoch,
                  _ranks(set(range(r.nranks)) - set(r.contributed_ranks)),
                  merged, len(r.late_merges) - merged]
    return [
        r.library, r.operation, r.outcome,
        round(mean * 1e3, 3) if math.isfinite(mean) else float("inf"),
        *(t.get(k, 0) for k in ("dropped", "retransmits", "nacks_sent", "checksum_rejects",
                                "severed", "severed_control", "sends_parked")),
        r.false_kills, r.quorum_parks, _ranks(r.failed_ranks),
        "-" if ttr is None else round(ttr * 1e3, 3), *quorum,
    ]


def run_cells(cells, *, n_jobs: int | None = None, cache=None) -> ExperimentResult:
    """One table of ``(name, command, args)`` cells, all checked before any
    runs. Stage 1 sweeps every fault-free run; stage 2 every faulty and
    comparator run. ``command`` (may be empty) heads the cell's note."""
    checked = [(name, command, args, *_check(args)) for name, command, args in cells]
    worlds = [dict(machine=args.machine, nodes=args.nodes, nranks=nranks, nbytes=args.nbytes,
                   iterations=args.iterations, seed=args.seed)
              for _, _, args, nranks, *_ in checked]
    bases = sweep([SimJob(library=args.library, operation=args.operation, quorum=policy, **world)
                   for (_, _, args, _, policy, *_), world in zip(checked, worlds)],
                  n_jobs=n_jobs, cache=cache)
    result = ExperimentResult("Chaos", "collectives on a faulty fabric, one row per run",
                              HEADERS)
    result.notes.append(
        "fault-free places the kill and the cut (at 30% of its total time unless the "
        "cell says when); comparator = the --compare library under the same plan, "
        "without --recover and as the exact operation; outcome per DESIGN.md S17")
    jobs, owners = [], []
    for (name, command, args, nranks, policy, stalls, groups), world, base in zip(
            checked, worlds, bases):
        plan, desc = _plan(args, base, policy, stalls, groups)
        # A hung schedule legitimately leaves wreckage.
        faulty = dict(world, fault_plan=plan, sanitize=not plan.kills and not plan.partitions)
        jobs.append(SimJob(library=args.library, operation=args.operation,
                           recover=args.recover, quorum=policy, **faulty))
        owners.append((name, "faulty"))
        note = f"{name}: {command + '; ' if command else ''}{nranks} ranks x " \
               f"{args.nbytes} B; {desc}"
        exact = args.operation.replace("_quorum", "")
        if args.compare and args.compare != args.library:
            if exact in COMPARATOR_OPS:
                jobs.append(SimJob(library=args.compare, operation=exact, **faulty))
                owners.append((name, "comparator"))
            else:
                note += (f"; no {args.compare} row: the baselines implement only "
                         f"{' and '.join(COMPARATOR_OPS)}")
        result.notes.append(note)
    runs = {name: [("fault-free", base)] for (name, *_), base in zip(checked, bases)}
    for (name, run), r in zip(owners, sweep(jobs, n_jobs=n_jobs, cache=cache)):
        runs[name].append((run, r))
    for name, rows in runs.items():
        for run, r in rows:
            result.add(name, run, *_columns(r))
    return result


def run(scale: str = "small", *, n_jobs: int | None = None, cache=None,
        cells: tuple[str, ...] = tuple(CELLS)) -> ExperimentResult:
    """The registered grid, or its named ``cells``. A cell sets its own
    world, so every ``scale`` runs the same grid."""
    return run_cells([(name, f"repro chaos {CELLS[name]}", parse(CELLS[name]))
                      for name in cells], n_jobs=n_jobs, cache=cache)


def _row(res: ExperimentResult, cell: str, run: str = "faulty") -> dict:
    """One run of one cell as a header -> value dict."""
    [row] = res.lookup(cell=cell, run=run)
    return dict(zip(res.headers, row))


def _degraded_where_waitall_hangs(res: ExperimentResult) -> None:
    got = [_row(res, "lossy-kill", run)["outcome"] for run in ("faulty", "comparator")]
    assert got == ["degraded", "hung"], got


def _every_exact_op_hears_the_kill(res: ExperimentResult) -> None:
    got = {op: _row(res, f"kill-{op}")["outcome"] for op in KILL_OUTCOMES}
    assert got == KILL_OUTCOMES, got


def _recovery_agrees_on_the_victim(res: ExperimentResult) -> None:
    for name, text in CELLS.items():
        args = parse(text)
        if args.recover and args.kill_rank is not None:
            row = _row(res, name)
            assert row["outcome"] == "degraded", row
            assert str(row["failed"]) == str(args.kill_rank) and row["ttr_ms"] > 0, row


def _one_retransmit_per_nack(res: ExperimentResult) -> None:
    row = _row(res, "corrupt")
    assert row["outcome"] == "complete" and row["drops"] == 0 < row["nacks"], row
    assert row["rejects"] == row["nacks"] == row["retransmits"], row


def _early_heal_absorbed(res: ExperimentResult) -> None:
    row = _row(res, "heal-before")
    assert (row["outcome"], row["false_kills"], row["failed"]) == ("complete", 0, "-"), row


def _late_heal_evicts_the_minority(res: ExperimentResult) -> None:
    args = parse(CELLS["heal-after"])
    minority = min(parse_partition(args.partition, _check(args)[0]), key=len)
    row = _row(res, "heal-after")
    assert row["outcome"] == "degraded", row
    assert (row["false_kills"], row["failed"]) == (len(minority), _ranks(minority)), row


def _quorum_completes_around_stalls(res: ExperimentResult) -> None:
    for name in ("quorum-allreduce", "quorum-bcast", "quorum-reduce"):
        args = parse(CELLS[name])
        nranks, policy, stalls, _ = _check(args)
        row = _row(res, name)
        assert row["outcome"] == "complete", row
        assert row["mean_ms"] < min(s.duration for s in stalls) * 1e3, row
        late = args.iterations * (nranks - policy.resolve(nranks))
        assert row["merged"] + row["discarded"] == late, (late, row)


CLAIMS = (
    Claim("chaos: ADAPT completes degraded around a killed rank where the "
          "Waitall comparator hangs", _degraded_where_waitall_hangs),
    Claim("chaos: every exact ADAPT collective hears a kill and none hangs",
          _every_exact_op_hears_the_kill),
    Claim("chaos: recovery agrees on exactly the victim, with a positive "
          "time to repair", _recovery_agrees_on_the_victim),
    Claim("chaos: corruption is repaired with one retransmit per NACK",
          _one_retransmit_per_nack),
    Claim("chaos: a heal before the detection deadline is absorbed",
          _early_heal_absorbed),
    Claim("chaos: a heal after the detection deadline evicts the minority",
          _late_heal_evicts_the_minority),
    Claim("chaos: the quorum collectives complete around their stalls and "
          "account for every late contribution", _quorum_completes_around_stalls),
)
