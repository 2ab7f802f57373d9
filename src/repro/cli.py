"""Command-line interface: regenerate any experiment or run ad-hoc measurements.

The experiment subcommands (``fig7`` ... ``figq``, ``metrics``,
``ablations`` and ``chaos``) are built from the ``EXPERIMENTS`` registry
in :mod:`repro.harness.experiments`; the other subcommands are defined
here. ``chaos`` adds its fault flags to its registry subparser.

Usage (after installation)::

    python -m repro fig9 --machine cori --operation bcast --jobs 4
    python -m repro fig7 --machine stampede2 --scale small --no-cache
    python -m repro table1
    python -m repro bench --json BENCH_core.json
    python -m repro profile --experiment fig9 --top 10
    python -m repro run --library OMPI-adapt --op reduce --nbytes 4194304 \
        --machine cori --nodes 4
    python -m repro tree --nodes 3 --sockets 2 --cores 4
    python -m repro machines
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.harness.experiments import DRIVER_KNOBS, EXPERIMENTS, chaos
from repro.machine import Topology, small_test_machine
from repro.machine.presets import PRESETS, TOPO_FAMILY_NAMES, default_nranks, resolve

#: --machine choices for commands that accept either kind of model.
_MACHINE_CHOICES = sorted(PRESETS) + sorted(TOPO_FAMILY_NAMES)

#: The flag each experiment knob adds to its subcommand.
_KNOB_ARGS: dict[str, dict] = {
    "machine": dict(default="cori", choices=["cori", "stampede2"]),
    "operation": dict(default="bcast", choices=["bcast", "reduce"]),
    "chart": dict(action="store_true",
                  help="render an ASCII line chart under the table"),
    "json": dict(default=None, metavar="PATH",
                 help="also write the rows as deterministic JSON "
                 "(byte-identical at any --jobs count)"),
}


def _add_scale(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", default="small", choices=["small", "medium", "paper"])


def _add_parallel(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes for the sweep "
                   "(default: $REPRO_JOBS or 1; results are byte-identical "
                   "at any worker count)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the on-disk result cache "
                   "($REPRO_CACHE_DIR or .repro-cache/)")


def _parallel_kwargs(args) -> dict:
    from repro.parallel import ResultCache

    no_cache = getattr(args, "no_cache", False) or (
        os.environ.get("REPRO_NO_CACHE", "") not in ("", "0")
    )
    return {
        "n_jobs": getattr(args, "jobs", None),
        "cache": None if no_cache else ResultCache(),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ADAPT (HPDC'18) reproduction: regenerate the paper's "
        "tables and figures on the simulated cluster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, entry in EXPERIMENTS.items():
        pexp = sub.add_parser(name, help=entry.help)
        for knob in entry.knobs:
            pexp.add_argument(f"--{knob}", **_KNOB_ARGS[knob])
        _add_scale(pexp)
        _add_parallel(pexp)
    chaos.add_arguments(sub.choices["chaos"])

    prun = sub.add_parser("run", help="one ad-hoc collective measurement")
    prun.add_argument("--library", default="OMPI-adapt")
    prun.add_argument("--op", dest="operation", default="bcast",
                      choices=["bcast", "reduce"])
    prun.add_argument("--nbytes", type=int, default=4 << 20)
    prun.add_argument("--machine", default="cori", choices=_MACHINE_CHOICES)
    prun.add_argument("--nodes", type=int, default=None)
    prun.add_argument("--nranks", type=int, default=None)
    prun.add_argument("--iterations", type=int, default=5)
    prun.add_argument("--noise", type=float, default=0.0,
                      help="noise duty-cycle percent on one mid-tree rank")
    prun.add_argument("--gpu", action="store_true")
    prun.add_argument("--seed", type=int, default=0)
    _add_parallel(prun)

    pbench = sub.add_parser(
        "bench",
        help="core performance benchmarks (engine, allocator, fig09 sweep)",
        description="Measure engine events/sec, allocator rounds/sec "
        "(optimized vs the pre-optimization reference), and fig09 "
        "cells/sec; --json writes the BENCH_core.json artifact. "
        "Benchmarks never use the result cache.",
    )
    pbench.add_argument("--scale", nargs="?", const="ranks", default=None,
                        metavar="SIZING|RANKS",
                        help="small/medium/paper: bench sizing (default: "
                        "$REPRO_BENCH_SCALE or small). Bare --scale adds "
                        "the rank-count scaling leg (ADAPT bcast/allreduce "
                        "at 1024/4096/16384 ranks); a comma-separated rank "
                        "list (e.g. 1024,4096) picks the world sizes")
    pbench.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="also time the fig09 sweep through N worker "
                        "processes and record the speedup")
    pbench.add_argument("--json", nargs="?", const="BENCH_core.json",
                        default=None, metavar="PATH",
                        help="write results as JSON (default PATH: "
                        "BENCH_core.json)")
    pbench.add_argument("--section", action="append", default=None,
                        choices=["engine", "allocator", "fig09", "scale", "cold",
                                 "contended"],
                        help="run only these sections (repeatable)")
    pbench.add_argument("--machine", default="cori",
                        choices=_MACHINE_CHOICES,
                        help="machine for the --scale leg: a flat preset or "
                        "a compiled topology family")

    pprof = sub.add_parser(
        "profile",
        help="per-subsystem time breakdown of one run (cProfile)",
        description="Profile one ad-hoc collective measurement — or a whole "
        "experiment driver with --experiment — and print exclusive time "
        "aggregated by repro subsystem (sim, network, collectives, ...).",
    )
    pprof.add_argument("--experiment", default=None,
                       choices=list(EXPERIMENTS),
                       help="profile a whole experiment driver instead of "
                       "one collective")
    _add_scale(pprof)
    pprof.add_argument("--library", default="OMPI-adapt")
    pprof.add_argument("--op", dest="operation", default="bcast",
                       choices=["bcast", "reduce"])
    pprof.add_argument("--nbytes", type=int, default=4 << 20)
    pprof.add_argument("--machine", default="cori", choices=_MACHINE_CHOICES)
    pprof.add_argument("--nodes", type=int, default=None)
    pprof.add_argument("--iterations", type=int, default=5)
    pprof.add_argument("--top", type=int, default=0, metavar="N",
                       help="also list the N hottest functions")

    plint = sub.add_parser(
        "lint",
        help="extract a schedule's dependency graph and lint/certify it",
        description="Record a collective schedule on an instrumented world, "
        "classify every happens-before edge as data / synchronization / "
        "flow-control (paper Section 2), and run the schedule linter. "
        "Exits non-zero when any error-severity finding fires "
        "(e.g. the deadlock-demo schedule).",
    )
    from repro.analysis.schedules import DEMO_SCHEDULES, SCHEDULES, TREES

    plint.add_argument("schedule",
                       choices=sorted(SCHEDULES) + list(DEMO_SCHEDULES))
    plint.add_argument("--tree", default="binary", choices=sorted(TREES))
    plint.add_argument("--ranks", type=int, default=8)
    plint.add_argument("--nbytes", type=int, default=512 * 1024)
    plint.add_argument("--root", type=int, default=0)
    plint.add_argument("--segment-size", type=int, default=64 * 1024)
    plint.add_argument("--posted-recvs", type=int, default=None,
                       help="recv window M (default: collective config)")
    plint.add_argument("--inflight-sends", type=int, default=None,
                       help="send window N (default: collective config)")

    pverify = sub.add_parser(
        "verify",
        help="model-check a schedule: explore every interleaving (DPOR)",
        description="Extract a recorded schedule as a transition system and "
        "exhaustively explore every inequivalent message-match ordering "
        "(dynamic partial-order reduction; key-unique models collapse to "
        "one representative interleaving, ambiguous ones fall back to full "
        "enumeration). Checks deadlock-freedom, schedule determinism "
        "(wildcard/tag races), and stranded eager sends; --kill-sweep "
        "additionally certifies the recovery path by symbolically killing "
        "each non-root rank at every explored state, and --partition-sweep "
        "certifies split-brain safety over every bipartition of the ranks "
        "(both share one base exploration). Violations print a "
        "step-by-step counterexample and can be saved (--counterexample) "
        "as replayable JSON traces; --replay re-executes a saved trace and "
        "--chrome renders it for chrome://tracing. Exit status: 0 verified "
        "(or a demo produced its expected violation), 1 violations, "
        "2 budget exhausted.",
    )
    from repro.collectives.models import VERIFY_MODELS

    pverify.add_argument("--collective", action="append", default=None,
                         dest="collectives", metavar="NAME",
                         choices=sorted(VERIFY_MODELS),
                         help="schedule to verify (repeatable; default: the "
                         "nine ADAPT collectives)")
    pverify.add_argument("--all", action="store_true",
                         help="verify every registered model, demos included")
    pverify.add_argument("--ranks", type=int, default=6)
    pverify.add_argument("--tree", default="binary", choices=sorted(TREES))
    pverify.add_argument("--nbytes", type=int, default=64 * 1024)
    pverify.add_argument("--segment-size", type=int, default=16 * 1024)
    pverify.add_argument("--root", type=int, default=0)
    pverify.add_argument("--kill-sweep", action="store_true",
                         help="also certify recovery: symbolically kill each "
                         "non-root rank at every explored state")
    pverify.add_argument("--partition-sweep", action="store_true",
                         help="also certify split-brain safety: step the "
                         "quorum/heal state machine over every bipartition "
                         "of the ranks (at most one committed view per "
                         "epoch, heal converges by epoch precedence)")
    pverify.add_argument("--naive", action="store_true",
                         help="force full enumeration (no DPOR) — the "
                         "comparison baseline, capped by --naive-cap")
    pverify.add_argument("--naive-cap", type=int, default=2000,
                         metavar="N",
                         help="state cap for naive-enumeration runs "
                         "(default: 2000)")
    pverify.add_argument("--max-states", type=int, default=200_000,
                         help="explored-state budget per schedule")
    pverify.add_argument("--budget-seconds", type=float, default=60.0,
                         help="wall-clock budget per schedule")
    pverify.add_argument("--counterexample", default=None, metavar="PATH",
                         help="write the first violation as a replayable "
                         "JSON trace")
    pverify.add_argument("--json", default=None, metavar="PATH",
                         help="write the machine-readable verification "
                         "report")
    pverify.add_argument("--replay", default=None, metavar="PATH",
                         help="replay a saved counterexample trace instead "
                         "of verifying")
    pverify.add_argument("--chrome", default=None, metavar="PATH",
                         help="render the (first or replayed) violation as "
                         "a Chrome trace-event file")

    ptrace = sub.add_parser(
        "trace",
        help="record one measurement and export a Chrome/Perfetto trace",
        description="Run one collective with the span recorder attached "
        "(repro.obs) and write a Chrome trace-event JSON file — load it in "
        "chrome://tracing or https://ui.perfetto.dev. One timeline track "
        "per rank (sends, recvs, waits, CPU work, noise, collective spans) "
        "plus one per network link (flow occupancy). Recording is "
        "retrospective: the traced run reports the exact times an untraced "
        "one does.",
    )
    ptrace.add_argument("--chrome", default="trace.json", metavar="PATH",
                        help="output path for the trace JSON "
                        "(default: trace.json)")
    ptrace.add_argument("--library", default="OMPI-adapt")
    ptrace.add_argument("--op", dest="operation", default="bcast",
                        choices=["bcast", "reduce"])
    ptrace.add_argument("--nbytes", type=int, default=1 << 20)
    ptrace.add_argument("--machine", default="testbox",
                        choices=sorted(PRESETS) + ["testbox"])
    ptrace.add_argument("--nodes", type=int, default=None)
    ptrace.add_argument("--nranks", type=int, default=None)
    ptrace.add_argument("--iterations", type=int, default=3)
    ptrace.add_argument("--noise", type=float, default=0.0,
                        help="noise duty-cycle percent on one mid-tree rank")
    ptrace.add_argument("--seed", type=int, default=0)
    _add_parallel(ptrace)

    ptree = sub.add_parser("tree", help="print a topology-aware tree")
    ptree.add_argument("--nodes", type=int, default=3)
    ptree.add_argument("--sockets", type=int, default=2)
    ptree.add_argument("--cores", type=int, default=4)
    ptree.add_argument("--root", type=int, default=0)

    ptopo = sub.add_parser(
        "topo",
        help="compile a datacenter topology family to its link list",
        description="Compile a high-level topology spec (fat-tree, "
        "dragonfly, rail-optimized GPU pod) into the link list and "
        "placement tables the simulator consumes. Compilation is "
        "deterministic: identical specs produce byte-identical JSON "
        "(the digest printed per family is the receipt).",
    )
    ptopo.add_argument("--build", default="all", metavar="FAMILY",
                       choices=sorted(TOPO_FAMILY_NAMES) + ["all"],
                       help="family to compile (default: all three)")
    ptopo.add_argument("--ranks", type=int, default=None,
                       help="resize the family to the smallest shape "
                       "fitting this many ranks")
    ptopo.add_argument("--nodes", type=int, default=None,
                       help="resize the family to this node count")
    ptopo.add_argument("--json", nargs="?", const="-", default=None,
                       metavar="PATH",
                       help="write the compiled topology as canonical JSON "
                       "(single family only; '-' or no value = stdout)")

    sub.add_parser("machines", help="list machine presets")
    return parser


def _driver_knobs(entry, args) -> dict:
    return {k: getattr(args, k) for k in entry.knobs if k in DRIVER_KNOBS}


def _cmd_experiment(args) -> str:
    entry = EXPERIMENTS[args.command]
    if args.command == "chaos" and args.operation is not None:
        # One cell, named by the flags, through the grid's own driver.
        res = chaos.run_cells([(args.operation, "", args)], **_parallel_kwargs(args))
    elif args.command == "chaos" and any(
            getattr(args, k) != v for k, v in vars(chaos.parse("")).items()):
        raise SystemExit("chaos: fault flags describe one cell; name its "
                         "operation, e.g. 'repro chaos bcast --kill-rank 5'")
    else:
        res = entry.run(scale=args.scale, **_parallel_kwargs(args),
                        **_driver_knobs(entry, args))
    out = res.table()
    if getattr(args, "chart", False):
        from repro.harness.charts import experiment_line_chart

        out += "\n\n" + experiment_line_chart(res)
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            fh.write(res.to_json())
        out += f"\nwrote {args.json}"
    return out


def _noise_ranks(nranks: int, noise: float):
    """The noisy ranks of a CLI run: the one rank a third of the way in,
    or the per-node default when there is no noise."""
    return (nranks // 3,) if noise > 0 else "per-node"


def _cmd_run(args) -> str:
    from repro.parallel import SimJob, run_jobs

    nranks = default_nranks(resolve(args.machine, args.nodes),
                            args.nranks, args.gpu)
    job = SimJob(
        machine=args.machine, nodes=args.nodes, nranks=nranks,
        library=args.library, operation=args.operation, nbytes=args.nbytes,
        iterations=args.iterations, noise_percent=args.noise,
        noise_ranks=_noise_ranks(nranks, args.noise), gpu=args.gpu, seed=args.seed,
    )
    result = run_jobs([job], **_parallel_kwargs(args))[0]
    return str(result)


def _cmd_bench(args) -> str:
    from repro.harness import bench

    # --scale is overloaded: sizing names keep their original meaning, a
    # bare --scale (or a comma-separated rank list) opts into the rank-count
    # scaling leg on top of whatever sections run.
    sizing = None
    scale_ranks = bench.SCALE_RANKS
    want_scale = False
    if args.scale is not None:
        if args.scale in ("small", "medium", "paper"):
            sizing = args.scale
        elif args.scale == "ranks":
            want_scale = True
        else:
            try:
                scale_ranks = tuple(int(tok) for tok in args.scale.split(","))
            except ValueError:
                scale_ranks = ()
            if min(scale_ranks, default=0) < 1:
                raise SystemExit(
                    "--scale expects small/medium/paper, a comma-separated "
                    f"rank list, or no value; got {args.scale!r}"
                )
            want_scale = True
    sections = tuple(args.section) if args.section else ("engine", "allocator", "fig09")
    if want_scale and "scale" not in sections:
        sections = sections + ("scale",)
    result = bench.run_core_bench(
        sizing, args.jobs, sections=sections, scale_ranks=scale_ranks,
        scale_preset=args.machine,
    )
    out = bench.render(result)
    if args.json:
        bench.write_json(result, args.json)
        out += f"\nwrote {args.json}"
    return out


def _cmd_profile(args) -> str:
    from repro.harness import profiling
    from repro.parallel import SimJob, run_jobs

    if args.experiment:
        # Profile the whole driver in-process (sequential, uncached — a
        # process pool would hide the work from the profiler).
        entry = EXPERIMENTS[args.experiment]

        def target():
            return entry.run(scale=args.scale, n_jobs=1, cache=None,
                             **_driver_knobs(entry, args)).table()

        title = f"profile: {args.experiment} --scale {args.scale}"
    else:
        nranks = default_nranks(resolve(args.machine, args.nodes))
        job = SimJob(
            machine=args.machine, nodes=args.nodes, nranks=nranks,
            library=args.library, operation=args.operation,
            nbytes=args.nbytes, iterations=args.iterations,
        )

        def target():
            return run_jobs([job], n_jobs=1, cache=None)[0]

        title = (
            f"profile: {args.operation} {args.library} {args.nbytes} B, "
            f"{args.machine}, {nranks} ranks, {args.iterations} iterations"
        )
    _, stats = profiling.profile_call(target)
    return profiling.render(stats, top=args.top, title=title)


def _cmd_trace(args) -> str:
    from repro.obs import export_chrome_trace
    from repro.parallel import SimJob, run_jobs

    nranks = default_nranks(resolve(args.machine, args.nodes), args.nranks)
    job = SimJob(
        machine=args.machine, nodes=args.nodes, nranks=nranks,
        library=args.library, operation=args.operation, nbytes=args.nbytes,
        iterations=args.iterations, noise_percent=args.noise,
        noise_ranks=_noise_ranks(nranks, args.noise), seed=args.seed, observe="trace",
    )
    result = run_jobs([job], **_parallel_kwargs(args))[0]
    n_events = export_chrome_trace(result.obs, args.chrome)
    spans = len((result.obs or {}).get("spans", []))
    lines = [str(result)]
    if result.trace_truncated:
        lines.append("warning: span buffer cap hit; the trace tail was dropped")
    lines.append(
        f"wrote {args.chrome}: {n_events} trace events from {spans} spans; "
        "open in chrome://tracing or https://ui.perfetto.dev"
    )
    return "\n".join(lines)


def _cmd_lint(args) -> int:
    from repro.analysis.lint import lint
    from repro.analysis.schedules import analyze_schedule
    from repro.config import CollectiveConfig

    kw = {}
    if args.posted_recvs is not None:
        kw["posted_recvs"] = args.posted_recvs
    if args.inflight_sends is not None:
        kw["inflight_sends"] = args.inflight_sends
    cfg = CollectiveConfig(segment_size=args.segment_size, **kw)
    graph = analyze_schedule(
        args.schedule, nranks=args.ranks, tree=args.tree,
        nbytes=args.nbytes, config=cfg, root=args.root,
    )
    report = lint(graph)
    print(report.render())
    return 0 if report.ok else 1


def _print_violation(model, violation) -> None:
    print(f"  VIOLATION [{violation.kind}]: {violation.detail}")
    if violation.trace:
        print(f"  interleaving ({len(violation.trace)} match(es)):")
        for i, ev in enumerate(violation.trace):
            print(f"    {i:>3}. {model.describe(ev.send)}  ->  "
                  f"{model.describe(ev.recv)}")
    else:
        print("  interleaving: empty (violated at the initial state)")
    for line in violation.pending:
        print(f"    stuck: {line}")


def _cmd_verify_replay(args) -> int:
    from repro.verify import (
        chrome_counterexample_trace,
        load_counterexample,
        model_from_trace,
        replay,
    )

    data = load_counterexample(args.replay)
    result = replay(data)
    model = model_from_trace(data)
    sched = model.meta.get("schedule", "?")
    print(f"replaying {args.replay}: schedule={sched} "
          f"kind={data['kind']} events={len(data['events'])}")
    print(f"  {'CONFIRMED' if result.ok else 'FAILED'}: {result.message}")
    if result.ok:
        print(f"  detail: {data['detail']}")
        for line in data["pending"][:8]:
            print(f"    stuck: {line}")
    if args.chrome:
        n = chrome_counterexample_trace(data, args.chrome)
        print(f"  wrote {n} Chrome trace events to {args.chrome}")
    return 0 if result.ok else 1


def _cmd_verify(args) -> int:
    import json as _json
    import time as _time

    from repro.collectives.models import ADAPT_COLLECTIVES, VERIFY_MODELS
    from repro.verify import (
        build_model,
        chrome_counterexample_trace,
        counterexample_dict,
        explore,
        fault_sweep,
        first_violation,
        save_counterexample,
    )

    if args.replay:
        return _cmd_verify_replay(args)
    if args.collectives:
        schedules = list(dict.fromkeys(args.collectives))
    elif args.all:
        schedules = sorted(VERIFY_MODELS)
    else:
        schedules = [c.schedule for c in ADAPT_COLLECTIVES.values()]
    mode = "naive" if args.naive else "auto"
    report: dict = {"config": {
        "ranks": args.ranks, "tree": args.tree, "nbytes": args.nbytes,
        "segment_size": args.segment_size, "root": args.root, "mode": mode,
    }, "schedules": {}}
    exit_code = 0
    saved_counterexample = False
    rendered_chrome = False
    for schedule in schedules:
        spec = VERIFY_MODELS[schedule]
        t0 = _time.monotonic()
        model = build_model(
            schedule, nranks=args.ranks, tree=args.tree, nbytes=args.nbytes,
            segment_size=args.segment_size, root=args.root,
        )
        max_states = min(args.max_states, args.naive_cap) if args.naive \
            else args.max_states
        exploration = explore(
            model, mode=mode, max_states=max_states,
            budget_seconds=args.budget_seconds, keep_states=False,
        )
        # The DPOR-vs-naive census: how much the reduction buys on this
        # model (naive leg capped; a capped count is a lower bound).
        naive_note = ""
        if exploration.mode == "dpor":
            naive = explore(
                model, mode="naive", max_states=args.naive_cap,
                budget_seconds=args.budget_seconds, keep_states=False,
            )
            bound = "" if naive.complete else ">="
            naive_note = (
                f"; naive enumeration {bound}{naive.states_explored} states"
            )
        elapsed = _time.monotonic() - t0
        expected = spec.expect
        found_kinds = sorted({v.kind for v in exploration.violations})
        if expected is not None:
            ok = expected in found_kinds
            verdict = (
                f"expected violation {expected!r} "
                f"{'produced' if ok else 'MISSING'} (found: {found_kinds})"
            )
        else:
            ok = exploration.ok
            verdict = exploration.verdict()
        status = "ok " if ok else "FAIL"
        print(f"{status} {schedule}: {verdict}")
        print(f"     mode={exploration.mode} states={exploration.states_explored} "
              f"transitions={exploration.transitions_fired} "
              f"maximal={exploration.maximal_states}{naive_note} "
              f"({elapsed:.2f}s)")
        entry: dict = {
            "ok": ok,
            "mode": exploration.mode,
            "states_explored": exploration.states_explored,
            "transitions_fired": exploration.transitions_fired,
            "complete": exploration.complete,
            "violations": found_kinds,
            "expected": expected,
        }
        violation = first_violation(exploration)
        if violation is not None:
            _print_violation(model, violation)
            if args.counterexample and not saved_counterexample:
                save_counterexample(
                    args.counterexample, model, violation, exploration.mode
                )
                saved_counterexample = True
                print(f"  counterexample written to {args.counterexample}")
            if args.chrome and not rendered_chrome:
                chrome_counterexample_trace(
                    counterexample_dict(model, violation, exploration.mode),
                    args.chrome,
                )
                rendered_chrome = True
                print(f"  violation rendered as Chrome trace: {args.chrome}")
        complete = exploration.complete
        if (args.kill_sweep or args.partition_sweep) and spec.adapt is not None:
            for sweep in fault_sweep(
                schedule, kills=args.kill_sweep, cuts=args.partition_sweep,
                nranks=args.ranks, tree=args.tree, nbytes=args.nbytes,
                segment_size=args.segment_size, root=args.root,
                max_states=max_states, budget_seconds=args.budget_seconds,
            ):
                print(f"{'ok ' if sweep.ok else 'FAIL'} {schedule} "
                      f"{sweep.name}: {sweep.verdict()} ({sweep.elapsed:.2f}s)")
                for point in sweep.points:
                    for issue in point.issues[:4]:
                        print(f"     {point.label}: {issue}")
                entry[sweep.name.replace("-", "_")] = sweep.summary()
                if not sweep.ok:
                    ok = False
                    entry["ok"] = False
                complete = complete and sweep.complete
        report["schedules"][schedule] = entry
        if not ok:
            exit_code = max(exit_code, 1 if complete else 2)
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(report, fh, indent=1, sort_keys=True)
        print(f"report written to {args.json}")
    return exit_code


def _cmd_tree(args) -> str:
    spec = small_test_machine(
        nodes=args.nodes, sockets=args.sockets, cores_per_socket=args.cores
    )
    nranks = default_nranks(spec)
    topo = Topology(spec, nranks)
    from repro.trees import topology_aware_tree

    tree = topology_aware_tree(topo, list(range(nranks)), args.root)
    lines = [f"topology-aware tree, root {tree.root}, height {tree.height()}"]

    def walk(rank: int, depth: int) -> None:
        for child in tree.children[rank]:
            level = topo.level(rank, child).name.lower().replace("_", "-")
            lines.append(f"{'  ' * depth}P{rank} -> P{child} [{level}]")
            walk(child, depth + 1)

    walk(tree.root, 0)
    return "\n".join(lines)


def _cmd_machines() -> str:
    lines = []
    for name, factory in PRESETS.items():
        spec = factory()
        gpus = f", {spec.total_gpus} GPUs" if spec.total_gpus else ""
        lines.append(
            f"{name:<10} {spec.nodes} nodes x {spec.node.sockets} sockets x "
            f"{spec.node.cores_per_socket} cores = {spec.total_cores} ranks{gpus}"
        )
    from repro.topo import FAMILIES, compile_topo

    for name in sorted(FAMILIES):
        topo = compile_topo(FAMILIES[name])
        lines.append(
            f"{name:<10} {topo.nodes} nodes, {len(topo.links)} links, "
            f"{len(topo.switches)} switches = {topo.ranks} ranks "
            f"[topology family]"
        )
    return "\n".join(lines)


def _cmd_topo(args) -> str:
    from repro.topo import FAMILIES, compile_topo

    families = sorted(FAMILIES) if args.build == "all" else [args.build]
    if args.ranks is not None and args.nodes is not None:
        raise SystemExit("topo: pass --ranks or --nodes, not both")
    if args.json is not None and len(families) > 1:
        raise SystemExit("topo: --json needs a single --build FAMILY")
    lines = []
    for name in families:
        spec = FAMILIES[name]
        if args.ranks is not None:
            spec = spec.for_ranks(args.ranks)
        elif args.nodes is not None:
            spec = spec.for_ranks(args.nodes * spec.ranks_per_node)
        topo = compile_topo(spec)
        census = "  ".join(f"{k}={v}" for k, v in topo.link_census().items())
        lines.append(
            f"{name:<10} {topo.nodes} nodes  {topo.ranks} ranks  "
            f"{len(topo.switches)} switches  {len(topo.links)} links  "
            f"sha256:{topo.digest()[:12]}"
        )
        lines.append(f"{'':<10} {census}")
        if args.json is not None:
            text = topo.to_json()
            if args.json == "-":
                lines.append(text.rstrip("\n"))
            else:
                with open(args.json, "w") as fh:
                    fh.write(text)
                lines.append(f"{'':<10} wrote {args.json}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    machines = _KNOB_ARGS["machine"]["choices"]
    if (args.command == "profile" and args.experiment
            and "machine" in EXPERIMENTS[args.experiment].knobs
            and args.machine not in machines):
        # The same --machine choices the experiment's subcommand accepts.
        parser.error(
            f"profile --experiment {args.experiment}: --machine must be "
            f"{' or '.join(machines)}, not {args.machine!r}"
        )
    if getattr(args, "seed", 0) < 0:  # run, chaos and trace
        raise SystemExit(
            f"{args.command}: --seed must be a non-negative integer, got {args.seed}"
        )
    if args.command in EXPERIMENTS:
        print(_cmd_experiment(args))
    elif args.command == "run":
        print(_cmd_run(args))
    elif args.command == "bench":
        print(_cmd_bench(args))
    elif args.command == "profile":
        print(_cmd_profile(args))
    elif args.command == "trace":
        print(_cmd_trace(args))
    elif args.command == "lint":
        return _cmd_lint(args)
    elif args.command == "verify":
        return _cmd_verify(args)
    elif args.command == "tree":
        print(_cmd_tree(args))
    elif args.command == "topo":
        print(_cmd_topo(args))
    elif args.command == "machines":
        print(_cmd_machines())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
