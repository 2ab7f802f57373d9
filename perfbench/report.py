"""The traced run: per-layer metrics of the same cells, checked for neutrality.

Rounds alternate an untraced pass with a traced pass until the budget is
spent. Counts must repeat exactly across traced passes; times are medians
over them. Every op's digest goes through the same checker as the untraced
ops, so a traced result that differs from the untraced one fails the run.
Per-op spans are written to ``perfbench/out/`` when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Any

from tracer import Tracer
from workloads import stop_before_overrun

OUT = Path(__file__).resolve().parent / "out"

# Counters read from each world's public state after its op.
_WORLD_COUNTERS = ("events", "transmissions", "retransmits", "fresh_deliveries",
                   "unexpected", "flows")

# Per-layer metric -> unit, in report order.
UNITS = {
    "engine.events": "count", "engine.dispatch_s": "s", "engine.ns_per_event": "ns",
    "engine.handles": "count", "engine.posts": "count", "engine.cancelled": "count",
    "cpu.executes": "count", "cpu.self_s": "s",
    "mpi.sends": "count", "mpi.rndv_sends": "count", "mpi.control_msgs": "count",
    "mpi.self_s": "s", "mpi.us_per_send": "us",
    "mpi.transmissions": "count", "mpi.retransmits": "count",
    "mpi.delivery_ratio": "ratio", "mpi.unexpected": "count",
    "proclet.self_s": "s",
    "net.flows": "count", "net.self_s": "s", "net.us_per_flow": "us",
    "net.solves": "count", "net.solves.scan": "count", "net.solves.heap": "count",
    "net.solves.vec": "count", "net.solve_s": "s", "net.solve_flows_mean": "count",
    "coll.self_s": "s", "coll.launches": "count",
    "faults.arms": "count", "faults.intercepts": "count", "faults.self_s": "s",
    "noise.arms": "count", "noise.self_s": "s",
    "setup.world_s": "s", "setup.prepare_s": "s",
    "parallel.wire_s": "s", "parallel.jobs": "count",
    "harness.self_s": "s", "other.self_s": "s",
    "trace.overhead": "x",
}

# Metrics that must repeat exactly from one traced pass to the next.
EXACT = [m for m, u in UNITS.items() if u == "count" and m != "net.solve_flows_mean"]


def _harvest(worlds: list) -> dict[str, int]:
    totals = dict.fromkeys(_WORLD_COUNTERS, 0)
    for w in worlds:
        transport = w.transport_stats()
        totals["events"] += int(w.engine.stats()["events_processed"])
        totals["transmissions"] += transport["transmissions"]
        totals["retransmits"] += transport["retransmits"]
        totals["fresh_deliveries"] += transport["fresh_deliveries"]
        totals["unexpected"] += w.total_unexpected()
        totals["flows"] += w.fabric.network.flows_completed
    return totals


def _delta(after: dict, before: dict) -> dict[str, tuple[int, int, int]]:
    out = {}
    for name, (c, i, s) in after.items():
        c0, i0, s0 = before.get(name, (0, 0, 0))
        if c != c0 or i != i0 or s != s0:
            out[name] = (c - c0, i - i0, s - s0)
    return out


def _pass_metrics(tracer: Tracer, delta: dict, world: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (before any timing ratios)."""
    self_s: dict[str, float] = {}
    for name, (_, _, s) in delta.items():
        b = tracer.boundaries.get(name)
        if b is not None:
            self_s[b.layer] = self_s.get(b.layer, 0.0) + s / 1e9

    def count(name: str) -> int:
        return delta.get(f"count.{name}", (0, 0, 0))[0]

    sends, flows = count("sends"), world["flows"]
    solves = delta.get("net.maxmin_rates", (0, 0, 0))[0]
    layer = self_s.get
    return {
        "engine.events": world["events"],
        "engine.dispatch_s": layer("engine", 0.0),
        "engine.handles": count("handles"),
        "engine.posts": count("posts"),
        "engine.cancelled": count("cancelled"),
        "cpu.executes": count("executes"),
        "cpu.self_s": layer("cpu", 0.0),
        "mpi.sends": sends,
        "mpi.rndv_sends": count("rndv_sends"),
        "mpi.control_msgs": count("control_msgs"),
        "mpi.self_s": layer("mpi", 0.0),
        "mpi.us_per_send": 1e6 * layer("mpi", 0.0) / sends if sends else 0.0,
        "mpi.transmissions": world["transmissions"],
        "mpi.retransmits": world["retransmits"],
        # Raw (unreliable) transport makes no wire attempt it can waste.
        "mpi.delivery_ratio": (world["fresh_deliveries"] / world["transmissions"]
                               if world["transmissions"] else 1.0),
        "mpi.unexpected": world["unexpected"],
        "proclet.self_s": layer("proclet", 0.0),
        "net.flows": flows,
        "net.self_s": layer("net", 0.0),
        "net.us_per_flow": 1e6 * layer("net", 0.0) / flows if flows else 0.0,
        "net.solves": solves,
        "net.solves.scan": count("solves.scan"),
        "net.solves.heap": count("solves.heap"),
        "net.solves.vec": count("solves.vec"),
        "net.solve_s": layer("net.solve", 0.0),
        "net.solve_flows_mean": count("solve_flows") / solves if solves else 0.0,
        "coll.self_s": layer("coll", 0.0),
        "coll.launches": count("launches"),
        "faults.arms": count("fault_arms"),
        "faults.intercepts": count("intercepts"),
        "faults.self_s": layer("faults", 0.0),
        "noise.arms": count("noise_arms"),
        "noise.self_s": layer("noise", 0.0),
        "setup.world_s": layer("setup.world", 0.0),
        "setup.prepare_s": layer("setup.prepare", 0.0),
        "parallel.wire_s": layer("parallel.wire", 0.0),
        "parallel.jobs": count("jobs"),
        "harness.self_s": layer("harness", 0.0),
        "other.self_s": layer("other", 0.0),
    }


def traced_run(wl: Any, labels: list[str], check: Any, budget: float,
               seed: int) -> tuple[dict, list[str]]:
    tracer = Tracer()
    clock = time.perf_counter
    untraced: list[float] = []
    traced: list[float] = []
    rounds: list[float] = []
    passes: list[dict[str, float]] = []
    unattributed: list[float] = []
    records: list[dict] = []
    t_begin = clock()
    while True:
        r0 = clock()
        results = wl.run_pass()
        untraced.append(clock() - r0)
        for (_, result), label in zip(results, labels):
            check(label, result)

        ops: list[tuple[dict, dict]] = []
        with tracer.installed():
            tracer.worlds.clear()
            root0 = tracer.root_ns()
            before = last = tracer.snapshot()

            def after_op() -> None:
                nonlocal last
                now = tracer.snapshot()
                ops.append((_delta(now, last), _harvest(tracer.worlds)))
                tracer.worlds.clear()
                last = now

            t0 = clock()
            results = wl.run_pass(after_op)
            traced.append(clock() - t0)
            pass_delta = _delta(tracer.snapshot(), before)
            unattributed.append(traced[-1] - (tracer.root_ns() - root0) / 1e9)
        world = {k: sum(w[k] for _, w in ops) for k in _WORLD_COUNTERS}
        passes.append(_pass_metrics(tracer, pass_delta, world))
        for (seconds, result), label, (delta, counters) in zip(results, labels, ops):
            d = check(label, result)
            records.append({
                "pass": len(traced), "label": label, "seconds": seconds, "digest": d,
                "boundaries": {
                    name: {"layer": tracer.boundaries[name].layer, "count": c,
                           "incl_s": i / 1e9, "self_s": s / 1e9}
                    for name, (c, i, s) in sorted(delta.items()) if name in tracer.boundaries
                },
                "counts": {name[6:]: c for name, (c, _, _) in sorted(delta.items())
                           if name.startswith("count.")},
                "world": counters,
            })
        rounds.append(clock() - r0)
        if stop_before_overrun(clock() - t_begin, rounds, budget):
            break

    for name in EXACT:
        values = {p[name] for p in passes}
        if len(values) > 1:
            check.problems.append(f"traced count {name} differs across passes: {sorted(values)}")
    metrics: dict[str, float] = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        metrics[name] = values[0] if name in EXACT else statistics.median(values)
    u, t = statistics.median(untraced), statistics.median(traced)
    metrics["engine.ns_per_event"] = 1e9 * u / metrics["engine.events"]
    metrics["trace.overhead"] = t / u

    OUT.mkdir(exist_ok=True)
    out = OUT / f"trace-{wl.name}-seed{seed}.json"
    out.write_text(json.dumps({
        "workload": wl.name, "seed": seed, "untraced_pass_s": untraced,
        "traced_pass_s": traced, "ops": records,
    }, indent=1) + "\n")

    layers = {k: v for k, v in metrics.items() if UNITS[k] == "s"}
    lines = [f"rounds: {len(traced)} (untraced pass median {u:.4f} s, traced {t:.4f} s)",
             "self time per layer and traced pass (share of the traced pass):"]
    for name, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<18} {value:9.4f} s  {100 * value / t:5.1f}%")
    lines.append(f"  {'unattributed':<18} {statistics.median(unattributed):9.4f} s")
    lines.append(f"spans: {out.relative_to(OUT.parent.parent)}")
    ordered = {name: {"value": metrics[name], "unit": unit} for name, unit in UNITS.items()}
    return ordered, lines
