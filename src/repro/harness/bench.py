"""Core performance benchmarks behind ``repro bench`` (DESIGN.md §18).

Three subsystems, three throughput numbers:

* **engine** — raw discrete-event throughput (events/sec) on a synthetic
  workload of interleaved self-rescheduling event chains with a cancelled
  fraction, exercising the heap push/pop path and lazy cancellation.
* **allocator** — max-min fair allocation rounds/sec on a dense component
  (many flows with distinct rate caps over shared links, forcing many fill
  rounds per call). Both the optimized :func:`maxmin_rates` and the pre-PR
  :func:`maxmin_rates_reference` are timed so the speedup is recorded in
  the output, not just claimed.
* **fig09** — end-to-end experiment cells/sec for the Figure 9 sweep grid,
  sequentially and (when ``--jobs`` > 1) through the process pool, with a
  byte-identity check between the two result lists.

A fourth, opt-in leg (``repro bench --scale``) measures full ADAPT
bcast/allreduce simulations at 1K/4K/16K ranks — engine events/sec over the
wall clock plus allocator rounds/sec on a world-sized component — so the
scaling story is recorded per rank count, not just on microbenchmarks.

``run_core_bench`` returns a plain dict; ``repro bench --json`` writes it
as ``BENCH_core.json`` (the CI perf-smoke artifact).
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import platform
import random
import time
from typing import Any, Callable, Optional

from repro import __version__
from repro.network.fairshare import maxmin_rates, maxmin_rates_reference
from repro.network.flows import Flow
from repro.network.links import Link
from repro.sim.engine import Engine

#: Benchmark sizing per scale (events for the engine workload, timed
#: allocator calls, repeated timing passes).
_SIZES = {
    "small": {"events": 200_000, "alloc_calls": 30, "repeats": 3},
    "medium": {"events": 1_000_000, "alloc_calls": 100, "repeats": 5},
    "paper": {"events": 4_000_000, "alloc_calls": 300, "repeats": 5},
}

#: The allocator scenario: enough flows with distinct caps that every call
#: runs dozens of fill rounds. Every flow is its own ``(path, rate_cap)``
#: class, the class solver's worst case.
ALLOC_FLOWS = 512
ALLOC_LINKS = 32


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Best (minimum) wall time of ``repeats`` runs — the standard defence
    against scheduler noise on a shared machine."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# -- host-speed reference ----------------------------------------------------


def _reference_seconds() -> float:
    """Host seconds of a fixed discrete-event loop: a heap of timestamped
    events whose callbacks update a dict, like the engine's work but built
    from the standard library alone, so a simulator change never moves it.
    The collector is off while it runs, so it is charged for no one's heap."""
    rng = random.Random(1)
    state: dict[int, int] = {}

    def callback(arg: int) -> None:
        state[arg % 4096] = state.get(arg % 4096, 0) + 1

    queue = [(rng.random(), i, i) for i in range(2_000)]
    heapq.heapify(queue)
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for k in range(25_000):
            t, _, arg = heapq.heappop(queue)
            callback(arg)
            heapq.heappush(queue, (t + rng.random(), 2_000 + k, arg * 31 + k))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _best_of_with_reference(fn: Callable[[], Any], repeats: int) -> tuple[float, float]:
    """Best wall time of ``fn`` and of the reference loop, run alternately
    so that drift in the host's speed moves both alike."""
    best = ref = float("inf")
    for _ in range(repeats):
        ref = min(ref, _reference_seconds())
        best = min(best, _best_of(fn, 1))
    return best, ref


# -- engine ----------------------------------------------------------------


def _chain_workload(n_events: int) -> Engine:
    """Interleaved event chains plus a cancelled fraction.

    64 chains each reschedule themselves with slightly different periods, so
    the heap stays mixed (no degenerate FIFO order); every 8th event also
    schedules-and-cancels a decoy to exercise lazy cancellation.
    """
    eng = Engine()
    nchains = 64
    per_chain = n_events // nchains

    def tick(chain: int, remaining: int) -> None:
        if remaining <= 0:
            return
        h = eng.call_after(2e-6, tick, chain, 0)  # decoy
        if remaining % 8:
            h.cancel()
        eng.call_after(1e-6 * (1 + chain % 7), tick, chain, remaining - 1)

    for chain in range(nchains):
        eng.call_at(1e-9 * chain, tick, chain, per_chain)
    eng.run()
    return eng


#: Events per wave in the epoch workload — sized like a large collective's
#: completion wave (one event per rank at 4K ranks).
_EPOCH_WAVE = 4096


def _epoch_workload(n_events: int) -> Engine:
    """Waves of same-timestamp events — the epoch-draining design regime.

    Deterministic collective models land whole completion waves on
    bit-identical timestamps; each wave here is one ``post_batch`` (a single
    heap touch) drained by one loop over its bucket (DESIGN.md §23).
    """
    eng = Engine()
    nwaves = max(1, n_events // _EPOCH_WAVE)
    sink = [0]

    def evt() -> None:
        sink[0] += 1

    batch = [evt] * _EPOCH_WAVE
    for wave in range(nwaves):
        eng.post_batch((wave + 1) * 1e-6, batch)
    eng.run()
    return eng


def bench_engine(scale: str) -> dict:
    """Engine throughput in both regimes.

    The headline ``events_per_sec`` is the epoch (wave) regime — the
    workload shape the two-level schedule is built for and the one large
    collective simulations present. The chain regime (scattered distinct
    timestamps, heap traffic per event) is reported alongside so the cost
    of epoch bookkeeping on unfavourable workloads stays visible.

    Each leg also records ``events_per_ref``, the events dispatched in the
    time the reference loop takes on the same host; the regression gate
    compares that, since it does not move with host speed or core count.
    """
    sizes = _SIZES[scale]
    n_events = sizes["events"]
    repeats = sizes["repeats"]

    def leg(workload: Callable[[int], Engine]) -> dict:
        counts: list[int] = []
        wall, ref = _best_of_with_reference(
            lambda: counts.append(workload(n_events).events_processed), repeats
        )
        events = counts[0]  # deterministic workload: every pass is identical
        return {
            "events": events,
            "seconds": round(wall, 6),
            "events_per_sec": round(events / wall),
            "reference_seconds": round(ref, 6),
            "events_per_ref": round(events * ref / wall),
        }

    return {
        "workload": (
            f"epoch: {_EPOCH_WAVE}-event same-timestamp waves; "
            "chain: 64 interleaved chains, 1-in-8 cancelled decoys"
        ),
        **leg(_epoch_workload),
        "chain": leg(_chain_workload),
    }


# -- allocator -------------------------------------------------------------


def allocator_scenario(
    nflows: int = ALLOC_FLOWS, nlinks: int = ALLOC_LINKS, seed: int = 7
) -> tuple[list[Flow], list[Link]]:
    """A dense, cap-diverse component: distinct per-flow caps force the
    progressive filling to run many rounds per call, and make every flow a
    class of one, so :func:`maxmin_rates` gains nothing from grouping."""
    rng = random.Random(seed)
    links = [Link(f"l{i}", 1e9 * (1 + i % 7)) for i in range(nlinks)]
    flows = []
    for fid in range(nflows):
        path = rng.sample(links, rng.randint(1, min(4, nlinks)))
        flows.append(Flow(fid, path, 1 << 20, 1e6 * (fid + 1), lambda _f: None))
    return flows, links


def bench_allocator(scale: str) -> dict:
    sizes = _SIZES[scale]
    calls = sizes["alloc_calls"]
    flows, links = allocator_scenario()

    def run_calls(fn: Callable) -> None:
        for _ in range(calls):
            fn(flows, links)

    t_new = _best_of(lambda: run_calls(maxmin_rates), sizes["repeats"])
    t_ref = _best_of(lambda: run_calls(maxmin_rates_reference), sizes["repeats"])
    assert maxmin_rates(flows, links) == maxmin_rates_reference(flows, links)
    return {
        "scenario": f"{len(flows)} flows with distinct caps over {len(links)} links",
        "calls": calls,
        "rounds_per_sec": round(calls / t_new, 2),
        "reference_rounds_per_sec": round(calls / t_ref, 2),
        "speedup_vs_reference": round(t_ref / t_new, 3),
    }


# -- rank-count scaling ----------------------------------------------------

#: Default rank counts for the ``--scale`` leg (ISSUE: 1K/4K/16K).
SCALE_RANKS = (1024, 4096, 16384)

#: (operation, payload bytes) measured at each rank count. Bcast at 4 MiB is
#: the paper's headline large-message case; allreduce at 1 MiB keeps the
#: reduction pipeline in the measurement without doubling the wall time.
SCALE_OPS = (("bcast", 4 << 20), ("allreduce", 1 << 20))


def bench_scale(
    ranks: tuple[int, ...] = SCALE_RANKS, preset: str = "cori"
) -> dict:
    """End-to-end collective simulations at increasing world sizes.

    For each rank count: run ADAPT bcast/allreduce through the full harness
    (``for_ranks`` grows the preset's node count at its native ranks-per-node
    density) and report engine events/sec over the wall clock, plus max-min
    allocation rounds/sec on a component sized to that world. That component
    is built like :func:`allocator_scenario`, one flow per class, so it
    times the class solver at its worst case; real components of that size
    fall into a few classes.

    Single-shot walls, not best-of-N: a 16K-rank bcast is tens of seconds,
    so repeating it would dominate the whole suite for ±10% noise that the
    events/sec figure already averages over millions of events.
    """
    from repro.harness.runner import run_collective
    from repro.machine import for_ranks

    entries = []
    for nranks in ranks:
        spec = for_ranks(preset, nranks)
        entry: dict[str, Any] = {
            "ranks": nranks,
            "nodes": spec.nodes,
            "collectives": {},
        }
        for op, nbytes in SCALE_OPS:
            t0 = time.perf_counter()
            res = run_collective(
                spec, nranks, "OMPI-adapt", op, nbytes=nbytes, iterations=1
            )
            wall = time.perf_counter() - t0
            events = int(res.engine_stats.get("events_processed", 0))
            entry["collectives"][op] = {
                "nbytes": nbytes,
                "wall_seconds": round(wall, 3),
                "sim_time_ms": round(res.mean_time * 1e3, 6),
                "events": events,
                "events_per_sec": round(events / wall) if wall > 0 else 0,
            }
        nlinks = max(ALLOC_LINKS, nranks // 16)
        flows, links = allocator_scenario(nflows=nranks, nlinks=nlinks, seed=7)
        calls = 3
        t_alloc = _best_of(
            lambda: [maxmin_rates(flows, links) for _ in range(calls)], 2
        )
        entry["allocator"] = {
            "flows": nranks,
            "links": nlinks,
            "calls": calls,
            "rounds_per_sec": round(calls / t_alloc, 3),
        }
        entries.append(entry)
    return {"preset": preset, "library": "OMPI-adapt", "entries": entries}


# -- fig09 end-to-end ------------------------------------------------------


def bench_fig09(scale: str, n_jobs: Optional[int] = None) -> dict:
    from repro.harness.experiments import fig09_msgsize
    from repro.parallel import run_jobs

    cells = fig09_msgsize.jobs("cori", scale, "bcast")
    t0 = time.perf_counter()
    seq = run_jobs(cells, n_jobs=1, cache=None)
    t_seq = time.perf_counter() - t0
    out = {
        "cells": len(cells),
        "seconds_sequential": round(t_seq, 3),
        "cells_per_sec_sequential": round(len(cells) / t_seq, 3),
    }
    if n_jobs is not None and n_jobs > 1:
        t0 = time.perf_counter()
        par = run_jobs(cells, n_jobs=n_jobs, cache=None)
        t_par = time.perf_counter() - t0
        out.update({
            "jobs": n_jobs,
            "seconds_parallel": round(t_par, 3),
            "cells_per_sec_parallel": round(len(cells) / t_par, 3),
            "parallel_speedup": round(t_seq / t_par, 3),
            "parallel_identical": (
                [r.to_dict() for r in seq] == [r.to_dict() for r in par]
            ),
        })
    return out


# -- driver ----------------------------------------------------------------


def run_core_bench(
    scale: Optional[str] = None,
    n_jobs: Optional[int] = None,
    *,
    sections: tuple[str, ...] = ("engine", "allocator", "fig09"),
    scale_ranks: tuple[int, ...] = SCALE_RANKS,
    scale_preset: str = "cori",
) -> dict:
    """Run the core benchmark suite; the returned dict is BENCH_core.json.

    Include ``"scale"`` in ``sections`` (CLI: ``repro bench --scale``) to
    append the rank-count scaling leg at ``scale_ranks`` world sizes on
    ``scale_preset`` — a flat preset or a compiled topology family
    (``fattree``/``dragonfly``/``railpod``; CLI: ``--machine``).
    """
    if scale is None:
        from repro.harness.experiments.common import default_scale

        scale = default_scale()
    elif scale not in _SIZES:
        raise ValueError(
            f"unknown bench scale {scale!r}; choose from {sorted(_SIZES)}"
        )
    out: dict[str, Any] = {
        "benchmark": "BENCH_core",
        "repro_version": __version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "scale": scale,
    }
    if "engine" in sections:
        out["engine"] = bench_engine(scale)
    if "allocator" in sections:
        out["allocator"] = bench_allocator(scale)
    if "fig09" in sections:
        out["fig09"] = bench_fig09(scale, n_jobs)
    if "scale" in sections:
        out["scale_ranks"] = bench_scale(scale_ranks, preset=scale_preset)
    return out


def render(result: dict) -> str:
    """Human-readable summary of a ``run_core_bench`` dict."""
    lines = [
        f"BENCH_core  repro {result['repro_version']}  python "
        f"{result['python']}  {result['cpu_count']} cpus  "
        f"scale={result['scale']}",
    ]
    eng = result.get("engine")
    if eng:
        lines.append(
            f"engine      {eng['events_per_sec']:>12,} events/sec   "
            f"({eng['events']:,} events in {eng['seconds']:.3f}s, epoch waves; "
            f"{eng['events_per_ref']:,} per reference loop)"
        )
        chain = eng.get("chain")
        if chain:
            lines.append(
                f"            {chain['events_per_sec']:>12,} events/sec   "
                f"({chain['events']:,} events in {chain['seconds']:.3f}s, "
                f"mixed chains; {chain['events_per_ref']:,} per reference loop)"
            )
    alloc = result.get("allocator")
    if alloc:
        lines.append(
            f"allocator   {alloc['rounds_per_sec']:>12,.1f} rounds/sec   "
            f"(reference {alloc['reference_rounds_per_sec']:,.1f}; "
            f"speedup {alloc['speedup_vs_reference']:.2f}x)"
        )
    sc = result.get("scale_ranks")
    if sc:
        for entry in sc["entries"]:
            for op, cell in entry["collectives"].items():
                lines.append(
                    f"scale {entry['ranks']:>6,} ranks  {op:<9} "
                    f"{cell['events_per_sec']:>10,} events/sec   "
                    f"({cell['events']:,} events in {cell['wall_seconds']:.1f}s"
                    f", sim {cell['sim_time_ms']:.3f}ms)"
                )
            alloc = entry["allocator"]
            lines.append(
                f"scale {entry['ranks']:>6,} ranks  allocator "
                f"{alloc['rounds_per_sec']:>10,.2f} rounds/sec   "
                f"({alloc['flows']:,} flows over {alloc['links']} links)"
            )
    fig = result.get("fig09")
    if fig:
        lines.append(
            f"fig09       {fig['cells_per_sec_sequential']:>12,.3f} cells/sec   "
            f"({fig['cells']} cells in {fig['seconds_sequential']:.2f}s, "
            f"sequential)"
        )
        if "cells_per_sec_parallel" in fig:
            ident = "identical" if fig["parallel_identical"] else "MISMATCH"
            lines.append(
                f"            {fig['cells_per_sec_parallel']:>12,.3f} cells/sec   "
                f"(--jobs {fig['jobs']}; speedup "
                f"{fig['parallel_speedup']:.2f}x, results {ident})"
            )
    return "\n".join(lines)


def write_json(result: dict, path: str) -> None:
    dirname = os.path.dirname(path)
    if dirname:
        os.makedirs(dirname, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
