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

A fifth, opt-in leg (``repro bench --section cold``) times the cold start
of a timing-only run in fresh interpreters — importing the runner plus one
small bcast, plain and under seeded noise and loss — and records its peak
RSS, how many ``repro`` modules it loaded and whether numpy was loaded.

A sixth, opt-in leg (``repro bench --section contended``) runs the 64 KiB
ADAPT alltoall at 32 and 128 ranks, where every flow shares a NIC or a
memory link, and records its wall time, events, simulated time and route
builds.

``run_core_bench`` returns a plain dict; ``repro bench --json`` writes it
as ``BENCH_core.json`` (the CI perf-smoke artifact), keeping the sections
of an existing file that the run did not measure.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Optional

import repro
from repro.network.fairshare import maxmin_rates, maxmin_rates_reference
from repro.network.flows import Flow
from repro.network.links import Link
from repro.sim.engine import Engine

#: Benchmark sizing per scale (events for the engine workload, timed
#: allocator calls, repeated timing passes, fresh interpreters for the cold
#: start).
_SIZES = {
    "small": {"events": 200_000, "alloc_calls": 30, "repeats": 3, "cold_starts": 5},
    "medium": {"events": 1_000_000, "alloc_calls": 100, "repeats": 5, "cold_starts": 9},
    "paper": {"events": 4_000_000, "alloc_calls": 300, "repeats": 5, "cold_starts": 9},
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

#: Default rank counts for the ``--scale`` leg: the 1K/4K/16K end-to-end
#: anchors of ROADMAP aim 1.
SCALE_RANKS = (1024, 4096, 16384)

#: (operation, payload bytes) measured at each rank count. Bcast at 4 MiB is
#: the paper's headline large-message case; allreduce at 1 MiB keeps the
#: reduction pipeline in the measurement without doubling the wall time.
SCALE_OPS = (("bcast", 4 << 20), ("allreduce", 1 << 20))


def _collections() -> list[int]:
    """Collections so far, per generation of the cyclic collector."""
    return [gen["collections"] for gen in gc.get_stats()]


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

    ``gc_collections`` counts the cyclic collector's collections per
    generation during each run: the runner pauses the collector and frees
    its world with one young collection, so it reads ``[1, 0, 0]``. Each
    run starts after a full collection, so no earlier garbage counts.
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
            gc.collect()
            before = _collections()
            t0 = time.perf_counter()
            res = run_collective(
                spec, nranks, "OMPI-adapt", op, nbytes=nbytes, iterations=1
            )
            wall = time.perf_counter() - t0
            collections = [a - b for a, b in zip(_collections(), before)]
            events = int(res.engine_stats.get("events_processed", 0))
            entry["collectives"][op] = {
                "nbytes": nbytes,
                "wall_seconds": round(wall, 3),
                "sim_time_ms": round(res.mean_time * 1e3, 6),
                "events": events,
                "events_per_sec": round(events / wall) if wall > 0 else 0,
                "gc_collections": collections,
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


# -- cold start ------------------------------------------------------------

#: One cold start, run by a fresh interpreter: the runner's imports plus one
#: no-payload bcast, timed from the first import; with the argument
#: ``faulted``, the bcast runs under 5% noise and 1% loss. Prints one JSON
#: line. ``repro_modules`` counts the package's loaded modules: the
#: structural, noise-free half of the cold start.
_COLD_START = r"""
import sys, time
t0 = time.perf_counter()
from repro.harness.runner import run_collective
from repro.machine import for_ranks
kwargs = {}
if sys.argv[1:] == ["faulted"]:
    from repro.faults.plan import FaultPlan, LossSpec
    kwargs = dict(noise_percent=5.0, fault_plan=FaultPlan(losses=[LossSpec(drop=0.01)]))
run_collective(for_ranks("cori", 16), 16, "OMPI-adapt", "bcast",
               nbytes=4 << 20, iterations=1, **kwargs)
seconds = time.perf_counter() - t0
import json, re, resource
try:
    # Linux keeps the spawning process's peak in ru_maxrss across exec;
    # VmHWM is this interpreter's own.
    with open("/proc/self/status") as fh:
        rss_kb = int(re.search(r"VmHWM:\s+(\d+)", fh.read()).group(1))
except OSError:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "seconds": seconds,
    "peak_rss_mb": rss_kb / 1024.0,
    "repro_modules": sum(m.split(".")[0] == "repro" for m in sys.modules),
    "numpy_loaded": "numpy" in sys.modules,
}))
"""


def _cold_starts(scale: str, *args: str) -> dict:
    """Median of ``_COLD_START`` runs, each in a fresh interpreter.

    ``ref_loops`` is the median cold start over the mean of the reference
    runs either side of it, so host-speed drift moves both alike; the raw
    median ``seconds`` is kept beside it. ``peak_rss_mb`` is the median
    child's peak resident set; ``repro_modules`` is the same in every child.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    runs, ratios = [], []
    ref = _reference_seconds()
    for _ in range(_SIZES[scale]["cold_starts"]):
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_START, *args], env=env,
            capture_output=True, text=True, check=True, timeout=300,
        )
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
        after = _reference_seconds()
        ratios.append(runs[-1]["seconds"] / ((ref + after) / 2))
        ref = after
    return {
        "starts": len(runs),
        "seconds": round(statistics.median(r["seconds"] for r in runs), 4),
        "ref_loops": round(statistics.median(ratios), 3),
        "peak_rss_mb": round(statistics.median(r["peak_rss_mb"] for r in runs), 1),
        "repro_modules": max(r["repro_modules"] for r in runs),
        "numpy_loaded": any(r["numpy_loaded"] for r in runs),
    }


def bench_cold(scale: str) -> dict:
    """Cold start of a timing-only run, plain and under seeded noise and
    loss (``"faulted"``): both must leave numpy unloaded."""
    plain = _cold_starts(scale)
    faulted = _cold_starts(scale, "faulted")
    return {
        "workload": "import the runner, then one no-payload 16-rank 4 MiB "
        "OMPI-adapt bcast (cori)",
        **plain,
        "faulted": {
            "workload": "the same bcast under 5% noise and 1% loss",
            **faulted,
        },
    }


# -- contended alltoall ----------------------------------------------------

#: World sizes of the contended leg: the perfbench cell, and four nodes.
CONTENDED_RANKS = (32, 128)


def bench_contended(ranks: tuple[int, ...] = CONTENDED_RANKS) -> dict:
    """The 64 KiB ADAPT alltoall on cori, one iteration per world size.

    ``route_builds`` counts :meth:`Fabric._route_uncached` calls: one per
    endpoint signature, not one per rank pair. Single-shot walls, like the
    scaling leg: the 128-rank run takes seconds.
    """
    from repro.harness.runner import run_collective
    from repro.machine import for_ranks
    from repro.network.fabric import Fabric

    builds = [0]
    build = Fabric._route_uncached

    def counted(*args):
        builds[0] += 1
        return build(*args)

    entries = []
    Fabric._route_uncached = counted
    try:
        for nranks in ranks:
            builds[0] = 0
            gc.collect()
            t0 = time.perf_counter()
            res = run_collective(for_ranks("cori", nranks), nranks, "OMPI-adapt",
                                 "alltoall", nbytes=64 << 10, iterations=1)
            wall = time.perf_counter() - t0
            entries.append({
                "ranks": nranks,
                "wall_seconds": round(wall, 3),
                "events": int(res.engine_stats["events_processed"]),
                "sim_time_ms": round(res.mean_time * 1e3, 6),
                "route_builds": builds[0],
            })
    finally:
        Fabric._route_uncached = build
    return {
        "workload": "64 KiB OMPI-adapt alltoall (cori), 1 iteration",
        "entries": entries,
    }


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
    (``fattree``/``dragonfly``/``railpod``; CLI: ``--machine``), and
    ``"cold"`` for the cold-start leg, ``"contended"`` for the contended
    alltoall leg.
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
        "repro_version": repro.__version__,
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
    if "cold" in sections:
        out["cold"] = bench_cold(scale)
    if "contended" in sections:
        out["contended"] = bench_contended()
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
                    f", sim {cell['sim_time_ms']:.3f}ms, gc "
                    f"{'/'.join(map(str, cell['gc_collections']))})"
                )
            alloc = entry["allocator"]
            lines.append(
                f"scale {entry['ranks']:>6,} ranks  allocator "
                f"{alloc['rounds_per_sec']:>10,.2f} rounds/sec   "
                f"({alloc['flows']:,} flows over {alloc['links']} links)"
            )
    cold = result.get("cold")
    if cold:
        for label, start in (("cold", cold), ("  faulted", cold["faulted"])):
            lines.append(
                f"{label:<12}{start['seconds']:>12.4f} s/start       "
                f"({start['ref_loops']:.3f} reference loops; peak RSS "
                f"{start['peak_rss_mb']:.1f} MB; {start['repro_modules']} repro "
                f"modules; numpy "
                f"{'loaded' if start['numpy_loaded'] else 'not loaded'}; "
                f"median of {start['starts']})"
            )
    contended = result.get("contended")
    if contended:
        for entry in contended["entries"]:
            lines.append(
                f"alltoall {entry['ranks']:>4} ranks "
                f"{entry['wall_seconds']:>9.3f} s   ({entry['events']:,} "
                f"events, sim {entry['sim_time_ms']:.3f}ms, "
                f"{entry['route_builds']:,} route builds; contended 64 KiB)"
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
    """Write ``result`` to ``path``, keeping every section of an existing
    file that ``result`` lacks: a ``--section scale`` run keeps the engine
    legs the regression gate reads. The header fields are the new run's."""
    dirname = os.path.dirname(path)
    if dirname:
        os.makedirs(dirname, exist_ok=True)
    merged: dict[str, Any] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            merged = json.load(fh)
    merged.update(result)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=2)
        fh.write("\n")
