"""Core perf bench — engine, allocator, and sweep-executor throughput.

Runs ``repro.harness.bench.run_core_bench`` once, saves the result as
``benchmarks/results/BENCH_core.json`` (the CI perf-smoke artifact), and
asserts this PR's headline numbers: the optimized allocator beats the
pre-PR reference by >= 1.3x, and the parallel sweep path produces results
byte-identical to the sequential path. The parallel *speedup* assertion is
gated on having real cores to run on — a 1-core container can demonstrate
identity but not concurrency.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.harness import bench as core_bench

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: The committed baseline at the repo root (``repro bench --json``); the
#: regression gate below compares fresh engine throughput against it.
BASELINE_PATH = pathlib.Path(__file__).parent.parent / "BENCH_core.json"

#: Worker count for the fig09 parallel leg; 2 keeps the process pool
#: exercised without oversubscribing small CI runners.
BENCH_JOBS = 2


@pytest.fixture(scope="module")
def core(scale):
    result = core_bench.run_core_bench(scale, n_jobs=BENCH_JOBS)
    RESULTS_DIR.mkdir(exist_ok=True)
    core_bench.write_json(result, str(RESULTS_DIR / "BENCH_core.json"))
    print("\n" + core_bench.render(result))
    return result


def test_engine_throughput(core):
    eng = core["engine"]
    assert eng["events"] > 0
    # Loose sanity floor: even slow shared runners process far more than
    # 10k events/sec; a failure here means the engine loop regressed badly.
    assert eng["events_per_sec"] > 10_000, eng


def test_engine_no_regression_vs_baseline(core):
    """Perf-regression gate: each engine leg's events per reference loop
    (events/sec times the host seconds of a fixed stdlib loop timed
    alongside it) must stay within 30% of the committed BENCH_core.json
    baseline. The ratio cancels the host's speed and core count, so the
    gate runs on every runner, small containers included.
    """
    if not BASELINE_PATH.exists():
        pytest.skip("no committed BENCH_core.json baseline at repo root")
    baseline = json.loads(BASELINE_PATH.read_text())["engine"]
    fresh = core["engine"]
    for leg, base, new in [
        ("epoch", baseline, fresh),
        ("chain", baseline["chain"], fresh["chain"]),
    ]:
        assert new["events_per_ref"] >= 0.7 * base["events_per_ref"], (
            f"{leg} regime regressed >30%: {new['events_per_ref']:,} events "
            f"per reference loop vs baseline {base['events_per_ref']:,}"
        )


def test_allocator_beats_reference(core):
    alloc = core["allocator"]
    assert alloc["rounds_per_sec"] > 0 and alloc["reference_rounds_per_sec"] > 0
    # The PR's acceptance number, recorded alongside both raw throughputs.
    assert alloc["speedup_vs_reference"] >= 1.3, alloc


def test_fig09_parallel_identity(core):
    fig = core["fig09"]
    assert fig["jobs"] == BENCH_JOBS
    assert fig["parallel_identical"] is True, fig


def test_fig09_parallel_speedup(core):
    if (os.cpu_count() or 1) < 4:
        pytest.skip("parallel speedup needs >= 4 physical cores")
    if core["scale"] == "small":
        pytest.skip("small cells are dominated by pool startup; run medium")
    assert core["fig09"]["parallel_speedup"] >= 1.5, core["fig09"]
