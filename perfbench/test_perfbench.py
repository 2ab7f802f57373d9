"""Self-checks of the benchmark itself (not part of the repository's test suite).

Run from the repository root::

    python3 -m pytest perfbench -q

* exact counts of the traced run repeat from one run to the next;
* at the default seed a cell with no recorded digest fails;
* the ``bcast-large`` op at 1024 ranks reproduces the 1024-rank bcast leg
  of ``BENCH_core.json`` (``repro bench --scale``);
* without the simulator's sources the benchmark fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

EXACT = ("engine.events", "mpi.sends", "mpi.transmissions", "net.flows",
         "net.solves", "net.solves.scan", "net.solves.heap", "net.solves.vec")


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["allreduce-noisy-lossy", "alltoall-contended"])
def test_traced_counts_repeat_exactly(workload: str) -> None:
    first, second = _result(workload, 1), _result(workload, 1)
    assert first["correct"] and second["correct"]
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_unrecorded_cell_fails_only_at_default_seed() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import Checker, Workload, digest

    result = SimpleNamespace(times=[1e-3], completed=True, degraded=False)
    strict = Checker(Workload(0), {}, complete=True)
    strict("renamed-cell", result)
    assert len(strict.failures) == 1 and not strict.correct
    other_seed = Checker(Workload(7), {"cell": digest(result)}, complete=False)
    other_seed("cell", result)
    other_seed("cell-drawn-from-seed-7", result)
    assert other_seed.correct and other_seed.attempted == 2


def test_bcast_large_reproduces_bench_core_leg() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from repro.harness import runner
    from repro.machine import for_ranks
    from workloads import BcastLarge

    bench = json.loads((ROOT / "BENCH_core.json").read_text())
    entry = next(e for e in bench["scale_ranks"]["entries"] if e["ranks"] == 1024)
    leg = entry["collectives"]["bcast"]
    [cell] = BcastLarge(0).cells
    result = runner.run_collective(**{**cell.kwargs, "spec": for_ranks("cori", 1024),
                                      "nranks": 1024})
    assert int(result.engine_stats["events_processed"]) == leg["events"] == 393836
    assert round(result.mean_time * 1e3, 6) == leg["sim_time_ms"] == 1.260977


def test_fails_without_sources(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("bcast-large", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
