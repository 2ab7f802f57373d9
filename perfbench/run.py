"""Host-time benchmark of the ADAPT simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bcast-large --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

``--trace 0`` times cold set-ups in fresh interpreters, then whole passes
over the workload's cells with nothing installed, and reports the
end-to-end metrics. Op times are normalised by the reference loop run
between ops (see reference.py); the raw host seconds are printed too.
``--trace 1`` alternates an untraced pass with a traced pass of the same
cells and reports per-layer metrics (see perfbench/README.md). Every op's simulated result is checked;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 9


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the recorded default seed)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Each workload in a fresh process of its own, one after the other."""
    code = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        print(f"== {name}", flush=True)
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def _tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"tail: n/a ({n} op samples; needs 11)"
    q = 1.0 - 10.0 / n
    value = sorted(samples)[int(q * n) - 1]
    return f"tail: p{100 * q:.1f} = {value:.4f} s ({n} op samples, 10 beyond it)"


def _cold_setup(workload: str, seed: int) -> float:
    """Seconds of one set-up in a fresh interpreter (see coldsetup.py)."""
    proc = subprocess.run([sys.executable, str(HERE / "coldsetup.py"), workload, str(seed)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import reference
    from workloads import WORKLOADS, Checker, stop_before_overrun

    if args.workload == "all":
        return _run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    seed = expected["default_seed"] if args.seed is None else args.seed
    import_s = time.perf_counter() - _T_START

    # Set-up runs in the benchmark's own process once, untimed. ``setup_s``
    # is the median of cold set-ups, each in a fresh interpreter of its own,
    # so that the imports are timed more than once. Like every time below,
    # each is scaled by the reference runs around it.
    t0 = time.perf_counter()
    wl = WORKLOADS[args.workload](seed)
    wl.warmup()
    own_setup_s = import_s + time.perf_counter() - t0
    setups: list[float] = []
    raw_setups: list[float] = []
    ref_runs: list[float] = []
    if not args.trace:
        reference.seconds()  # warm-up
        ref_runs.append(reference.seconds())
        for _ in range(SETUP_REPEATS):
            raw_setups.append(_cold_setup(args.workload, seed))
            ref_runs.append(reference.seconds())
            setups.append(reference.scale(raw_setups[-1], ref_runs[-2], ref_runs[-1]))
    labels = wl.labels()
    check = Checker(wl, expected["digests"].get(args.workload, {}),
                    complete=seed == expected["default_seed"])

    if args.trace:
        from report import traced_run

        metrics, lines = traced_run(wl, labels, check, args.seconds, seed)
    else:
        passes: list[float] = []
        raw_passes: list[float] = []
        per_cell: dict[str, list[float]] = {label: [] for label in labels}
        raw_cells: dict[str, list[float]] = {label: [] for label in labels}
        rounds: list[float] = []
        while True:
            r0 = time.perf_counter()
            # A reference run before the first op and after every op: each op
            # is scaled by the mean of the two runs around it.
            refs = [reference.seconds()]
            results = wl.run_pass(lambda: refs.append(reference.seconds()))
            passes.append(0.0)
            raw_passes.append(0.0)
            for i, ((seconds, result), label) in enumerate(zip(results, labels)):
                norm = reference.scale(seconds, refs[i], refs[i + 1])
                passes[-1] += norm
                raw_passes[-1] += seconds
                per_cell[label].append(norm)
                raw_cells[label].append(seconds)
                check(label, result)
            ref_runs += refs
            rounds.append(time.perf_counter() - r0)
            # The budget counts from the start of the process, set-ups included.
            if stop_before_overrun(time.perf_counter() - _T_START, rounds, args.seconds):
                break

        def op_p50(cells: dict[str, list[float]]) -> float:
            # Median of per-cell medians: a slow outlier op cannot shift the
            # rank of a heterogeneous grid's middle cells.
            return statistics.median(statistics.median(v) for v in cells.values())

        metrics = {
            "wall_norm_s": {"value": statistics.median(passes), "unit": "s"},
            "op_p50_norm_s": {"value": op_p50(per_cell), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        ops = [t for v in raw_cells.values() for t in v]
        lines = [
            f"passes: {len(passes)} of {len(labels)} ops; " + _tail(ops),
            f"wall_s: {statistics.median(raw_passes):.6g} s (raw host seconds, not normalised)",
            f"op_p50_s: {op_p50(raw_cells):.6g} s (raw host seconds, not normalised)",
            f"setup_s: {statistics.median(raw_setups):.6g} s (raw host seconds, not normalised)",
            f"reference: median {statistics.median(ref_runs):.4f} s per run, "
            f"{len(ref_runs)} runs (nominal {reference.NOMINAL_S} s)",
        ]
    cold = f"; raw cold set-ups {[round(s, 4) for s in raw_setups]} s" if setups else ""
    lines.insert(0, f"setup: this process {own_setup_s:.4f} s (imports {import_s:.4f} s){cold}")

    print(f"workload: {args.workload}  seed: {seed}  trace: {args.trace}")
    for line in lines:
        print(line)
    for label in labels:
        print(f"digest {label}: {check.seen.get(label, '-')}")
    for failure in check.failures:
        print(f"FAILED {failure}")
    for problem in check.problems:
        print(f"PROBLEM {problem}")
    print(f"ops: {check.attempted} ops  ops_failed: {len(check.failures)} ops")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": len(check.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
