"""Figure 7 — noise impact on broadcast and reduce (Section 5.1.1).

The paper injects uniform-duration noise at a fixed low frequency — 0-10 ms
@10 Hz ("5%", i.e. 5% duty cycle) and 0-20 ms @10 Hz ("10%") — and reports
each library's slowdown at 4 MB. Figure 7a (Cori) compares {Intel MPI,
Cray MPI, OMPI-default, OMPI-adapt}; Figure 7b (Stampede2) compares
{Intel MPI, MVAPICH, OMPI-default, OMPI-adapt} with the MVAPICH reduce row
absent (the paper reports it segfaults at 4 MB).

Methodological scaling (documented in DESIGN/EXPERIMENTS): the paper's noise
regime is *long-duration, low-frequency* relative to the collective — events
a few times longer than one collective, arriving much less often than one
per collective. At our smaller simulated scale the collectives are faster,
so we preserve the regime by scaling the event duration to 4x the measured
noise-free time of each library's collective and deriving the frequency from
the requested duty cycle; noise comes from a single source process placed
mid-tree (the propagation methodology of the paper's Section 2 analysis).
Measurements chain iterations per rank (the IMB loop) over a window covering
many noise periods.

Shape claims (:data:`CLAIMS`): OMPI-adapt's slowdown is the smallest at
both noise levels, and blocking/ring-based libraries amplify noise by a
large factor over ADAPT.

:func:`run_metrics` (``repro metrics``) is one observed fig7 cell, shrunk:
it distills a 1 MB noisy bcast into the paper's quantities (sync-wait
fraction, noise absorption, peak link utilization) and adds the critical
path through two schedules' dependency graphs (:data:`METRICS_CLAIMS`:
ADAPT waits less on synchronization than the Waitall schedule on the same
tree).
"""

from __future__ import annotations

from functools import partial

from repro.harness.experiments.common import (
    Claim,
    ExperimentResult,
    machine_nodes,
    machine_spec,
    sweep,
)
from repro.harness.report import slowdown_percent
from repro.parallel import SimJob

MSG = 4 << 20
NOISE_LEVELS = (5.0, 10.0)
DURATION_FACTOR = 4.0   # noise event max duration = 4x collective time
# 80 chained iterations cover ~2 noise periods at 5% duty and ~4 at 10%
# (noise frequency is derived from the duty cycle and the scaled event
# duration); events arrive at fixed frequency, so the event *count* per
# window is deterministic and only durations are random — enough sampling
# for stable slowdown ordering at fixed seeds.
MAX_ITERS = 80
PROBE_ITERS = 12        # short calibration run to size the noise events


def libraries(machine: str) -> list[str]:
    if machine == "cori":
        return ["Intel MPI", "Cray MPI", "OMPI-default", "OMPI-adapt"]
    return ["Intel MPI", "MVAPICH", "OMPI-default", "OMPI-adapt"]


def _steady_mean(run) -> float:
    # Drop the first interval (pipeline fill) so measurements with
    # different iteration counts are comparable.
    times = run.times[1:] if len(run.times) > 1 else run.times
    return sum(times) / len(times)


def _pairs(machine: str) -> list[tuple[str, str]]:
    # The paper's MVAPICH reduce segfaults at 4 MB, hence the missing row.
    return [
        (operation, lib)
        for operation in ("bcast", "reduce")
        for lib in libraries(machine)
        if not (operation == "reduce" and lib == "MVAPICH")
    ]


def run(
    machine: str = "cori",
    scale: str = "small",
    *,
    n_jobs: int | None = None,
    cache=None,
    msg: int = MSG,
    max_iters: int = MAX_ITERS,
    probe_iters: int = PROBE_ITERS,
) -> ExperimentResult:
    """Two-stage sweep: the calibration probes and noise-free baselines are
    all independent (stage 1); the noisy measurements depend on each probe's
    time — their event duration and frequency derive from it — so they form
    a second fan-out (stage 2)."""
    spec = machine_spec(machine, scale)
    nodes = machine_nodes(machine, scale)
    nranks = spec.total_cores
    noisy_rank = nranks // 3  # an intermediate rank in every topology
    result = ExperimentResult(
        experiment="Figure 7" + ("a" if machine == "cori" else "b"),
        title=f"noise impact, {machine}, {nranks} ranks, 4 MB",
        headers=["operation", "library", "noise%", "mean_ms", "slowdown%",
                 "sync_wait%"],
        notes=[
            f"single noise source (rank {noisy_rank}); event duration scaled to "
            f"{DURATION_FACTOR}x the noise-free collective time, duty cycle as labelled",
        ],
    )
    pairs = _pairs(machine)

    def cell(operation: str, lib: str, **kw) -> SimJob:
        return SimJob(
            machine=machine, nodes=nodes, library=lib, operation=operation,
            nbytes=msg, seed=1, **kw,
        )

    # Stage 1: a short probe sizes the noise events; the reported baseline
    # runs over the same iteration count as the noisy measurements, so
    # deep-pipeline convergence effects cancel in the slowdown.
    probe_jobs = [cell(op, lib, iterations=probe_iters) for op, lib in pairs]
    base_jobs = [
        cell(op, lib, iterations=max_iters, observe="metrics")
        for op, lib in pairs
    ]
    stage1 = sweep(probe_jobs + base_jobs, n_jobs=n_jobs, cache=cache)
    probes, bases = stage1[: len(pairs)], stage1[len(pairs):]

    # Stage 2: noisy measurements, parameterized by the probe results.
    noisy_jobs = []
    for (operation, lib), probe in zip(pairs, probes):
        max_duration = DURATION_FACTOR * _steady_mean(probe)
        for noise in NOISE_LEVELS:
            freq = (noise / 100.0) / (max_duration / 2.0)
            noisy_jobs.append(SimJob(
                machine=machine, nodes=nodes, library=lib, operation=operation,
                nbytes=msg, iterations=max_iters, noise_percent=noise,
                noise_ranks=(noisy_rank,), seed=int(noise) + 1,
                noise_frequency=freq, observe="metrics",
            ))
    stage2 = iter(sweep(noisy_jobs, n_jobs=n_jobs, cache=cache))

    def _sync_wait_pct(run) -> float:
        m = run.metrics or {}
        return round(100.0 * m.get("sync_wait_fraction", 0.0), 2)

    for (operation, lib), base_run in zip(pairs, bases):
        base = _steady_mean(base_run)
        result.add(operation, lib, 0.0, round(base * 1e3, 3), 0.0,
                   _sync_wait_pct(base_run))
        for noise in NOISE_LEVELS:
            r = next(stage2)
            slow = slowdown_percent(_steady_mean(r), base)
            result.add(operation, lib, noise, round(_steady_mean(r) * 1e3, 3),
                       round(slow, 1), _sync_wait_pct(r))
    return result


def _adapt_least_slowdown(res: ExperimentResult, machine: str) -> None:
    for operation in ("bcast", "reduce"):
        libs = [lib for lib in libraries(machine)
                if not (operation == "reduce" and lib == "MVAPICH")]
        for noise in NOISE_LEVELS:
            slow = {
                lib: res.value("slowdown%", operation=operation, library=lib,
                               **{"noise%": noise})
                for lib in libs
            }
            adapt = slow["OMPI-adapt"]
            # ADAPT's slowdown is the smallest (ties broken leniently: within
            # 5 percentage points of the minimum).
            assert adapt <= min(slow.values()) + 5.0, (
                f"{operation} @{noise}%: ADAPT {adapt}% not best of {slow}"
            )


def _blocking_amplifies(res: ExperimentResult, machine: str) -> None:
    for operation in ("bcast", "reduce"):
        # The most synchronization-heavy library amplifies noise well beyond
        # ADAPT at 10% (paper: Cray 149% / MVAPICH 868% vs ADAPT 24%/9%).
        blocking_lib = "Cray MPI" if machine == "cori" else "MVAPICH"
        if operation == "reduce" and blocking_lib == "MVAPICH":
            blocking_lib = "Intel MPI"
        blk = res.value("slowdown%", operation=operation, library=blocking_lib,
                        **{"noise%": 10.0})
        adapt10 = res.value("slowdown%", operation=operation,
                            library="OMPI-adapt", **{"noise%": 10.0})
        if blocking_lib in ("Cray MPI", "MVAPICH"):
            assert blk > adapt10, (
                f"{operation}: blocking {blocking_lib} ({blk}%) should amplify "
                f"noise beyond ADAPT ({adapt10}%)"
            )


def _claims(machine: str) -> tuple[Claim, ...]:
    knobs = {"machine": machine}
    return (
        Claim(f"fig7 {machine}: ADAPT's noise slowdown is the smallest",
              partial(_adapt_least_slowdown, machine=machine), knobs),
        Claim(f"fig7 {machine}: the blocking library amplifies noise beyond "
              "ADAPT", partial(_blocking_amplifies, machine=machine), knobs),
    )


CLAIMS = _claims("cori") + _claims("stampede2")


#: The ``repro metrics`` cell: a 1 MB bcast at 5% noise on one mid-tree
#: rank, sized by a noise-free probe as in :func:`run`.
METRICS_MSG = 1 << 20
METRICS_NOISE = 5.0
METRICS_ITERS = 24
METRICS_PROBE_ITERS = 6
METRICS_LIBS = ("OMPI-adapt", "OMPI-default-topo", "Cray MPI")
#: Schedules whose critical path is reported (8 ranks, binary tree, 512 KB).
METRICS_SCHEDULES = ("bcast-adapt", "bcast-nonblocking")


def run_metrics(
    scale: str = "small", *, n_jobs: int | None = None, cache=None,
) -> ExperimentResult:
    """Per-library metrics of one observed noisy bcast on Cori, and the
    critical path of ADAPT's and the Waitall bcast schedule.

    The critical path is the longest chain of data-dependent operations
    (sync and flow edges excluded): the time a schedule cannot beat on
    infinitely fast independent resources.
    """
    from repro.analysis.schedules import analyze_schedule
    from repro.obs.critical import critical_path

    machine = "cori"
    nodes = machine_nodes(machine, scale)
    nranks = machine_spec(machine, scale).total_cores
    noisy_rank = nranks // 3
    result = ExperimentResult(
        experiment="Metrics",
        title=f"bcast {METRICS_MSG >> 20} MB, {machine} x{nodes} nodes "
        f"({nranks} ranks), {METRICS_NOISE:g}% noise on rank {noisy_rank}",
        headers=["row", "name", "mean_ms", "sync_wait%", "noise_absorb",
                 "peak_link_util%", "path_ms", "hops"],
        notes=[
            f"noisy bcast rows: mean of {METRICS_ITERS} chained iterations, "
            f"noise events {DURATION_FACTOR}x a {METRICS_PROBE_ITERS}-iteration "
            "noise-free probe",
            "critical path rows: the longest data-dependent chain (sync and "
            "flow edges excluded), 8 ranks, binary tree, 512 KB",
        ],
    )

    probes = sweep(
        [SimJob(machine=machine, nodes=nodes, library=lib, operation="bcast",
                nbytes=METRICS_MSG, iterations=METRICS_PROBE_ITERS, seed=1)
         for lib in METRICS_LIBS],
        n_jobs=n_jobs, cache=cache,
    )
    noisy_jobs = []
    for lib, probe in zip(METRICS_LIBS, probes):
        max_duration = DURATION_FACTOR * _steady_mean(probe)
        noisy_jobs.append(SimJob(
            machine=machine, nodes=nodes, library=lib, operation="bcast",
            nbytes=METRICS_MSG, iterations=METRICS_ITERS,
            noise_percent=METRICS_NOISE, noise_ranks=(noisy_rank,),
            noise_frequency=(METRICS_NOISE / 100.0) / (max_duration / 2.0),
            seed=6, observe="metrics",
        ))
    for lib, r in zip(METRICS_LIBS, sweep(noisy_jobs, n_jobs=n_jobs, cache=cache)):
        m = r.metrics or {}
        absorb = m.get("noise_absorption_ratio")
        peak = max((link["busy_fraction"] for link in m.get("links", [])),
                   default=0.0)
        result.add("noisy bcast", lib, round(r.mean_time * 1e3, 3),
                   round(100.0 * m.get("sync_wait_fraction", 0.0), 3),
                   "-" if absorb is None else round(absorb, 3),
                   round(100.0 * peak, 1), "-", "-")
    for sched in METRICS_SCHEDULES:
        graph = analyze_schedule(sched, nranks=8, tree="binary",
                                 nbytes=512 * 1024)
        length, path = critical_path(graph)
        result.add("critical path", sched, "-", "-", "-", "-",
                   round(length * 1e3, 4), len(path))
    return result


def _adapt_waits_less(res: ExperimentResult) -> None:
    adapt = res.value("sync_wait%", name="OMPI-adapt")
    waitall = res.value("sync_wait%", name="OMPI-default-topo")
    assert adapt < waitall, (
        f"OMPI-adapt sync-wait {adapt}% not below OMPI-default-topo "
        f"{waitall}% (the Waitall schedule on the same tree)"
    )


METRICS_CLAIMS = (
    Claim("metrics: OMPI-adapt sync-wait < OMPI-default-topo",
          _adapt_waits_less),
)
