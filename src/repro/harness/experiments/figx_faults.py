"""Figure X (ours) — collectives on a faulty fabric (DESIGN.md §17).

The paper evaluates ADAPT under *noise*; this companion experiment evaluates
it under *faults*, using the fault-injection layer (``repro.faults``):

* **Loss sweep** — every link drops each data transfer independently with
  probability p ∈ {0, 0.5%, 1%, 2%}. The reliable transport (ack/retransmit,
  duplicate suppression) is enabled for every point including p=0, so the
  baseline already pays the ack overhead and the slowdown isolates the cost
  of *recovery*, not of the protocol. ADAPT's event-driven schedules absorb
  retransmit delay the same way they absorb noise — a late segment only
  delays its own subtree — while the Waitall-style comparator
  (OMPI-default-topo: same topology-aware tree, nonblocking + Waitall)
  resynchronizes every rank on the slowest retransmission.

* **Fail-stop** — one non-root interior rank is killed partway through the
  collective. ADAPT's degraded mode re-routes around the corpse (the parent
  adopts the orphaned grandchildren; a reduce drops the dead subtree's
  contribution) and completes with ``status=degraded``. The Waitall schedule
  has no recovery path: its survivors block forever and the run reports
  ``hung`` (times are ``inf``).

Shape claims (:data:`CLAIMS`): ADAPT completes every point (ok/degraded,
never hung); retransmits grow with the drop rate; at the highest drop rate
ADAPT beats (or at worst ties) the Waitall schedule, which resynchronizes
on the slowest retransmit; the killed-rank row is ``degraded`` for ADAPT
and ``hung`` for the Waitall comparator.
"""

from __future__ import annotations

import math

from repro.faults import FaultPlan, KillSpec, LossSpec
from repro.harness.experiments.common import (
    SCALES,
    Claim,
    ExperimentResult,
    fmt_bytes,
    sweep,
)
from repro.harness.report import slowdown_percent
from repro.machine import cori
from repro.parallel import SimJob

MSG = 512 << 10
DROP_RATES = (0.0, 0.005, 0.01, 0.02)
LIBRARIES = ("OMPI-adapt", "OMPI-default-topo")
ITERS = 4
#: Fraction of the fault-free single-shot time at which the victim is killed.
KILL_FRACTION = 0.3


def fault_label(drop: float) -> str:
    return "none" if drop == 0 else f"drop {drop * 100:g}%"


def run(
    scale: str = "small",
    *,
    n_jobs: int | None = None,
    cache=None,
    operations: tuple[str, ...] = ("bcast", "reduce"),
    drops: tuple[float, ...] = DROP_RATES,
) -> ExperimentResult:
    """Two-stage sweep: the loss-sweep cells and the fault-free kill probes
    are all independent (stage 1); each kill cell's fail-stop time derives
    from its probe, so the kill runs form a second fan-out (stage 2)."""
    cfg = SCALES[scale]
    spec = cori(nodes=cfg["cori_nodes"])
    nranks = spec.total_cores
    nodes = cfg["cori_nodes"]
    victim = nranks // 3  # an interior, non-root rank in every topology
    result = ExperimentResult(
        experiment="Figure X",
        title=f"faulty fabric, cori, {nranks} ranks, {fmt_bytes(MSG)}",
        headers=["operation", "library", "fault", "mean_ms", "slowdown%",
                 "retransmits", "status"],
        notes=[
            "reliable transport (ack/retransmit) enabled at every point, "
            "including the drop-0 baseline",
            f"kill rows: rank {victim} fail-stops at "
            f"{KILL_FRACTION:g}x the fault-free time; 'hung' means the "
            "schedule never completed (reported inf)",
        ],
    )

    def status(r) -> str:
        if not r.completed:
            return "hung"
        return "degraded" if r.degraded else "ok"

    pairs = [(op, lib) for op in operations for lib in LIBRARIES]

    # Stage 1: the loss sweep (one seed across the sweep: the drop decisions
    # at a higher rate are a superset of the lower rate's — same uniform
    # stream — so retransmit counts grow with the rate) plus the fault-free
    # single-shot probes that calibrate each kill time.
    loss_jobs = [
        SimJob(
            machine="cori", nodes=nodes, library=lib, operation=op,
            nbytes=MSG, iterations=ITERS, seed=1,
            fault_plan=FaultPlan(
                losses=[LossSpec(drop=drop, duplicate=drop / 10)], seed=2
            ),
        )
        for op, lib in pairs
        for drop in drops
    ]
    probe_jobs = [
        SimJob(
            machine="cori", nodes=nodes, library=lib, operation=op,
            nbytes=MSG, iterations=1, mode="sequential", seed=1,
        )
        for op, lib in pairs
    ]
    stage1 = sweep(loss_jobs + probe_jobs, n_jobs=n_jobs, cache=cache)
    loss_runs = stage1[: len(loss_jobs)]
    probes = stage1[len(loss_jobs):]

    # Stage 2: fail-stop mid-collective, timed off each probe.
    kill_jobs = [
        SimJob(
            machine="cori", nodes=nodes, library=lib, operation=op,
            nbytes=MSG, iterations=1, mode="sequential", seed=1,
            fault_plan=FaultPlan(
                kills=[KillSpec(rank=victim, time=KILL_FRACTION * probe.mean_time)],
                seed=3,
            ),
        )
        for (op, lib), probe in zip(pairs, probes)
    ]
    kill_runs = sweep(kill_jobs, n_jobs=n_jobs, cache=cache)

    loss_iter = iter(loss_runs)
    for (operation, lib), probe, kill_run in zip(pairs, probes, kill_runs):
        base = None
        for drop in drops:
            r = next(loss_iter)
            mean = r.mean_time
            if base is None:
                base = mean
            slow = slowdown_percent(mean, base) if math.isfinite(mean) else float("inf")
            result.add(
                operation, lib, fault_label(drop),
                round(mean * 1e3, 3), round(slow, 1),
                r.transport.get("retransmits", 0), status(r),
            )
        mean = kill_run.mean_time
        slow = (
            slowdown_percent(mean, probe.mean_time)
            if math.isfinite(mean) else float("inf")
        )
        result.add(
            operation, lib, f"kill rank {victim}",
            round(mean * 1e3, 3) if math.isfinite(mean) else float("inf"),
            round(slow, 1) if math.isfinite(slow) else float("inf"),
            kill_run.transport.get("retransmits", 0), status(kill_run),
        )
    return result


def _loss_rows(res: ExperimentResult, operation: str, fault: str) -> dict:
    return {
        lib: {
            col: res.value(col, operation=operation, library=lib, fault=fault)
            for col in ("mean_ms", "retransmits", "status")
        }
        for lib in LIBRARIES
    }


def _kill_label(res: ExperimentResult) -> str:
    return next(f for f in res.column("fault") if f.startswith("kill"))


def _losses_complete(res: ExperimentResult) -> None:
    for operation in ("bcast", "reduce"):
        for fault in map(fault_label, DROP_RATES):
            for lib, r in _loss_rows(res, operation, fault).items():
                assert r["status"] == "ok", f"{operation}/{lib}/{fault}: {r}"
                assert math.isfinite(r["mean_ms"]), f"{operation}/{lib}/{fault}: {r}"


def _same_drops(res: ExperimentResult) -> None:
    # Both libraries run over the same seeded fabric: identical transfer
    # counts, identical drop decisions.
    for operation in ("bcast", "reduce"):
        for fault in map(fault_label, DROP_RATES):
            adapt, waitall = _loss_rows(res, operation, fault).values()
            assert adapt["retransmits"] == waitall["retransmits"], (
                f"{operation}/{fault}: {adapt} vs {waitall}"
            )


def _retransmits_grow(res: ExperimentResult) -> None:
    for operation in ("bcast", "reduce"):
        prev = -1
        for fault in map(fault_label, DROP_RATES):
            retransmits = res.value("retransmits", operation=operation,
                                    library="OMPI-adapt", fault=fault)
            if fault != "none":
                assert retransmits > 0, f"{operation}/{fault}: no recovery"
            assert retransmits >= prev, (
                f"{operation}: retransmits not monotone in drop rate"
            )
            prev = retransmits


def _adapt_beats_waitall_at_worst(res: ExperimentResult) -> None:
    worst = fault_label(DROP_RATES[-1])
    for operation in ("bcast", "reduce"):
        a = res.value("mean_ms", operation=operation,
                      library="OMPI-adapt", fault=worst)
        w = res.value("mean_ms", operation=operation,
                      library="OMPI-default-topo", fault=worst)
        assert a <= w * 1.25, (
            f"{operation} @{worst}: ADAPT {a} ms should beat Waitall {w} ms"
        )


def _adapt_degrades_on_kill(res: ExperimentResult) -> None:
    kill = _kill_label(res)
    for operation in ("bcast", "reduce"):
        # Fail-stop: ADAPT routes around the corpse.
        a_status = res.value("status", operation=operation,
                             library="OMPI-adapt", fault=kill)
        assert a_status == "degraded", f"{operation} kill: ADAPT {a_status}"
        mean = res.value("mean_ms", operation=operation,
                         library="OMPI-adapt", fault=kill)
        assert math.isfinite(mean), f"{operation} kill: ADAPT {mean} ms"


def _waitall_hangs_on_kill(res: ExperimentResult) -> None:
    kill = _kill_label(res)
    for operation in ("bcast", "reduce"):
        w_status = res.value("status", operation=operation,
                             library="OMPI-default-topo", fault=kill)
        assert w_status == "hung", f"{operation} kill: Waitall {w_status}"


CLAIMS = (
    Claim("figx: every loss-sweep point completes ok", _losses_complete),
    Claim("figx: ADAPT and Waitall see the same drops", _same_drops),
    Claim("figx: retransmits grow with the drop rate", _retransmits_grow),
    Claim("figx: ADAPT within 1.25x of Waitall at the highest drop rate",
          _adapt_beats_waitall_at_worst),
    Claim("figx: ADAPT degrades around a killed rank", _adapt_degrades_on_kill),
    Claim("figx: Waitall hangs on a killed rank", _waitall_hangs_on_kill),
)
