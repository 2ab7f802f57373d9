"""Figure X-R (ours) — live recovery across every ADAPT collective.

Companion to :mod:`figx_faults` (DESIGN.md S20): where Figure X shows ADAPT
*degrading* gracefully (bcast adopts orphans, reduce drops the dead
subtree), this experiment arms the full recovery stack — ULFM-style
membership agreement, tree re-grafting / epoch restart, end-to-end payload
integrity — and sweeps **all nine** ADAPT collectives through two fault
scenarios:

* **kill** — one interior non-root rank fail-stops mid-flight (at a
  fraction of the fault-free probe time, so segments are genuinely in the
  air). Every collective must complete among the survivors
  (``status=recovered``) and report the agreed failed set plus the
  membership protocol's time-to-repair. The Waitall comparator rows
  (bcast/reduce, the operations the baseline libraries implement) hang
  forever in the same scenario.
* **corrupt** — the fabric flips one bit in a sampled fraction of data
  transfers. Per-segment checksums catch every corruption at delivery and
  NACK-triggered retransmits repair them, so the run completes ``ok`` —
  bit-exact, zero degraded ranks — with the repair cost visible as
  retransmissions.

Shape claims (:data:`CLAIMS`): every ADAPT collective recovers from the
kill with exactly the victim agreed failed and a positive time-to-repair;
every corrupt run completes ``ok`` with each NACK answered by a
retransmission; and the Waitall comparator hangs in the kill scenario.

Determinism: every row derives from seeded fault plans and the RNG-free
membership protocol, so the emitted JSON is byte-identical across worker
counts.
"""

from __future__ import annotations

import math

from repro.collectives.models import ADAPT_COLLECTIVES
from repro.faults import FaultPlan, KillSpec
from repro.faults.plan import CorruptSpec
from repro.harness.experiments.common import (
    COMPARATOR_OPS,
    SCALES,
    Claim,
    ExperimentResult,
    fmt_bytes,
    sweep,
)
from repro.machine import cori
from repro.parallel import SimJob

MSG = 256 << 10
ITERS = 1
CORRUPT_RATE = 0.02
#: Fraction of the fault-free single-shot time at which the victim is killed.
KILL_FRACTION = 0.3
#: Waitall-style comparator (same topology-aware tree, nonblocking +
#: Waitall) — only for :data:`~repro.harness.experiments.common.COMPARATOR_OPS`.
COMPARATOR = "OMPI-default-topo"


def probe_sweep(operations, nodes: int, n_jobs, cache) -> list:
    """Stage 1: one fault-free single-shot OMPI-adapt run per operation,
    whose mean time places the fault in stage 2."""
    return sweep([
        SimJob(
            machine="cori", nodes=nodes, library="OMPI-adapt", operation=op,
            nbytes=MSG, iterations=1, mode="sequential", seed=1,
        )
        for op in operations
    ], n_jobs=n_jobs, cache=cache)


def status_of(r) -> str:
    """The status column: the run's outcome (DESIGN.md S17), ``ok`` for
    complete and ``recovered`` for degraded."""
    return {"complete": "ok", "degraded": "recovered"}.get(r.outcome, r.outcome)


def run(
    scale: str = "small",
    *,
    n_jobs: int | None = None,
    cache=None,
    operations: tuple[str, ...] = tuple(ADAPT_COLLECTIVES),
) -> ExperimentResult:
    """Two-stage sweep: fault-free probes calibrate each kill time (stage 1);
    the kill/corrupt/comparator cells fan out from them (stage 2)."""
    cfg = SCALES[scale]
    spec = cori(nodes=cfg["cori_nodes"])
    nranks = spec.total_cores
    nodes = cfg["cori_nodes"]
    victim = nranks // 3  # an interior, non-root rank in every topology
    result = ExperimentResult(
        experiment="Figure X-R",
        title=f"live recovery, cori, {nranks} ranks, {fmt_bytes(MSG)}",
        headers=["operation", "scenario", "library", "status", "failed",
                 "ttr_ms", "retransmits", "nacks", "mean_ms"],
        notes=[
            f"kill rows: rank {victim} fail-stops at {KILL_FRACTION:g}x the "
            "fault-free time with recovery armed (membership agreement + "
            "re-graft/restart); 'recovered' means survivors completed",
            f"corrupt rows: one bit flipped in {CORRUPT_RATE * 100:g}% of "
            "data transfers; checksums + NACK retransmits repair them "
            "(status 'ok', zero failed ranks)",
            "comparator rows: the Waitall schedule in the kill scenario "
            "('hung' = never completed, reported inf)",
        ],
    )

    probes = probe_sweep(operations, nodes, n_jobs, cache)

    def kill_plan(probe) -> FaultPlan:
        return FaultPlan(
            kills=[KillSpec(rank=victim, time=KILL_FRACTION * probe.mean_time)],
            seed=3,
        )

    kill_jobs = [
        SimJob(
            machine="cori", nodes=nodes, library="OMPI-adapt", operation=op,
            nbytes=MSG, iterations=ITERS, mode="sequential", seed=1,
            recover=True, fault_plan=kill_plan(probe),
        )
        for op, probe in zip(operations, probes)
    ]
    corrupt_jobs = [
        SimJob(
            machine="cori", nodes=nodes, library="OMPI-adapt", operation=op,
            nbytes=MSG, iterations=ITERS, mode="sequential", seed=1,
            recover=True,
            fault_plan=FaultPlan(
                corrupts=[CorruptSpec(rate=CORRUPT_RATE)], seed=4
            ),
        )
        for op in operations
    ]
    comparator_jobs = [
        SimJob(
            machine="cori", nodes=nodes, library=COMPARATOR, operation=op,
            nbytes=MSG, iterations=ITERS, mode="sequential", seed=1,
            fault_plan=kill_plan(probe),
        )
        for op, probe in zip(operations, probes)
        if op in COMPARATOR_OPS
    ]
    stage2 = sweep(
        kill_jobs + corrupt_jobs + comparator_jobs, n_jobs=n_jobs, cache=cache
    )
    kills = stage2[: len(kill_jobs)]
    corrupts = stage2[len(kill_jobs): len(kill_jobs) + len(corrupt_jobs)]
    comparators = stage2[len(kill_jobs) + len(corrupt_jobs):]

    def add_row(op: str, scenario: str, library: str, r) -> None:
        mean = r.mean_time
        ttr = r.time_to_repair
        result.add(
            op, scenario, library, status_of(r),
            ",".join(map(str, r.failed_ranks)) or "-",
            round(ttr * 1e3, 3) if ttr is not None else None,
            r.transport.get("retransmits", 0),
            r.transport.get("nacks_sent", 0),
            round(mean * 1e3, 3) if math.isfinite(mean) else float("inf"),
        )

    for op, r in zip(operations, kills):
        add_row(op, f"kill rank {victim}", "OMPI-adapt", r)
    for op, r in zip(operations, corrupts):
        add_row(op, f"corrupt {CORRUPT_RATE * 100:g}%", "OMPI-adapt", r)
    comp_iter = iter(comparators)
    for op in operations:
        if op in COMPARATOR_OPS:
            add_row(op, f"kill rank {victim}", COMPARATOR, next(comp_iter))
    return result


def _scenario(res: ExperimentResult, prefix: str) -> str:
    return next(s for s in res.column("scenario") if s.startswith(prefix))


def _adapt_row(res: ExperimentResult, operation: str, scenario: str,
               cols: tuple[str, ...]) -> dict:
    return {
        col: res.value(col, operation=operation, scenario=scenario,
                       library="OMPI-adapt")
        for col in cols
    }


def _every_collective_recovers(res: ExperimentResult) -> None:
    kill = _scenario(res, "kill")
    victim = kill.split()[-1]
    for operation in ADAPT_COLLECTIVES:
        row = _adapt_row(res, operation, kill,
                         ("status", "failed", "ttr_ms", "mean_ms"))
        assert row["status"] == "recovered", f"{operation} kill: {row}"
        assert row["failed"] == victim, f"{operation} kill: {row}"
        assert row["ttr_ms"] is not None and row["ttr_ms"] > 0, (
            f"{operation} kill: no time-to-repair: {row}"
        )
        assert math.isfinite(row["mean_ms"]), f"{operation} kill: {row}"


def _corruption_repaired(res: ExperimentResult) -> None:
    corrupt = _scenario(res, "corrupt")
    for operation in ADAPT_COLLECTIVES:
        crow = _adapt_row(res, operation, corrupt,
                          ("status", "failed", "retransmits", "nacks", "mean_ms"))
        assert crow["status"] == "ok", f"{operation} corrupt: {crow}"
        assert crow["failed"] == "-", f"{operation} corrupt: {crow}"
        # Every checksum rejection NACKs and every NACK is answered.
        assert crow["retransmits"] == crow["nacks"], f"{operation}: {crow}"
        assert math.isfinite(crow["mean_ms"]), f"{operation} corrupt: {crow}"


def _corruption_flips_bits(res: ExperimentResult) -> None:
    corrupt = _scenario(res, "corrupt")
    nacks = [
        res.value("nacks", operation=op, scenario=corrupt, library="OMPI-adapt")
        for op in ADAPT_COLLECTIVES
    ]
    assert sum(nacks) > 0, "corruption sweep flipped no bits"


def _comparator_hangs(res: ExperimentResult) -> None:
    kill = _scenario(res, "kill")
    for operation in COMPARATOR_OPS:
        status = res.value("status", operation=operation, scenario=kill,
                           library=COMPARATOR)
        assert status == "hung", f"{operation} comparator: {status}"


CLAIMS = (
    Claim("figxr: every ADAPT collective recovers from a killed rank",
          _every_collective_recovers),
    Claim("figxr: corrupted transfers are repaired, one retransmit per NACK",
          _corruption_repaired),
    Claim("figxr: the corruption sweep flips bits", _corruption_flips_bits),
    Claim("figxr: the Waitall comparator hangs on a killed rank",
          _comparator_hangs),
)
