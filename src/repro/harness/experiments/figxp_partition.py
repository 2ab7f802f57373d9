"""Figure X-P (ours) — partition tolerance: heal time vs completion.

Companion to :mod:`figx_recovery` (DESIGN.md S22): where Figure X-R kills
ranks outright, this experiment *partitions* the fabric — a contiguous
minority third of the machine is severed mid-collective — and sweeps the
heal time across the adaptive failure detector's deadline (the phi
threshold crossing plus the confirmation delay, ~19.4 ms at defaults):

* **heal before the deadline** — the partition is absorbed: severed
  traffic parks on the reliable transport and resumes at the heal, the
  phi-accrual detector never confirms a failure, and the collective
  completes on the *original* tree with zero false kills (``status=ok``).
* **heal after the deadline** — the cut falls through to the kill path:
  the quorum side commits a survivor view excluding the minority,
  completes degraded (``status=recovered``), and the healed stragglers
  are evicted at reconcile time. Every evicted rank was ground-truth
  alive — the ``false_kills`` column counts them, the figure's cost-of-
  impatience axis.

The Waitall comparator rows ride the same plans: the blocking schedule
always completes *eventually* (the reliable transport retries through the
heal), but its completion time tracks the full partition duration —
unbounded as the heal recedes — where ADAPT's is capped at the detection
deadline by the degraded completion. A partition that never heals would
hang Waitall forever (``status=hung``); the sweep keeps heals finite so
the cost shows up as latency, the honest axis.

Shape claims (:data:`CLAIMS`): past the deadline ADAPT completes before
the heal, at one time whatever the heal; Waitall completes only after the
heal, later the later it comes.

Determinism: seeded plans, the RNG-free membership protocol, and the
event-count-free detector make the emitted JSON byte-identical across
worker counts (CI asserts ``--jobs 1`` vs ``--jobs 2``).
"""

from __future__ import annotations

import math

from repro.collectives.models import ADAPT_COLLECTIVES
from repro.faults import FaultPlan, PartitionSpec
from repro.harness.experiments.common import (
    COMPARATOR_OPS,
    SCALES,
    Claim,
    ExperimentResult,
    fmt_bytes,
    sweep,
)
from repro.harness.experiments.figx_recovery import (
    COMPARATOR,
    ITERS,
    MSG,
    probe_sweep,
    status_of,
)
from repro.machine import cori
from repro.parallel import SimJob

#: Fraction of the fault-free single-shot time at which the cut lands.
PART_FRACTION = 0.3
#: Heal times as multiples of the detection deadline: two cells safely
#: inside the retraction window, two safely past it.
HEAL_FACTORS = (0.25, 0.5, 2.0, 4.0)


def _partition_groups(nranks: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Majority prefix (with the root) vs a contiguous minority third."""
    cut = nranks - nranks // 3
    return tuple(range(cut)), tuple(range(cut, nranks))


def run(
    scale: str = "small",
    *,
    n_jobs: int | None = None,
    cache=None,
    operations: tuple[str, ...] = tuple(ADAPT_COLLECTIVES),
) -> ExperimentResult:
    """Two-stage sweep: fault-free probes calibrate each cut time (stage 1);
    the heal-time grid and comparator cells fan out from them (stage 2)."""
    cfg = SCALES[scale]
    spec = cori(nodes=cfg["cori_nodes"])
    nranks = spec.total_cores
    nodes = cfg["cori_nodes"]
    groups = _partition_groups(nranks)
    minority = groups[1]
    deadline = FaultPlan().detection_deadline
    result = ExperimentResult(
        experiment="Figure X-P",
        title=(
            f"partition tolerance, cori, {nranks} ranks, {fmt_bytes(MSG)}, "
            f"minority={len(minority)} ranks"
        ),
        headers=["operation", "heal_ms", "library", "status", "false_kills",
                 "failed", "ttr_ms", "severed", "mean_ms"],
        notes=[
            f"a contiguous minority of {len(minority)} rank(s) is severed at "
            f"{PART_FRACTION:g}x the fault-free time; heal swept at "
            f"{', '.join(f'{f:g}x' for f in HEAL_FACTORS)} the detection "
            f"deadline ({deadline * 1e3:.1f} ms: phi crossing + confirm)",
            "heal < deadline: absorbed — parked sends resume, original "
            "tree, zero false kills (status 'ok')",
            "heal > deadline: kill-path fall-through — quorum side commits "
            "a survivor view, healed stragglers are evicted; false_kills "
            "counts evicted-though-alive ranks",
            "comparator rows: the Waitall schedule under the same cut — "
            "it completes only after the heal, so its latency tracks the "
            "partition duration where OMPI-adapt's is capped at the "
            "deadline; its false_kills count ranks the detector confirmed "
            "then retracted ('hung' = never completed, reported inf)",
        ],
    )

    probes = probe_sweep(operations, nodes, n_jobs, cache)

    def plan_for(probe, factor: float) -> FaultPlan:
        start = PART_FRACTION * probe.mean_time
        return FaultPlan(
            partitions=[
                PartitionSpec(
                    groups=groups, start=start,
                    heal=start + factor * deadline,
                )
            ],
            seed=3,
        )

    adapt_jobs = [
        SimJob(
            machine="cori", nodes=nodes, library="OMPI-adapt", operation=op,
            nbytes=MSG, iterations=ITERS, mode="sequential", seed=1,
            recover=True, fault_plan=plan_for(probe, factor),
        )
        for op, probe in zip(operations, probes)
        for factor in HEAL_FACTORS
    ]
    comparator_jobs = [
        SimJob(
            machine="cori", nodes=nodes, library=COMPARATOR, operation=op,
            nbytes=MSG, iterations=ITERS, mode="sequential", seed=1,
            fault_plan=plan_for(probe, factor),
            # Waitall completes shortly after the heal (<= ~0.13 s at the
            # 4x cell); the limit only guards against a real hang.
            time_limit=0.5,
        )
        for op, probe in zip(operations, probes)
        for factor in HEAL_FACTORS
        if op in COMPARATOR_OPS
    ]
    stage2 = sweep(adapt_jobs + comparator_jobs, n_jobs=n_jobs, cache=cache)
    adapts = stage2[: len(adapt_jobs)]
    comparators = stage2[len(adapt_jobs):]

    def add_row(op: str, factor: float, probe, library: str, r) -> None:
        mean = r.mean_time
        ttr = r.time_to_repair
        heal_ms = (PART_FRACTION * probe.mean_time + factor * deadline) * 1e3
        result.add(
            op, round(heal_ms, 3), library, status_of(r),
            r.false_kills,
            ",".join(map(str, r.failed_ranks)) or "-",
            round(ttr * 1e3, 3) if ttr is not None else None,
            r.transport.get("severed", 0),
            round(mean * 1e3, 3) if math.isfinite(mean) else float("inf"),
        )

    it = iter(adapts)
    for op, probe in zip(operations, probes):
        for factor in HEAL_FACTORS:
            add_row(op, factor, probe, "OMPI-adapt", next(it))
    comp_it = iter(comparators)
    for op, probe in zip(operations, probes):
        if op not in COMPARATOR_OPS:
            continue
        for factor in HEAL_FACTORS:
            add_row(op, factor, probe, COMPARATOR, next(comp_it))
    return result


def _by_heal(res: ExperimentResult, library: str) -> dict[str, list[tuple]]:
    """operation -> its (heal_ms, mean_ms) pairs, in heal order."""
    out: dict[str, list[tuple]] = {}
    for row in res.lookup(library=library):
        cells = dict(zip(res.headers, row))
        out.setdefault(cells["operation"], []).append(
            (cells["heal_ms"], cells["mean_ms"]))
    return {op: sorted(pairs) for op, pairs in out.items()}


def _adapt_capped(res: ExperimentResult) -> None:
    deadline_ms = FaultPlan().detection_deadline * 1e3
    for op, pairs in _by_heal(res, "OMPI-adapt").items():
        late = [(heal, mean) for heal, mean in pairs if heal > deadline_ms]
        assert late, f"{op}: no heal past the {deadline_ms:.1f} ms deadline"
        assert all(mean < heal for heal, mean in late), (op, late)
        assert len({mean for _, mean in late}) == 1, (op, late)


def _waitall_tracks_partition(res: ExperimentResult) -> None:
    for op, pairs in _by_heal(res, COMPARATOR).items():
        assert all(mean > heal for heal, mean in pairs), (op, pairs)
        means = [mean for _, mean in pairs]
        assert means == sorted(set(means)), (op, pairs)


CLAIMS = (
    Claim("figxp: past the detection deadline ADAPT completes before the "
          "heal, at one time", _adapt_capped),
    Claim("figxp: the Waitall comparator completes after the heal, later "
          "for a later heal", _waitall_tracks_partition),
)
