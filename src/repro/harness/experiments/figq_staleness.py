"""Figure Q (ours) — the SGD staleness frontier: accuracy vs latency.

Companion to :mod:`figx_recovery` and :mod:`figxp_partition` (DESIGN.md
S25): where those experiments measure what *exact* collectives cost under
faults, this one measures what giving up exactness *buys*. Data-parallel
SGD (:mod:`repro.apps.sgd`) averages gradients every epoch; the sweep
crosses three disturbance scenarios with a staleness-policy grid:

* **scenarios** — a seeded straggler grid (``FaultPlan.stall_sweep``), a
  mid-run fail-stop (``FaultPlan.single_kill``), and fig07-style injected
  OS noise. Each also runs fault-free as its own control.
* **variants** — exact ADAPT allreduce (``quorum=None``: every epoch is a
  barrier), the quorum grid (``allreduce_quorum`` at quorum x staleness
  window), and a Waitall-style latency comparator (the blocking baseline
  under the same plan; it computes no gradients, so its accuracy column
  is ``-``).

Every quorum row reports both axes of the frontier: ``runtime_ms`` (what
relaxation buys) and ``excess_loss`` (what it costs — the replayed
optimization's distance from the synchronous optimum), plus the full
contribution accounting (``on_time``/``late``/``disc``) certifying that
no gradient was silently lost (the sanitizer's conservation rule).

Shape claims (:data:`CLAIMS`): under a stall, quorum SGD at 0.75 is over
2x faster than exact SGD, which waits the stall out; under a fail-stop,
every quorum row completes degraded, and faster than exact SGD, whose
allreduce repairs around the dead rank in place.

Determinism: seeded plans and the event-count-free engine make the
emitted JSON byte-identical across worker counts (CI asserts ``--jobs 1``
vs ``--jobs 2``).
"""

from __future__ import annotations

import math

from repro.faults import FaultPlan
from repro.harness.experiments.common import Claim, ExperimentResult, fmt_bytes, sweep
from repro.harness.runner import outcome_of
from repro.parallel import SimJob
from repro.relaxed import QuorumPolicy

#: The sgd cells: epochs x gradient size x per-epoch compute. Sized so one
#: straggler epoch dominates an epoch's critical path (the frontier's
#: interesting regime) while the whole grid stays a sub-second sweep.
EPOCHS = 6
GRAD_BYTES = 16 << 10
COMPUTE = 5e-4
#: Policy grid: completion quorum x staleness window.
QUORUMS = (0.75, 0.9)
WINDOWS = (1, 2)
#: Waitall-style comparator (latency only — it computes no gradients).
COMPARATOR = "OMPI-default-topo"

#: Scale -> testbox nodes (8 ranks/node) for the sgd world.
_NODES = {"small": 2, "medium": 4, "paper": 8}


def _scenarios(nranks: int) -> list[tuple[str, FaultPlan | None, float]]:
    """(name, fault plan, noise_percent) — the disturbance axis."""
    return [
        ("fault-free", None, 0.0),
        # Two stragglers stall for longer than the whole run: exact SGD
        # waits out the stall, the quorum rows never do.
        ("stall", FaultPlan.stall_sweep(
            nranks, victims=2, duration=8e-3, start=2e-3, seed=5,
        ), 0.0),
        # One straggler lags by ~2 epochs: its stale gradients come back
        # while later epochs are still open, so the staleness *window*
        # decides merge-vs-discard (the axis the long stall can't show).
        ("lag", FaultPlan.stall_sweep(
            nranks, victims=1, duration=1.1e-3, start=5e-4, seed=7,
        ), 0.0),
        # One rank dies mid-run; the quorum shrinks, exact ADAPT degrades.
        ("fail-stop", FaultPlan.single_kill(nranks - 2, 2e-3), 0.0),
        ("noise", None, 2.5),
    ]


def run(
    scale: str = "small",
    *,
    n_jobs: int | None = None,
    cache=None,
) -> ExperimentResult:
    nodes = _NODES.get(scale, _NODES["small"])
    nranks = nodes * 8
    scenarios = _scenarios(nranks)
    result = ExperimentResult(
        experiment="Figure Q",
        title=(
            f"SGD staleness frontier, testbox, {nranks} ranks, "
            f"{EPOCHS} epochs, {fmt_bytes(GRAD_BYTES)} gradients"
        ),
        headers=["scenario", "variant", "quorum", "window", "runtime_ms",
                 "excess_loss", "on_time", "late", "disc", "status"],
        notes=[
            "exact rows: every epoch is a barrier (ADAPT allreduce); "
            "quorum rows: epochs seal at the quorum, stragglers merge "
            "into a later epoch inside the window or are discarded with "
            "accounting",
            "excess_loss: f(x_final) - f(x*) of the replayed quadratic — "
            "the numerical price of the staleness the schedule produced "
            "(0 = exactly the synchronous optimum path)",
            "on_time: fraction of all rank-epoch gradients that made "
            "their own epoch's quorum; late/disc: merged-late vs "
            "discarded counts (conservation-checked — nothing is "
            "silently lost)",
            f"comparator rows: {COMPARATOR} reduce under the same plan — "
            "latency of the blocking schedule, no gradient replay "
            "('hung' = never completed)",
        ],
    )

    def sgd_job(plan, noise, quorum, window) -> SimJob:
        return SimJob(
            kind="sgd", machine="testbox", nodes=nodes, nranks=nranks,
            library="OMPI-adapt", nbytes=GRAD_BYTES, iterations=EPOCHS,
            compute_per_iteration=COMPUTE,
            quorum=None if quorum is None else QuorumPolicy(
                quorum=quorum, staleness_window=window),
            noise_percent=noise, noise_frequency=2000.0, seed=4,
            fault_plan=plan,
            sanitize=plan is None or not plan.kills,
            time_limit=0.5 if plan is not None and plan.kills else None,
        )

    jobs: list[SimJob] = []
    labels: list[tuple[str, str, object, object]] = []
    for name, plan, noise in scenarios:
        jobs.append(sgd_job(plan, noise, None, 1))
        labels.append((name, "exact", "-", "-"))
        for q in QUORUMS:
            for w in WINDOWS:
                jobs.append(sgd_job(plan, noise, q, w))
                labels.append((name, "quorum", q, w))
        jobs.append(SimJob(
            kind="collective", machine="testbox", nodes=nodes,
            nranks=nranks, library=COMPARATOR, operation="reduce",
            nbytes=GRAD_BYTES, iterations=EPOCHS, mode="sequential",
            noise_percent=noise, noise_frequency=2000.0, seed=4,
            fault_plan=plan, time_limit=0.5,
        ))
        labels.append((name, "waitall", "-", "-"))

    results = sweep(jobs, n_jobs=n_jobs, cache=cache)

    for (name, variant, q, w), r in zip(labels, results):
        if variant == "waitall":
            mean = r.mean_time
            total = mean * EPOCHS if math.isfinite(mean) else float("inf")
            result.add(
                name, variant, q, w,
                round(total * 1e3, 3) if math.isfinite(total) else float("inf"),
                "-", "-", "-", "-",
                "ok" if r.completed else "hung",
            )
            continue
        status = outcome_of(r.completed, r.degraded)
        if status == "complete":
            status = "ok"
        result.add(
            name, variant, q, w,
            round(r.total_runtime * 1e3, 3) if r.completed else float("inf"),
            round(r.excess_loss, 6),
            round(r.on_time_fraction, 4),
            r.late_merged, r.discarded, status,
        )
    return result


def _quorum_dodges_stall(res: ExperimentResult) -> None:
    exact = res.value("runtime_ms", scenario="stall", variant="exact")
    for row in res.lookup(scenario="stall", variant="quorum", quorum=0.75):
        runtime = row[res.headers.index("runtime_ms")]
        assert runtime < exact / 2, (
            f"stall: quorum 0.75 took {runtime} ms, exact {exact} ms")


def _quorum_survives_fail_stop(res: ExperimentResult) -> None:
    assert res.value("status", scenario="fail-stop", variant="exact") == "degraded"
    exact = res.value("runtime_ms", scenario="fail-stop", variant="exact")
    rows = [dict(zip(res.headers, row))
            for row in res.lookup(scenario="fail-stop", variant="quorum")]
    assert rows and all(r["status"] == "degraded" and r["runtime_ms"] < exact
                        for r in rows), (exact, rows)


CLAIMS = (
    Claim("figq: under a stall quorum SGD at 0.75 is over 2x faster than "
          "exact SGD", _quorum_dodges_stall),
    Claim("figq: under a fail-stop quorum SGD completes degraded, faster "
          "than exact SGD's in-place repair", _quorum_survives_fail_stop),
)
