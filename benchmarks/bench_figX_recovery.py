"""Figure X-R bench — live recovery across every ADAPT collective.

Regenerates the recovery sweep (one fail-stop and one bit-corruption
scenario per ADAPT operation, plus the Waitall comparator kills) and
asserts the live-recovery claims:

* every ADAPT collective **recovers** from a mid-flight fail-stop: the run
  completes among the survivors, the agreed failed set is exactly the
  victim, and the membership protocol reports a finite, positive
  time-to-repair;
* corrupted transfers are repaired end-to-end: every corrupt-scenario run
  completes ``ok`` with zero failed ranks, and each NACK is answered by a
  retransmission;
* the Waitall comparator (no recovery path) hangs forever in the same
  kill scenario.

Besides the usual table under ``benchmarks/results/``, the run is saved as
JSON (``figure_x_recovery.json``) — the artifact the CI chaos job uploads
and byte-compares across worker counts for determinism.
"""

import math
import pathlib

from repro.collectives.models import ADAPT_COLLECTIVES
from repro.harness.experiments import figx_recovery

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _assert_shapes(res) -> None:
    kill = next(s for s in res.column("scenario") if s.startswith("kill"))
    corrupt = next(s for s in res.column("scenario") if s.startswith("corrupt"))
    victim = kill.split()[-1]

    for operation in ADAPT_COLLECTIVES:
        row = {
            col: res.value(col, operation=operation, scenario=kill,
                           library="OMPI-adapt")
            for col in ("status", "failed", "ttr_ms", "mean_ms")
        }
        assert row["status"] == "recovered", f"{operation} kill: {row}"
        assert row["failed"] == victim, f"{operation} kill: {row}"
        assert row["ttr_ms"] is not None and row["ttr_ms"] > 0, (
            f"{operation} kill: no time-to-repair: {row}"
        )
        assert math.isfinite(row["mean_ms"]), f"{operation} kill: {row}"

        crow = {
            col: res.value(col, operation=operation, scenario=corrupt,
                           library="OMPI-adapt")
            for col in ("status", "failed", "retransmits", "nacks", "mean_ms")
        }
        assert crow["status"] == "ok", f"{operation} corrupt: {crow}"
        assert crow["failed"] == "-", f"{operation} corrupt: {crow}"
        # Every checksum rejection NACKs and every NACK is answered.
        assert crow["retransmits"] == crow["nacks"], f"{operation}: {crow}"
        assert math.isfinite(crow["mean_ms"]), f"{operation} corrupt: {crow}"
    # The seeded corruption sweep must actually corrupt *something*.
    nacks = [
        res.value("nacks", operation=op, scenario=corrupt, library="OMPI-adapt")
        for op in ADAPT_COLLECTIVES
    ]
    assert sum(nacks) > 0, "corruption sweep flipped no bits"

    for operation in figx_recovery.COMPARATOR_OPS:
        status = res.value("status", operation=operation, scenario=kill,
                           library=figx_recovery.COMPARATOR)
        assert status == "hung", f"{operation} comparator: {status}"


def _save_json(res) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "figure_x_recovery.json").write_text(res.to_json())


def test_figx_recovery(benchmark, scale, record_result):
    res = benchmark.pedantic(
        figx_recovery.run, args=(scale,), rounds=1, iterations=1
    )
    record_result(res)
    _save_json(res)
    _assert_shapes(res)
