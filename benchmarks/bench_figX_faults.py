"""Figure X bench — ADAPT collectives on a faulty fabric.

Regenerates the fault sweep (drop rate vs completion latency, plus one
fail-stop row per library) and asserts the fault-tolerance claims:

* ADAPT completes every point — ``ok`` under losses, ``degraded`` (never
  ``hung``) when a rank is killed;
* retransmissions grow with the drop rate and are nonzero whenever the
  fabric drops anything;
* the Waitall comparator hangs forever when a rank fail-stops, and at the
  highest drop rate ADAPT's event-driven recovery beats (or at worst ties)
  the Waitall schedule, which resynchronizes on the slowest retransmit.

Besides the usual table under ``benchmarks/results/``, the run is saved as
JSON (``figure_x_faults.json``) — the artifact the CI chaos job uploads.
"""

import math
import pathlib

from repro.harness.experiments import figx_faults

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _assert_shapes(res) -> None:
    drops = [figx_faults.fault_label(d) for d in figx_faults.DROP_RATES]
    kill = next(f for f in res.column("fault") if f.startswith("kill"))
    for operation in ("bcast", "reduce"):
        prev = -1
        for fault in drops:
            row = {
                lib: {
                    col: res.value(col, operation=operation, library=lib, fault=fault)
                    for col in ("mean_ms", "retransmits", "status")
                }
                for lib in figx_faults.LIBRARIES
            }
            adapt, waitall = (row[lib] for lib in figx_faults.LIBRARIES)
            for lib, r in row.items():
                assert r["status"] == "ok", f"{operation}/{lib}/{fault}: {r}"
                assert math.isfinite(r["mean_ms"])
            # Both libraries run over the same seeded fabric: identical
            # transfer counts, identical drop decisions.
            assert adapt["retransmits"] == waitall["retransmits"]
            if fault != "none":
                assert adapt["retransmits"] > 0, f"{operation}/{fault}: no recovery"
            assert adapt["retransmits"] >= prev, (
                f"{operation}: retransmits not monotone in drop rate"
            )
            prev = adapt["retransmits"]
        worst = drops[-1]
        a = res.value("mean_ms", operation=operation,
                      library="OMPI-adapt", fault=worst)
        w = res.value("mean_ms", operation=operation,
                      library="OMPI-default-topo", fault=worst)
        assert a <= w * 1.25, (
            f"{operation} @{worst}: ADAPT {a} ms should beat Waitall {w} ms"
        )
        # Fail-stop: ADAPT routes around the corpse, Waitall never returns.
        a_status = res.value("status", operation=operation,
                             library="OMPI-adapt", fault=kill)
        w_status = res.value("status", operation=operation,
                             library="OMPI-default-topo", fault=kill)
        assert a_status == "degraded", f"{operation} kill: ADAPT {a_status}"
        assert math.isfinite(res.value("mean_ms", operation=operation,
                                       library="OMPI-adapt", fault=kill))
        assert w_status == "hung", f"{operation} kill: Waitall {w_status}"


def _save_json(res) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "figure_x_faults.json").write_text(res.to_json())


def test_figx_faults(benchmark, scale, record_result):
    res = benchmark.pedantic(
        figx_faults.run, args=(scale,), rounds=1, iterations=1
    )
    record_result(res)
    _save_json(res)
    _assert_shapes(res)
