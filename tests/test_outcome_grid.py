"""The outcome contract of a killed collective (DESIGN.md S17).

Every ``COLLECTIVES`` op runs 16 ranks on ``small_test_machine()``
(OMPI-adapt, 256 KiB, 3 iterations) with rank 5 or the root (rank 0)
killed at 5 us (mid-run for every op) or 200 us (after the faster ops
have finished), with live recovery off and on (quorum ops: off only).
Each cell must end in the outcome the DESIGN.md S17 table gives it, with
the given number of ``inf`` iteration times:

* ``D`` degraded: ``completed=True, degraded=True``, every time finite;
* ``U`` unrecoverable: ``completed=False, degraded=True``; the failure
  took a result with it (``U3``: three times ``inf``);
* ``C`` complete and ``H`` hung (``completed=False, degraded=False``,
  a Waitall hang) are never the outcome of a kill.

Recovery runs iterations back to back and stops after the first one that
delivered nothing, so its ``U`` cells have one ``inf`` time.
"""

import math

import pytest

from repro.collectives.models import COLLECTIVES
from repro.faults import FaultPlan, KillSpec
from repro.harness import run_collective
from repro.harness.runner import RunResult
from repro.machine import small_test_machine

#: The cells of one exact op, in the column order of :data:`EXPECTED`:
#: (victim, kill time in us, recover).
CELLS = (
    (5, 5, False), (5, 5, True), (5, 200, False), (5, 200, True),
    (0, 5, False), (0, 5, True), (0, 200, False), (0, 200, True),
)

EXPECTED = {
    #                  rank 5                  root (rank 0)
    #                  5 us       200 us       5 us       200 us
    #                  off  on    off  on      off  on    off  on
    "bcast":          ("D", "D", "D", "D",    "U3", "U1", "D", "U1"),
    "reduce":         ("D", "D", "D", "D",    "D", "U1", "D", "U1"),
    "scatter":        ("D", "D", "D", "D",    "U3", "U1", "D", "U1"),
    "gather":         ("U3", "D", "D", "D",   "U3", "U1", "D", "U1"),
    "allreduce":      ("D", "D", "D", "D",    "U3", "U1", "U3", "U1"),
    "allgather":      ("U3", "D", "D", "D",   "U3", "D", "D", "D"),
    "reduce_scatter": ("U3", "D", "U1", "D",  "U3", "D", "U1", "D"),
    "alltoall":       ("D", "D", "D", "D",    "D", "D", "D", "D"),
    "barrier":        ("D", "D", "D", "D",    "D", "D", "D", "D"),
    # Quorum ops: recovery off only.
    "bcast_quorum":     ("D", None, "D", None, "U3", None, "D", None),
    "reduce_quorum":    ("D", None, "D", None, "U3", None, "U3", None),
    "allreduce_quorum": ("D", None, "D", None, "U3", None, "U3", None),
}

#: Outcome letter -> (completed, degraded).
FLAGS = {"C": (True, False), "D": (True, True),
         "U": (False, True), "H": (False, False)}


def _grid():
    for op, row in EXPECTED.items():
        for (victim, kill_us, recover), want in zip(CELLS, row):
            if want is None:
                continue
            cell_id = (f"{op}-{'root' if victim == 0 else 'rank5'}-"
                       f"{kill_us}us-{'recover' if recover else 'plain'}")
            yield pytest.param(op, victim, kill_us, recover, want, id=cell_id)


def test_table_covers_every_operation():
    assert set(EXPECTED) == set(COLLECTIVES)
    for op, row in EXPECTED.items():
        recoverable = [want is not None for want in row]
        assert recoverable == (
            [True, False] * 4 if COLLECTIVES[op].relaxed else [True] * 8
        ), op


@pytest.mark.parametrize("op,victim,kill_us,recover,want", list(_grid()))
def test_killed_collective_outcome(op, victim, kill_us, recover, want):
    r = run_collective(
        small_test_machine(), 16, "OMPI-adapt", op, 256 << 10, iterations=3,
        fault_plan=FaultPlan(kills=[KillSpec(rank=victim, time=kill_us * 1e-6)]),
        recover=recover,
    )
    completed, degraded = FLAGS[want[0]]
    infs = int(want[1:] or 0)
    got = (r.completed, r.degraded, sum(math.isinf(t) for t in r.times))
    assert got == (completed, degraded, infs), (
        f"{op}: completed/degraded/inf times {got}, table says {want}"
    )


@pytest.mark.parametrize("letter,outcome", [
    ("C", "complete"), ("D", "degraded"), ("U", "unrecoverable"),
    ("H", "hung"),
])
def test_run_result_outcome_reads_the_flags(letter, outcome):
    completed, degraded = FLAGS[letter]
    r = RunResult("lib", "op", "m", 2, 8, 0.0, completed=completed,
                  degraded=degraded)
    assert r.outcome == outcome
