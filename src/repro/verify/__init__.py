"""Schedule model checking: exhaustive interleaving exploration.

The single-interleaving linter (:mod:`repro.analysis.lint`) proves
properties of the one execution the simulator happened to run. This
package proves them for *every* execution a reordering network could
produce: the recorded schedule becomes a transition system
(:mod:`repro.verify.model`), the explorer walks all inequivalent match
orders with dynamic partial-order reduction
(:mod:`repro.verify.checker`), the fault sweep certifies the kill and
partition repair paths at every explored state
(:mod:`repro.verify.recovery_check`), and every violation ships as a replayable, Chrome-traceable counterexample
(:mod:`repro.verify.counterexample`). ``repro verify`` is the CLI front
door.
"""

from repro.verify.checker import (
    DEADLOCK,
    RACE,
    UNMATCHED_SEND,
    Exploration,
    MatchEvent,
    Violation,
    explore,
)
from repro.verify.counterexample import (
    ReplayResult,
    chrome_counterexample_trace,
    counterexample_dict,
    first_violation,
    load_counterexample,
    model_from_trace,
    replay,
    save_counterexample,
)
from repro.verify.model import (
    ModelOp,
    ScheduleModel,
    build_model,
    model_from_graph,
)
from repro.verify.recovery_check import (
    PointReport,
    SweepResult,
    fault_sweep,
)

__all__ = [
    "DEADLOCK",
    "RACE",
    "UNMATCHED_SEND",
    "Exploration",
    "MatchEvent",
    "ModelOp",
    "PointReport",
    "ReplayResult",
    "ScheduleModel",
    "SweepResult",
    "Violation",
    "build_model",
    "chrome_counterexample_trace",
    "counterexample_dict",
    "explore",
    "fault_sweep",
    "first_violation",
    "load_counterexample",
    "model_from_graph",
    "model_from_trace",
    "replay",
    "save_counterexample",
]
