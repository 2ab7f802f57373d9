"""Per-figure experiment drivers and the registry the CLI is built from.

One module per table/figure of the paper's evaluation (Section 5); each
exposes ``run(scale=...)`` returning an :class:`ExperimentResult` whose
``table()`` prints the same rows/series the paper plots, and registers the
paper's *shape* claims over that result (who wins, rough factors,
crossovers) as :class:`Claim` objects beside ``run``.

:data:`EXPERIMENTS` is the one place an experiment is registered: the
``repro <name>`` subcommands, ``repro profile --experiment``, the
cross-worker determinism test and the registry loop
(``benchmarks/bench_experiments.py``) all iterate it. The loop runs each
entry once per knob set its claims name, checks every claim on the result,
and compares the printed table (and ``--json`` file) byte for byte against
a committed golden under ``benchmarks/goldens/``. An entry carries its
help string and knobs and names its driver module, which loads on the
first read of the entry's ``run`` or ``claims`` (DESIGN.md §18).

Scales (process counts chosen so a laptop regenerates every figure):

* ``small`` — minutes for the full suite; default for benches.
* ``medium`` — a few x larger; closer statistics.
* ``paper`` — the paper's process counts (1024/1536 ranks, 32 GPUs); hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Any

from repro.harness.experiments.common import SCALES, Claim, ExperimentResult

#: Knobs passed through to the driver; an entry's other knobs (``chart``,
#: ``json``) only shape the CLI's output.
DRIVER_KNOBS = ("machine", "operation")


class _DriverAttr:
    """An :class:`Experiment` field that may name its value as
    ``"<driver module>:<attribute>"`` instead of holding it.

    The first read imports that driver and keeps the object, so building the
    CLI or importing one driver loads no other driver. A value that is not
    a string (the run callable, the claim tuple) is kept as given.
    """

    def __init__(self, default: Any = None):
        self.default = default

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            if self.default is None:
                raise AttributeError(self.name)  # a required field
            return self.default
        value = obj.__dict__[self.name]
        if isinstance(value, str):
            module, attr = value.split(":")
            value = getattr(import_module(f"{__name__}.{module}"), attr)
            obj.__dict__[self.name] = value
        return value

    def __set__(self, obj: Any, value: Any) -> None:
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: ``repro <name>`` calls
    ``run(scale=..., n_jobs=..., cache=..., **driver knobs)``.

    ``knobs`` are drawn from ``machine`` (cori/stampede2), ``operation``
    (bcast/reduce), ``chart`` and ``json``, in subcommand flag order.
    ``claims`` are the shape claims checked on the result. ``run`` and
    ``claims`` may each be ``"<driver module>:<attribute>"``, resolved on
    first use.
    """

    help: str
    #: ``Callable[..., ExperimentResult]``
    run: _DriverAttr = _DriverAttr()
    knobs: tuple[str, ...] = ()
    #: ``tuple[Claim, ...]``
    claims: _DriverAttr = _DriverAttr(default=())

    def knob_sets(self) -> list[dict[str, str]]:
        """The driver knob sets the registry loop runs: each distinct set a
        claim names, in claim order; the driver defaults if none does."""
        sets: list[dict[str, str]] = []
        for claim in self.claims:
            if claim.knobs not in sets:
                sets.append(claim.knobs)
        return sets or [{}]


def _entry(help: str, driver: str, knobs: tuple[str, ...] = (),
           run: str = "run", claims: str = "CLAIMS") -> Experiment:
    """An entry whose run and claims are attributes of module ``driver``."""
    return Experiment(help, f"{driver}:{run}", knobs, f"{driver}:{claims}")


EXPERIMENTS: dict[str, Experiment] = {
    "fig7": _entry("Figure 7: noise impact", "fig07_noise", ("machine",)),
    "fig8": _entry("Figure 8: topology-aware algorithms", "fig08_topo",
                   ("machine", "operation")),
    "fig9": _entry("Figure 9: end-to-end vs message size", "fig09_msgsize",
                   ("machine", "operation", "chart")),
    "fig10": _entry("Figure 10: strong scaling", "fig10_scaling"),
    "fig11a": _entry("Figure 11a: GPU vs message size", "fig11_gpu",
                     run="run_msgsize", claims="MSGSIZE_CLAIMS"),
    "fig11b": _entry("Figure 11b: GPU strong scaling", "fig11_gpu",
                     run="run_scaling", claims="SCALING_CLAIMS"),
    "table1": _entry("Table 1: ASP application", "table1_asp"),
    "figx": _entry("Figure X (ours): collectives on a faulty fabric",
                   "figx_faults"),
    "figxr": _entry(
        "Figure X-R (ours): live recovery across every ADAPT collective",
        "figx_recovery", ("json",),
    ),
    "figxp": _entry(
        "Figure X-P (ours): partition tolerance, heal time vs completion "
        "and false kills",
        "figxp_partition", ("json",),
    ),
    "figq": _entry(
        "Figure Q (ours): SGD staleness frontier — accuracy vs latency for "
        "the relaxed quorum collectives",
        "figq_staleness", ("json",),
    ),
    "metrics": _entry(
        "sync-wait/link/noise metrics of a noisy bcast, and critical paths",
        "fig07_noise", ("json",), run="run_metrics", claims="METRICS_CLAIMS",
    ),
    "ablations": _entry(
        "Ablations (ours): segment size, send window, GPU staging and "
        "offload, bandwidth robustness",
        "ablations",
    ),
    "chaos": _entry(
        "Chaos (ours): collectives on a faulty fabric — loss, kill, "
        "corruption, partition, stalls; or one cell: chaos OPERATION [flags]",
        "chaos",
    ),
}

__all__ = [
    "Claim",
    "DRIVER_KNOBS",
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "SCALES",
]
