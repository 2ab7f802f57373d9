"""Shared experiment plumbing."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.harness.report import format_table

#: The operations the baseline libraries implement: the only ones a
#: Waitall-style comparator row can run.
COMPARATOR_OPS = ("bcast", "reduce")

#: Scale presets: (cori nodes, stampede2 nodes, psg nodes, iterations).
SCALES = {
    "small": {"cori_nodes": 2, "stampede2_nodes": 2, "psg_nodes": 4, "iters": 8},
    "medium": {"cori_nodes": 8, "stampede2_nodes": 6, "psg_nodes": 8, "iters": 16},
    "paper": {"cori_nodes": 32, "stampede2_nodes": 32, "psg_nodes": 8, "iters": 40},
}


def default_scale() -> str:
    """Bench scale, overridable via ``REPRO_BENCH_SCALE`` (a :data:`SCALES`
    key)."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    if scale not in SCALES:
        raise ValueError(f"unknown bench scale {scale!r}; choose from {sorted(SCALES)}")
    return scale


def machine_nodes(machine: str, scale: str) -> int:
    """Node count of ``machine`` at ``scale`` (SCALES column lookup)."""
    try:
        return SCALES[scale][f"{machine}_nodes"]
    except KeyError:
        raise ValueError(f"unknown machine {machine!r} or scale {scale!r}") from None


def machine_spec(machine: str, scale: str):
    """The :class:`MachineSpec` an experiment's jobs run on."""
    from repro.machine.presets import resolve

    return resolve(machine, machine_nodes(machine, scale))


def sweep(jobs: Sequence, *, n_jobs: Optional[int] = None, cache=None) -> list:
    """Run an experiment's job cells through the parallel executor.

    Thin indirection so every driver shares one entry point (and tests can
    monkeypatch it); results come back in job order — see
    :func:`repro.parallel.run_jobs` for the determinism argument.
    """
    from repro.parallel import run_jobs

    return run_jobs(jobs, n_jobs=n_jobs, cache=cache)


@dataclass
class ExperimentResult:
    """Rows of one regenerated table/figure."""

    experiment: str
    title: str
    headers: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *cells: Any) -> None:
        self.rows.append(list(cells))

    def table(self) -> str:
        out = format_table(f"{self.experiment}: {self.title}", self.headers, self.rows)
        if self.notes:
            out += "\n" + "\n".join(f"note: {n}" for n in self.notes)
        return out

    def to_json(self) -> str:
        """The rows as deterministic JSON: sorted keys, indent 2,
        non-finite cells (a hung run's ``inf``) as ``null``."""
        payload = {
            "experiment": self.experiment,
            "title": self.title,
            "headers": self.headers,
            "rows": [
                [None if isinstance(c, float) and not math.isfinite(c) else c
                 for c in row]
                for row in self.rows
            ],
            "notes": self.notes,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def column(self, header: str) -> list[Any]:
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]

    def lookup(self, **key: Any) -> list[list[Any]]:
        """Rows whose named columns equal the given values."""
        idxs = {self.headers.index(h): v for h, v in key.items()}
        return [r for r in self.rows if all(r[i] == v for i, v in idxs.items())]

    def value(self, value_col: str, **key: Any) -> Any:
        """The single ``value_col`` cell of the row matching ``key``."""
        rows = self.lookup(**key)
        if len(rows) != 1:
            raise KeyError(f"{self.experiment}: key {key} matched {len(rows)} rows")
        return rows[0][self.headers.index(value_col)]


@dataclass(frozen=True)
class Claim:
    """One shape claim of the paper: ``check`` asserts it on the result of
    its experiment's driver run with ``knobs`` (driver knob values, e.g.
    ``{"machine": "stampede2"}``; empty for the driver's defaults).

    ``failing`` is non-empty for a claim recorded as not holding at
    ``small`` scale, and says why; the registry loop expects it to fail.
    """

    name: str
    check: Callable[[ExperimentResult], None]
    knobs: dict[str, str] = field(default_factory=dict)
    failing: str = ""


def fmt_bytes(nbytes: int) -> str:
    if nbytes >= 1 << 20:
        return f"{nbytes >> 20}M"
    if nbytes >= 1 << 10:
        return f"{nbytes >> 10}K"
    return str(nbytes)


def adapt_fastest_at_largest(res: ExperimentResult) -> None:
    """ADAPT within 2% of the fastest library at the largest node count, for
    both operations (rows: operation, library, nodes, ranks, mean_ms)."""
    hi = max(r[2] for r in res.rows)
    for operation in ("bcast", "reduce"):
        at_hi = {r[1]: r[4] for r in res.lookup(operation=operation, nodes=hi)}
        assert at_hi["OMPI-adapt"] <= min(at_hi.values()) * 1.02, (operation, at_hi)
