"""Every registered experiment against its committed golden and its claims.

A grid over :data:`repro.harness.experiments.EXPERIMENTS`: each
(experiment, knob set) cell runs its driver once, at ``--scale small``, with
no result cache and two worker processes. ``test_golden`` compares what
``python -m repro <name> [--machine M] [--operation O] --scale small``
prints, plus the ``--json`` file for entries with that knob, byte for byte
against ``benchmarks/goldens/``. ``test_claim`` checks each registered shape
claim on the same result. A claim registered as failing is a strict xfail:
the grid goes red if it starts to hold.

Goldens are recorded at the CLI's default single worker, so a match also
shows the output is identical at ``--jobs 1`` and ``--jobs 2``. Re-record a
golden by running the command a diff names. Each cell's table and JSON are
also left under pytest's temporary directory (``--basetemp DIR`` puts them
in ``DIR/figures/``).
"""

from __future__ import annotations

import difflib
import functools
import pathlib

import pytest

from repro.harness.experiments import EXPERIMENTS

GOLDENS = pathlib.Path(__file__).parent / "goldens"

#: (experiment name, driver knobs as a tuple of items): hashable for the cache.
CELLS = [
    (name, tuple(knobs.items()))
    for name, entry in EXPERIMENTS.items()
    for knobs in entry.knob_sets()
]


def stem(name: str, knobs: tuple) -> str:
    return "_".join([name, *(value for _, value in knobs)])


def record_commands(name: str, knobs: tuple) -> dict[str, str]:
    """Golden file name -> the command that records it."""
    cmd = " ".join(["python -m repro", name,
                    *(f"--{k} {v}" for k, v in knobs), "--scale small"])
    base = stem(name, knobs)
    out = {f"{base}.txt": f"{cmd} > benchmarks/goldens/{base}.txt"}
    if "json" in EXPERIMENTS[name].knobs:
        out[f"{base}.json"] = f"{cmd} --json benchmarks/goldens/{base}.json"
    return out


@functools.cache
def result(name: str, knobs: tuple):
    return EXPERIMENTS[name].run(scale="small", n_jobs=2, cache=None, **dict(knobs))


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("figures", numbered=False)


@pytest.mark.parametrize("name, knobs", CELLS, ids=[stem(*c) for c in CELLS])
def test_golden(name, knobs, out_dir):
    res = result(name, knobs)
    outputs = {".txt": res.table() + "\n", ".json": res.to_json()}
    diffs = []
    for fname, record in record_commands(name, knobs).items():
        path = GOLDENS / fname
        golden = path.read_text() if path.exists() else ""
        text = outputs[path.suffix]
        if text != golden:
            diffs += difflib.unified_diff(
                golden.splitlines(keepends=True), text.splitlines(keepends=True),
                str(path), "this run")
            diffs.append(f"re-record with: {record}\n")
    for suffix, text in outputs.items():
        (out_dir / f"{stem(name, knobs)}{suffix}").write_text(text)
    assert not diffs, "".join(diffs)


def _claim_param(name, claim):
    marks = [pytest.mark.xfail(strict=True, raises=AssertionError,
                               reason=claim.failing)] if claim.failing else []
    return pytest.param(name, claim, id=claim.name, marks=marks)


@pytest.mark.parametrize("name, claim", [
    _claim_param(name, claim)
    for name, entry in EXPERIMENTS.items()
    for claim in entry.claims
])
def test_claim(name, claim):
    claim.check(result(name, tuple(claim.knobs.items())))
