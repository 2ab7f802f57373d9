"""The registry loop (``benchmarks/bench_experiments.py``) and its claims.

The loop itself runs here through ``pytester`` on a one-entry registry, so
these tests show the gate can go red: a claim that does not hold fails
under its own name, a claim registered as failing that holds fails strict,
and a golden one byte off fails with a diff. The rest checks the real
registry without simulating: claim names and knob sets, one committed
golden per cell, and every claim against the golden it would be checked
on (the loop re-simulates; this reads the committed tables).
"""

from __future__ import annotations

import json
import pathlib
import runpy

import pytest

from repro.cli import build_parser
from repro.harness import experiments
from repro.harness.experiments import (
    DRIVER_KNOBS,
    EXPERIMENTS,
    Claim,
    Experiment,
    ExperimentResult,
)

pytest_plugins = ["pytester"]

LOOP = pathlib.Path(__file__).parents[1] / "benchmarks" / "bench_experiments.py"
GOLDENS = LOOP.parent / "goldens"
LOOP_NS = runpy.run_path(str(LOOP))


def _toy_result() -> ExperimentResult:
    res = ExperimentResult("Toy", "two libraries", ["library", "mean_ms"])
    res.add("OMPI-adapt", 1.0)
    res.add("OMPI-default", 2.0)
    return res


def _adapt_fastest(res: ExperimentResult) -> None:
    times = dict(res.rows)
    assert times["OMPI-adapt"] <= min(times.values()), times


def _adapt_over_2x(res: ExperimentResult) -> None:
    times = dict(res.rows)
    assert times["OMPI-adapt"] * 2 < times["OMPI-default"], times


def _run_toy_loop(pytester, monkeypatch, *claims: Claim, golden: str | None = None):
    """Run the loop over a registry holding one ``toy`` experiment whose
    golden is ``golden`` (default: exactly what the loop will print)."""

    def run(scale, n_jobs, cache):
        return _toy_result()

    monkeypatch.setattr(experiments, "EXPERIMENTS",
                        {"toy": Experiment("toy", run, claims=claims)})
    loop = pytester.path / LOOP.name
    loop.write_text(LOOP.read_text())
    (pytester.path / "goldens").mkdir()
    (pytester.path / "goldens" / "toy.txt").write_text(
        golden if golden is not None else _toy_result().table() + "\n")
    return pytester.runpytest_inprocess(str(loop), "-p", "no:cacheprovider")


def test_broken_claim_fails_under_its_name(pytester, monkeypatch):
    result = _run_toy_loop(
        pytester, monkeypatch,
        Claim("toy: ADAPT fastest", _adapt_fastest),
        Claim("toy: ADAPT over 2x faster", _adapt_over_2x),
    )
    result.assert_outcomes(passed=2, failed=1)
    result.stdout.fnmatch_lines(
        ["FAILED *::test_claim[[]toy: ADAPT over 2x faster[]]*"])


def test_claim_registered_as_failing_goes_red_when_it_holds(pytester, monkeypatch):
    result = _run_toy_loop(
        pytester, monkeypatch,
        Claim("toy: ADAPT fastest", _adapt_fastest, failing="recorded"),
        Claim("toy: ADAPT over 2x faster", _adapt_over_2x, failing="recorded"),
    )
    result.assert_outcomes(passed=1, failed=1, xfailed=1)
    result.stdout.fnmatch_lines(
        ["FAILED *::test_claim[[]toy: ADAPT fastest[]]*XPASS(strict)*"])


def test_one_byte_golden_change_is_a_diff(pytester, monkeypatch):
    golden = _toy_result().table().replace("2.0", "2.1") + "\n"
    result = _run_toy_loop(pytester, monkeypatch,
                           Claim("toy: ADAPT fastest", _adapt_fastest),
                           golden=golden)
    result.assert_outcomes(passed=1, failed=1)
    result.stdout.fnmatch_lines([
        "*-OMPI-default | 2.1*",
        "*+OMPI-default | 2.0*",
        "*re-record with: python -m repro toy --scale small "
        "> benchmarks/goldens/toy.txt",
    ])


def _all_claims():
    return [(name, claim) for name, entry in EXPERIMENTS.items()
            for claim in entry.claims]


def test_claim_names_are_unique():
    names = [claim.name for _, claim in _all_claims()]
    assert len(names) == len(set(names))


def test_claim_knobs_are_ones_the_experiment_accepts():
    parser = build_parser()
    for name, claim in _all_claims():
        assert set(claim.knobs) <= set(DRIVER_KNOBS), claim.name
        flags = [f for k, v in claim.knobs.items() for f in (f"--{k}", v)]
        # argparse exits on a flag the subcommand lacks or a bad choice.
        args = parser.parse_args([name, *flags])
        assert {k: getattr(args, k) for k in claim.knobs} == claim.knobs


def test_every_cell_has_exactly_its_goldens():
    expected = {fname for cell in LOOP_NS["CELLS"]
                for fname in LOOP_NS["record_commands"](*cell)}
    assert expected == {p.name for p in GOLDENS.iterdir()}


def _cell(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return None if text == "None" else text


def _golden_result(name: str, knobs: tuple) -> ExperimentResult:
    """The committed golden of one cell as an ExperimentResult: from its
    JSON where the entry has one, else parsed back from the table."""
    base = GOLDENS / LOOP_NS["stem"](name, knobs)
    if base.with_suffix(".json").exists():
        return ExperimentResult(**json.loads(base.with_suffix(".json").read_text()))
    title, _, header, _, *lines = base.with_suffix(".txt").read_text().splitlines()
    res = ExperimentResult(*title.split(": ", 1), [h.strip() for h in header.split(" | ")])
    for line in lines:
        if line.startswith("note: "):
            res.notes.append(line[len("note: "):])
        else:
            res.add(*(_cell(c.strip()) for c in line.split(" | ")))
    return res


@pytest.mark.parametrize("name, claim", _all_claims(),
                         ids=[claim.name for _, claim in _all_claims()])
def test_claim_verdict_on_its_golden(name, claim):
    res = _golden_result(name, tuple(claim.knobs.items()))
    if claim.failing:
        with pytest.raises(AssertionError):
            claim.check(res)
    else:
        claim.check(res)
