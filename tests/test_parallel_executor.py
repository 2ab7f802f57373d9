"""Tests for the parallel sweep executor, the result cache, and the
determinism guarantee: ``--jobs N`` produces byte-identical tables."""

from __future__ import annotations

import inspect
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import repro
from repro.faults import FaultPlan, LossSpec
from repro.harness.experiments import EXPERIMENTS
from repro.parallel import (
    ResultCache,
    SimJob,
    execute_job,
    result_from_dict,
    run_jobs,
)
from repro.parallel.jobs import READS, WORLD_FIELDS
from repro.relaxed import QuorumPolicy


class TestSimJob:
    def test_cache_key_stable(self):
        a = SimJob(library="OMPI-adapt", nbytes=1 << 20)
        b = SimJob(library="OMPI-adapt", nbytes=1 << 20)
        assert a == b
        assert a.cache_key() == b.cache_key()

    def test_cache_key_differs_per_field(self):
        base = SimJob()
        variants = [
            SimJob(nbytes=base.nbytes * 2),
            SimJob(seed=base.seed + 1),
            SimJob(operation="reduce"),
            SimJob(library="Intel MPI"),
            SimJob(iterations=base.iterations + 1),
            SimJob(fault_plan=FaultPlan(losses=[LossSpec(drop=0.01)], seed=2)),
        ]
        keys = {base.cache_key()} | {v.cache_key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_list_noise_ranks_canonicalized(self):
        assert (
            SimJob(noise_ranks=[3, 5]).cache_key()
            == SimJob(noise_ranks=(3, 5)).cache_key()
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SimJob(kind="mystery")
        with pytest.raises(ValueError):
            SimJob(algo_family="intel-topo-bcast")  # variant missing
        with pytest.raises(ValueError):
            SimJob(algo_family="no-such-family", algo_variant="x")

    @pytest.mark.parametrize("kind", sorted(READS))
    def test_world_size_and_iterations_must_be_positive(self, kind):
        # nranks=0 used to run the default world (cached under nranks=0),
        # and iterations=0 died with an IndexError inside the runner.
        with pytest.raises(ValueError, match="nranks must be at least 1"):
            SimJob(kind=kind, nranks=0)
        with pytest.raises(ValueError, match="iterations must be at least 1"):
            SimJob(kind=kind, iterations=0)
        SimJob(kind=kind, nranks=1, iterations=1)

    def test_reads_table_names_runner_keywords(self):
        from repro.apps.asp import run_asp
        from repro.apps.sgd import run_sgd
        from repro.harness.runner import run_collective

        runners = {"collective": run_collective, "asp": run_asp, "sgd": run_sgd}
        assert set(READS) == set(runners)
        for kind, reads in READS.items():
            params = inspect.signature(runners[kind]).parameters
            for field, kw in reads.items():
                assert kw in params, f"{kind}: {field} -> {kw}"
            # One field per keyword, but for the algorithm pair that the
            # worker resolves to one ``custom_algorithm``.
            kws = [kw for kw in reads.values() if kw != "custom_algorithm"]
            assert len(kws) == len(set(kws)), kind
        assert READS["collective"]["algo_family"] == "custom_algorithm"
        assert READS["collective"]["algo_variant"] == "custom_algorithm"
        # Every field is a world field or read by some kind: none is dead.
        read = set(WORLD_FIELDS).union(*READS.values())
        assert {f.name for f in fields(SimJob)} <= read

    @pytest.mark.parametrize("field, value", [
        ("row_bytes", 5), ("compute_per_iteration", 1.0),
    ])
    def test_collective_rejects_unread_fields(self, field, value):
        with pytest.raises(
            ValueError, match=f"collective jobs do not read '{field}'"
        ):
            SimJob(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("observe", "metrics"), ("recover", True), ("gpu", True),
        ("mode", "sequential"), ("library", "Intel MPI"),
        # The sgd kind always runs an allreduce; ``quorum`` picks which.
        # ("bcast" is the field's default, so it is not a rejection case.)
        ("operation", "allreduce"), ("row_bytes", 5),
    ])
    def test_sgd_rejects_unread_fields(self, field, value):
        with pytest.raises(ValueError, match=f"sgd jobs do not read '{field}'"):
            SimJob(kind="sgd", **{field: value})
        # The fields the sgd kind does read still construct.
        SimJob(kind="sgd", library="OMPI-adapt", noise_percent=5,
               quorum=QuorumPolicy(quorum=0.75), sanitize=True,
               time_limit=0.5,
               fault_plan=FaultPlan(losses=[LossSpec(drop=0.01)]))

    @pytest.mark.parametrize("field, value", [
        ("noise_percent", 5.0), ("noise_ranks", (1,)), ("sanitize", True),
        ("fault_plan", FaultPlan(losses=[LossSpec(drop=0.01)])),
        ("time_limit", 1.0),
        pytest.param("quorum", QuorumPolicy(quorum=0.75), id="quorum-0.75"),
        ("observe", "trace"), ("algo_family", "intel-topo-bcast"),
        ("seed", 3), ("nbytes", 1), ("operation", "reduce"),
    ])
    def test_asp_rejects_unread_fields(self, field, value):
        kw = {field: value}
        if field == "algo_family":
            kw["algo_variant"] = "Intel-topo-binomial"
        with pytest.raises(ValueError, match=f"asp jobs do not read '{field}'"):
            SimJob(kind="asp", **kw)
        SimJob(kind="asp", library="Intel MPI", iterations=24, row_bytes=1024)


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = SimJob(machine="testbox", nbytes=4096, iterations=1)
        assert cache.get(job) is None
        result = execute_job(job)
        cache.put(job, result)
        assert cache.get(job) == result
        assert cache.stats() == {"hits": 1, "misses": 1}
        assert len(cache) == 1

    def test_roundtrip_preserves_inf_times(self, tmp_path):
        # A hung schedule reports inf; the cache must not corrupt it.
        cache = ResultCache(tmp_path)
        job = SimJob(machine="testbox")
        result = execute_job(job)
        result["times"] = [float("inf"), 1.25]
        cache.put(job, result)
        back = cache.get(job)
        assert math.isinf(back["times"][0]) and back["times"][1] == 1.25

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = SimJob(machine="testbox")
        cache.put(job, {"kind": "collective"})
        cache.path_for(job).write_text("{not json", encoding="utf-8")
        assert cache.get(job) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for nbytes in (1024, 2048, 4096):
            cache.put(SimJob(machine="testbox", nbytes=nbytes), {"kind": "collective"})
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_cache_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert ResultCache().root == tmp_path / "envcache"


#: Prints the cache path of a fixed SimJob, after checking that importing
#: the package did not hash its source.
_KEY_SCRIPT = """
import repro
from repro.parallel import ResultCache, SimJob
from repro.parallel.cache import source_digest

assert source_digest.cache_info().currsize == 0, "source hashed at import"
cache = ResultCache("store")
print(repro.__file__)
print(cache.path_for(SimJob(machine="testbox", nbytes=4096)))
"""


class TestSourceDerivedKey:
    """The cache key follows the code: any source edit misses."""

    def _paths(self, pkg_root):
        env = {**os.environ, "PYTHONPATH": str(pkg_root)}
        out = subprocess.run(
            [sys.executable, "-c", _KEY_SCRIPT], env=env, cwd=pkg_root,
            capture_output=True, text=True, check=True,
        ).stdout.split()
        assert out[0].startswith(str(pkg_root))  # the copy, not the tree
        return out[1:]

    def test_source_edit_changes_every_key(self, tmp_path):
        pkg = tmp_path / "pkg"
        shutil.copytree(Path(repro.__file__).parent, pkg / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        before = self._paths(pkg)
        assert self._paths(pkg) == before  # untouched sources: same keys
        with open(pkg / "repro" / "sim" / "engine.py", "ab") as fh:
            fh.write(b"#")  # a one-byte comment
        after = self._paths(pkg)
        assert len(after) == 1
        assert after != before

    def test_uncached_runs_never_hash_the_source(self, monkeypatch):
        from repro.parallel import cache as cache_mod

        def boom():
            raise AssertionError("source hashed without a cache")

        monkeypatch.setattr(cache_mod, "source_digest", boom)
        run_jobs([SimJob(machine="testbox", nbytes=1024, iterations=1)],
                 n_jobs=1, cache=None)


def _tiny_jobs(n=3):
    return [
        SimJob(machine="testbox", nbytes=1024 * (i + 1), iterations=1)
        for i in range(n)
    ]


class TestRunJobs:
    def test_results_in_input_order(self):
        jobs = _tiny_jobs()
        results = run_jobs(jobs, n_jobs=1)
        # Larger transfers take longer: order must match input, not runtime.
        means = [r.mean_time for r in results]
        assert means == sorted(means)

    def test_progress_callback_counts_every_job(self):
        seen = []
        run_jobs(_tiny_jobs(), n_jobs=1, progress=lambda d, t: seen.append((d, t)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_cache_hit_skips_execution(self, tmp_path):
        cache = ResultCache(tmp_path)
        [real] = run_jobs(_tiny_jobs(1), n_jobs=1, cache=cache)
        # Poison the cached copy; a hit must return the poisoned value,
        # proving the job was not re-executed.
        job = _tiny_jobs(1)[0]
        poisoned = execute_job(job)
        poisoned["times"] = [99.0]
        cache.put(job, poisoned)
        [again] = run_jobs([job], n_jobs=1, cache=cache)
        assert again.times == [99.0] and real.times != [99.0]
        assert cache.hits == 1

    def test_parallel_writes_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = _tiny_jobs(2)
        run_jobs(jobs, n_jobs=2, cache=cache)
        assert len(cache) == 2
        # Second sweep is pure hits.
        run_jobs(jobs, n_jobs=2, cache=cache)
        assert cache.hits == 2

    def test_parallel_matches_sequential_roundtrip(self):
        jobs = _tiny_jobs(4)
        seq = [r.to_dict() for r in run_jobs(jobs, n_jobs=1)]
        par = [r.to_dict() for r in run_jobs(jobs, n_jobs=2)]
        assert seq == par

    def test_invalid_n_jobs(self):
        with pytest.raises(ValueError):
            run_jobs(_tiny_jobs(1), n_jobs=0)

    def test_invalid_repro_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError, match="n_jobs must be >= 1"):
            run_jobs(_tiny_jobs(1))


class TestResultWireFormat:
    def test_collective_roundtrip(self):
        d = execute_job(SimJob(machine="testbox", iterations=2))
        json.dumps(d)  # must be pure JSON
        res = result_from_dict(d)
        assert res.to_dict() == {k: v for k, v in d.items() if k != "kind"}

    def test_asp_roundtrip(self):
        d = execute_job(SimJob(kind="asp", machine="testbox", iterations=2))
        assert d["kind"] == "asp"
        res = result_from_dict(d)
        assert res.total_runtime == pytest.approx(d["total_runtime"])


#: A reduced grid per registered experiment, keeping the suite fast; figq,
#: metrics and ablations have no knob that shrinks their grid, so they run
#: in full (ablations runs in process at any worker count).
_REDUCED_GRIDS = {
    "fig7": dict(msg=256 << 10, max_iters=12, probe_iters=4),
    "fig8": dict(sizes=[256 << 10]),
    "fig9": dict(sizes=[256 << 10, 1 << 20]),
    "fig10": dict(nodes=[1]),
    "fig11a": dict(sizes=[1 << 20]),
    "fig11b": dict(nodes=[1, 2]),
    "table1": dict(iterations=4),
    "figx": dict(operations=("bcast",), drops=(0.0, 0.01)),
    "figxr": dict(operations=("bcast",)),
    "figxp": dict(operations=("bcast",)),
    "figq": {},
    "metrics": {},
    "ablations": {},
    # A hung comparator (inf), an unrecoverable primary and a quorum run.
    "chaos": dict(cells=("lossy-kill", "kill-gather", "quorum-bcast")),
}


class TestExperimentsByteIdentical:
    """The acceptance property: every registered experiment's output is
    byte-identical at any worker count."""

    def test_every_experiment_has_a_grid(self):
        assert set(_REDUCED_GRIDS) == set(EXPERIMENTS)

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_json_identical_across_workers(self, name):
        entry, grid = EXPERIMENTS[name], _REDUCED_GRIDS[name]
        seq = entry.run(scale="small", n_jobs=1, **grid)
        par = entry.run(scale="small", n_jobs=2, **grid)
        assert seq.to_json() == par.to_json()
        assert seq.table() == par.table()
        if name in ("figx", "chaos"):
            # The hung comparator's inf survived both paths identically.
            assert any(math.isinf(c) for row in par.rows for c in row
                       if isinstance(c, float))

    def test_fig09_cached_rerun_identical(self, tmp_path):
        from repro.harness.experiments import fig09_msgsize

        cache = ResultCache(tmp_path)
        sizes = [256 << 10]
        cold = fig09_msgsize.run("cori", "small", "bcast", sizes, cache=cache)
        assert cache.misses == len(cold.rows)
        warm = fig09_msgsize.run("cori", "small", "bcast", sizes, cache=cache)
        assert cache.hits == len(cold.rows)
        assert cold.table() == warm.table()
