"""Golden-file tests for the Chrome-trace exporter.

The trace of a fixed-seed run is a *golden artifact*: rendering it twice —
or through any worker count — must produce identical bytes, and the
document must satisfy the trace-event schema (required keys, non-negative
durations, monotone timestamps per track).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import chrome_trace_events, render_chrome_json, validate_chrome_trace
from repro.parallel import SimJob, run_jobs


def trace_job(**kw):
    kw.setdefault("machine", "testbox")
    kw.setdefault("operation", "bcast")
    kw.setdefault("nbytes", 256 << 10)
    kw.setdefault("iterations", 2)
    kw.setdefault("seed", 7)
    kw.setdefault("observe", "trace")
    return SimJob(**kw)


def render(result) -> str:
    return render_chrome_json(chrome_trace_events(result.obs))


class TestGoldenAcrossWorkers:
    def test_bytes_identical_jobs_1_vs_2(self):
        # Two jobs, so n_jobs=2 really spawns a pool (run_jobs runs a lone
        # pending job in-process whatever the worker count).
        jobs = [trace_job(seed=7), trace_job(seed=8)]
        par = run_jobs(jobs, n_jobs=2)
        for job, res in zip(jobs, par):
            [seq] = run_jobs([job], n_jobs=1)
            assert render(res) == render(seq)
            assert res.obs == seq.obs

    def test_bytes_identical_through_cli(self, tmp_path, capsys):
        out1 = tmp_path / "j1.json"
        out2 = tmp_path / "j2.json"
        argv = ["trace", "--machine", "testbox", "--nbytes", "131072",
                "--iterations", "2", "--seed", "7", "--no-cache"]
        assert main(argv + ["--chrome", str(out1), "--jobs", "1"]) == 0
        assert main(argv + ["--chrome", str(out2), "--jobs", "2"]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_rendering_is_deterministic(self):
        [res] = run_jobs([trace_job()], n_jobs=1)
        assert render(res) == render(res)


class TestTraceSchema:
    @pytest.fixture(scope="class")
    def doc(self):
        [res] = run_jobs([trace_job()], n_jobs=1)
        return json.loads(render(res))

    def test_validates_clean(self, doc):
        assert validate_chrome_trace(json.dumps(doc)) == []

    def test_required_keys_on_complete_events(self, doc):
        required = {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert xs
        for e in xs:
            assert required <= set(e)
            assert e["dur"] >= 0 and e["ts"] >= 0

    def test_timestamps_monotone_per_track(self, doc):
        last: dict = {}
        for e in doc["traceEvents"]:
            if e["ph"] != "X":
                continue
            key = (e["pid"], e["tid"])
            assert e["ts"] >= last.get(key, 0.0), f"track {key} went backwards"
            last[key] = e["ts"]

    def test_metadata_names_every_track(self, doc):
        threads = {(e["pid"], e["tid"]) for e in doc["traceEvents"]
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        used = {(e["pid"], e["tid"]) for e in doc["traceEvents"]
                if e["ph"] == "X"}
        assert used <= threads

    def test_counters_at_end(self, doc):
        cs = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert cs, "expected counter events"
        max_x = max(e["ts"] + e["dur"] for e in doc["traceEvents"]
                    if e["ph"] == "X")
        for e in cs:
            assert e["ts"] >= max_x


class TestTraceThroughCache:
    def test_cached_trace_replays_identically(self, tmp_path, monkeypatch):
        from repro.parallel import ResultCache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        cache = ResultCache()
        job = trace_job()
        [cold] = run_jobs([job], n_jobs=1, cache=cache)
        [warm] = run_jobs([job], n_jobs=1, cache=cache)
        assert cache.hits == 1
        assert render(cold) == render(warm)
