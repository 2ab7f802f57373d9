"""Cache-path behavior: the environment kill-switch, corrupt-entry
fallback, and the guarantee that ``--no-cache`` bypasses reads *and*
writes."""

from __future__ import annotations

import json

from repro.cli import _parallel_kwargs, build_parser, main
from repro.parallel import ResultCache, SimJob, execute_job, run_jobs
from repro.relaxed import QuorumPolicy


def tiny_job(**kw):
    kw.setdefault("machine", "testbox")
    kw.setdefault("nbytes", 64 << 10)
    kw.setdefault("iterations", 1)
    return SimJob(**kw)


class TestEnvKillSwitch:
    def test_repro_no_cache_disables_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        args = build_parser().parse_args(["fig9"])
        assert _parallel_kwargs(args)["cache"] is None

    def test_zero_and_empty_keep_cache(self, monkeypatch):
        for value in ("", "0"):
            monkeypatch.setenv("REPRO_NO_CACHE", value)
            args = build_parser().parse_args(["fig9"])
            assert isinstance(_parallel_kwargs(args)["cache"], ResultCache)

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "0")
        args = build_parser().parse_args(["fig9", "--no-cache"])
        assert _parallel_kwargs(args)["cache"] is None


class TestCorruptEntryFallback:
    def test_truncated_json_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = tiny_job()
        [real] = run_jobs([job], n_jobs=1, cache=cache)
        path = cache.path_for(job)
        full = path.read_text(encoding="utf-8")
        path.write_text(full[: len(full) // 2], encoding="utf-8")  # torn write
        [again] = run_jobs([job], n_jobs=1, cache=cache)
        assert again.times == real.times
        # The recompute healed the entry: it parses and hits again.
        assert json.loads(path.read_text(encoding="utf-8"))["times"]

    def test_garbage_json_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = tiny_job()
        run_jobs([job], n_jobs=1, cache=cache)
        cache.path_for(job).write_text("]]{{not json", encoding="utf-8")
        [res] = run_jobs([job], n_jobs=1, cache=cache)
        assert res.times  # recomputed, not crashed

    def test_wrong_schema_payload_roundtrips_as_stored(self, tmp_path):
        # A *parseable* entry is trusted (content-addressing means the key
        # already encodes schema + version); this documents that contract.
        cache = ResultCache(tmp_path)
        job = tiny_job()
        poisoned = execute_job(job)
        poisoned["times"] = [42.0]
        cache.put(job, poisoned)
        [res] = run_jobs([job], n_jobs=1, cache=cache)
        assert res.times == [42.0]


class TestStalenessFieldsRoundTrip:
    """The DESIGN.md S25 provenance fields (``contributed_ranks``/
    ``staleness_epoch``/``late_merges``) must survive the wire and the
    cache byte-identically — they feed figq's accounting columns."""

    def quorum_job(self, **policy):
        """The allreduce_quorum job; ``policy`` overrides QuorumPolicy
        fields (quorum 0.75 by default)."""
        from repro.faults.plan import FaultPlan

        policy.setdefault("quorum", 0.75)
        return tiny_job(
            operation="allreduce_quorum", quorum=QuorumPolicy(**policy),
            nranks=16, nodes=2, nbytes=16 << 10, iterations=3, sanitize=True,
            fault_plan=FaultPlan.stall_sweep(
                16, victims=2, duration=6e-3, start=1e-4, seed=9),
        )

    def sgd_job(self):
        from repro.faults.plan import FaultPlan

        return tiny_job(
            kind="sgd", nranks=16, nodes=2, nbytes=16 << 10, iterations=4,
            compute_per_iteration=5e-4,
            quorum=QuorumPolicy(quorum=0.75, staleness_window=2),
            sanitize=True,
            fault_plan=FaultPlan.stall_sweep(
                16, victims=1, duration=1.1e-3, start=5e-4, seed=7),
        )

    def test_collective_provenance_identical_across_jobs_and_cache(
        self, tmp_path
    ):
        job = self.quorum_job()
        cache = ResultCache(tmp_path)
        [miss] = run_jobs([job], n_jobs=1, cache=cache)
        # The run produced real provenance worth protecting.
        assert miss.staleness_epoch == 3
        assert miss.contributed_ranks and len(miss.contributed_ranks) < 16
        assert miss.late_merges
        [hit] = run_jobs([job], n_jobs=1, cache=cache)
        [multi] = run_jobs([job], n_jobs=2, cache=None)
        assert hit.to_dict() == miss.to_dict()
        assert multi.to_dict() == miss.to_dict()
        # late_merges tuples normalize to lists on the wire; modulo the
        # worker's dispatch tag, the cached entry re-encodes exactly.
        stored = json.loads(cache.path_for(job).read_text(encoding="utf-8"))
        assert stored.pop("kind") == "collective"
        assert stored == miss.to_dict()

    def test_sgd_accounting_identical_across_jobs_and_cache(self, tmp_path):
        job = self.sgd_job()
        cache = ResultCache(tmp_path)
        [miss] = run_jobs([job], n_jobs=1, cache=cache)
        assert miss.on_time_fraction < 1.0  # the lag plan actually bit
        assert miss.late_merged + miss.discarded > 0
        [hit] = run_jobs([job], n_jobs=1, cache=cache)
        [multi] = run_jobs([job], n_jobs=2, cache=None)
        assert hit.to_dict() == miss.to_dict()
        assert multi.to_dict() == miss.to_dict()

    def test_quorum_knobs_are_cache_key_material(self):
        base = self.quorum_job()
        assert base.payload()["quorum"] == {
            "quorum": 0.75, "min_quorum": 1, "staleness_window": 1,
        }
        assert base.cache_key() != self.quorum_job(quorum=0.9).cache_key()
        assert base.cache_key() != self.quorum_job(
            staleness_window=2).cache_key()
        assert base.cache_key() != self.quorum_job(min_quorum=4).cache_key()


class TestNoCacheBypassesReadsAndWrites:
    ARGV = ["run", "--machine", "cori", "--nodes", "2", "--nbytes", "65536",
            "--iterations", "1"]

    def test_no_cache_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        assert main(self.ARGV + ["--no-cache"]) == 0
        capsys.readouterr()
        assert not (tmp_path / "c").exists()

    def test_no_cache_ignores_poisoned_entries(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        assert main(self.ARGV) == 0  # warm the cache
        honest = capsys.readouterr().out
        # Poison every cached entry; --no-cache must not read them.
        cache = ResultCache()
        poisoned = 0
        for entry in cache.root.glob("*/*.json"):
            d = json.loads(entry.read_text(encoding="utf-8"))
            d["times"] = [1e9]
            entry.write_text(json.dumps(d), encoding="utf-8")
            poisoned += 1
        assert poisoned > 0
        assert main(self.ARGV + ["--no-cache"]) == 0
        assert capsys.readouterr().out == honest
        # Without the flag the poison comes back — proving reads do happen
        # on the default path (and that --no-cache skipped them above).
        assert main(self.ARGV) == 0
        assert capsys.readouterr().out != honest
