"""Tests for the command-line interface."""

import dataclasses
import json

import pytest

from repro.cli import build_parser, main
from repro.harness.experiments import EXPERIMENTS, ExperimentResult

#: Registered experiments that take a knob, by knob.
_WITH_MACHINE = [n for n, e in EXPERIMENTS.items() if "machine" in e.knobs]
_WITH_JSON = [n for n, e in EXPERIMENTS.items() if "json" in e.knobs]


class TestCli:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "cori" in out and "psg" in out and "GPUs" in out

    def test_tree(self, capsys):
        assert main(["tree", "--nodes", "2", "--sockets", "2", "--cores", "2"]) == 0
        out = capsys.readouterr().out
        assert "P0 -> " in out
        assert "inter-node" in out

    def test_tree_nonzero_root(self, capsys):
        main(["tree", "--root", "5"])
        out = capsys.readouterr().out
        assert "root 5" in out

    def test_run_small(self, capsys):
        assert main([
            "run", "--library", "OMPI-adapt", "--nbytes", "262144",
            "--machine", "cori", "--nodes", "2", "--iterations", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "OMPI-adapt" in out and "mean=" in out

    def test_run_gpu(self, capsys):
        main([
            "run", "--machine", "psg", "--nodes", "1", "--gpu",
            "--nbytes", "1048576", "--iterations", "1",
        ])
        assert "OMPI-adapt" in capsys.readouterr().out

    def test_run_with_noise(self, capsys):
        main([
            "run", "--machine", "cori", "--nodes", "2", "--nbytes", "1048576",
            "--iterations", "4", "--noise", "5",
        ])
        assert "noise= 5.0%" in capsys.readouterr().out

    def test_unknown_machine_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--machine", "summit"])

    def test_parser_has_all_experiments(self):
        parser = build_parser()
        for cmd, entry in EXPERIMENTS.items():
            args = parser.parse_args([cmd])
            assert args.command == cmd
            if "operation" in entry.knobs:
                args = parser.parse_args([cmd, "--operation", "reduce"])
                assert args.operation == "reduce"

    def test_table1_runs(self, capsys):
        # The cheapest full experiment: exercise the experiment dispatch path.
        assert main(["table1", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "OMPI-adapt" in out

    def test_parallel_flags_parse_everywhere(self):
        parser = build_parser()
        for cmd in [*EXPERIMENTS, "run"]:
            args = parser.parse_args([cmd, "--jobs", "3", "--no-cache"])
            assert args.jobs == 3 and args.no_cache

    def test_trace_and_metrics_parse(self):
        parser = build_parser()
        args = parser.parse_args(["trace", "--chrome", "t.json",
                                  "--jobs", "2", "--no-cache"])
        assert args.command == "trace" and args.chrome == "t.json"
        assert args.jobs == 2 and args.no_cache
        args = parser.parse_args(["metrics", "--scale", "small", "--json", "m.json"])
        assert args.command == "metrics" and args.json == "m.json"

    def test_trace_writes_valid_json(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["trace", "--machine", "testbox", "--nbytes", "65536",
                     "--iterations", "1", "--chrome", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        from repro.obs import validate_chrome_trace

        assert validate_chrome_trace(out.read_text()) == []

    def test_run_uses_cache(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = ["run", "--machine", "cori", "--nodes", "2",
                "--nbytes", "65536", "--iterations", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0  # warm: served from the cache
        assert capsys.readouterr().out == first
        assert any((tmp_path / "cache").glob("*/*.json"))

    def test_chaos_same_bytes_across_workers_and_cache(
        self, tmp_path, monkeypatch, capsys
    ):
        # The fault-free run is one job and the primary + comparator runs
        # one two-job batch, so REPRO_JOBS=2 really crosses a process.
        argv = ["chaos", "bcast", "--kill-rank", "5", "--nodes", "2"]
        outs = []
        for jobs, cache in (("1", "c1"), ("2", "c2"), ("2", "c2")):
            monkeypatch.setenv("REPRO_JOBS", jobs)
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / cache))
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        lines = outs[0].splitlines()
        table = ExperimentResult(
            "Chaos", "", [h.strip() for h in lines[2].split(" | ")],
            [[c.strip() for c in line.split(" | ")]
             for line in lines[4:] if not line.startswith("note: ")])
        assert table.column("outcome") == ["complete", "degraded", "hung"]
        assert table.value("mean_ms", run="comparator") == "inf"
        assert outs[0] == outs[1] == outs[2]  # the last run is all hits
        assert len(list((tmp_path / "c2").glob("*/*.json"))) == 3

    @pytest.mark.parametrize("partition, reason", [
        ("0-3|x", "bad --partition token 'x'"),
        ("0-7", "at least two non-empty"),
        ("0-3|4-6", "missing [7] of 8"),
        ("0-3|4-9", "must lie in [0, 8); got [8, 9]"),
        ("0-4|4-7", "disjoint; rank(s) [4] appear twice"),  # PartitionSpec's
    ])
    def test_chaos_rejects_a_bad_partition(self, partition, reason):
        argv = ["chaos", "bcast", "--nodes", "1", "--nranks", "8",
                "--nbytes", "4096", "--iterations", "1",
                "--partition", partition]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = str(exc.value)
        assert message.startswith("chaos: ") and reason in message

    def test_chaos_flags_without_an_operation_exit(self):
        # Without an operation chaos runs its registered grid, which the
        # fault flags cannot describe.
        with pytest.raises(SystemExit, match="^chaos: fault flags describe one cell"):
            main(["chaos", "--kill-rank", "5"])

    @pytest.mark.parametrize("argv", [
        ["run", "--nodes", "1", "--nbytes", "4096", "--iterations", "1"],
        ["chaos", "bcast", "--drop", "0.01"],
        ["trace", "--machine", "testbox", "--nbytes", "4096", "--chrome", "{tmp}"],
    ], ids=["run", "chaos", "trace"])
    def test_negative_seed_exits_with_one_line(self, argv, tmp_path):
        argv = [a.format(tmp=tmp_path / "t.json") for a in argv]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "-1"])
        assert str(exc.value) == (
            f"{argv[0]}: --seed must be a non-negative integer, got -1"
        )

    def test_bench_allocator_json(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_core.json"
        assert main(["bench", "--section", "allocator",
                     "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "allocator" in out and "speedup" in out
        import json

        data = json.loads(out_path.read_text())
        assert data["allocator"]["rounds_per_sec"] > 0
        assert data["allocator"]["reference_rounds_per_sec"] > 0

    def test_bench_cold_json(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_core.json"
        assert main(["bench", "--section", "cold", "--scale", "small",
                     "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("numpy not loaded") == 2 and "faulted" in out
        cold = json.loads(out_path.read_text())["cold"]
        for start in (cold, cold["faulted"]):
            assert start["starts"] == 5 and start["ref_loops"] > 0
            assert start["peak_rss_mb"] > 0 and start["numpy_loaded"] is False
            assert start["repro_modules"] > 0

    def test_bench_contended_counts_route_builds(self):
        from repro.harness import bench
        from repro.network.fabric import Fabric

        build = Fabric._route_uncached
        result = bench.bench_contended((32,))
        assert Fabric._route_uncached is build  # the counter is removed
        [entry] = result["entries"]
        # Two sockets: four endpoint signatures for 992 rank pairs.
        assert (entry["events"], entry["route_builds"]) == (6046, 4)
        assert entry["sim_time_ms"] == 0.069591
        header = {"repro_version": "v", "python": "3", "cpu_count": 1,
                  "scale": "small"}
        assert "4 route builds" in bench.render({**header, "contended": result})

    def test_bench_json_keeps_unmeasured_sections(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "BENCH_core.json"
        engine = {"events": 1, "events_per_ref": 2, "chain": {}}
        out_path.write_text(json.dumps({"engine": engine, "scale": "paper"}))
        assert main(["bench", "--scale", "32", "--section", "scale",
                     "--json", str(out_path)]) == 0
        assert "gc 1/0/0" in capsys.readouterr().out
        data = json.loads(out_path.read_text())
        assert data["engine"] == engine  # the gate's baseline survives
        assert data["scale"] == "small"  # the header is the new run's
        (entry,) = data["scale_ranks"]["entries"]
        for cell in entry["collectives"].values():
            # One young collection frees each run's world, and nothing else.
            assert cell["gc_collections"] == [1, 0, 0]

    @pytest.mark.parametrize("scale", ["0", "0,16", "-4", "x,16"])
    def test_bench_rejects_bad_rank_list(self, scale):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--section", "scale", f"--scale={scale}"])
        assert "comma-separated rank list" in str(exc.value.code)
        assert repr(scale) in str(exc.value.code)

    def test_profile_smoke(self, capsys):
        assert main(["profile", "--machine", "cori", "--nodes", "2",
                     "--nbytes", "65536", "--iterations", "1",
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "repro.sim" in out and "top 3 functions" in out

    def test_profile_experiment_smoke(self, capsys):
        assert main(["profile", "--experiment", "table1", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "profile: table1 --scale small" in out
        assert "top 3 functions" in out

    @pytest.mark.parametrize("experiment", _WITH_MACHINE)
    def test_profile_experiment_rejects_other_machines(self, experiment, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--experiment", experiment, "--machine", "fattree"])
        assert exc.value.code == 2
        assert "cori or stampede2" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", _WITH_JSON)
    def test_json_writes_null_for_inf(self, experiment, tmp_path,
                                      monkeypatch, capsys):
        def canned(**kw):
            res = ExperimentResult("Figure T", "canned", ["case", "mean_ms"])
            res.add("hung", float("inf"))
            res.add("ok", 1.5)
            return res

        entry = dataclasses.replace(EXPERIMENTS[experiment], run=canned)
        monkeypatch.setitem(EXPERIMENTS, experiment, entry)
        path = tmp_path / "out.json"
        assert main([experiment, "--no-cache", "--json", str(path)]) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        text = path.read_text()
        assert json.loads(text)["rows"] == [["hung", None], ["ok", 1.5]]
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"
