"""Tests for the observability layer (repro.obs): the span recorder and its
wire format, metric distillation, critical-path analysis, the Chrome
trace-event exporter, and truncation surfacing.

The load-bearing property throughout: recording is retrospective, so an
observed run reports the exact times an unobserved one does.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.depgraph import DepEdge, DepGraph, OpNode
from repro.analysis.schedules import analyze_schedule
from repro.faults import FaultPlan, KillSpec, LossSpec
from repro.machine import small_test_machine
from repro.obs import (
    ObsRecorder,
    Span,
    chrome_trace_events,
    compute_metrics,
    critical_path,
    export_chrome_trace,
    render_chrome_json,
    validate_chrome_trace,
)
from repro.obs.metrics import merged_busy_time
from repro.obs.spans import CAT_FAULT
from repro.parallel import SimJob, execute_job
from repro.harness.runner import run_collective


SPEC = small_test_machine()


def observed_run(library="OMPI-adapt", observe="trace", **kw):
    kw.setdefault("nbytes", 256 << 10)
    kw.setdefault("iterations", 2)
    return run_collective(SPEC, 24, library, "bcast", observe=observe, **kw)


class TestObsRecorder:
    def test_add_and_categories(self):
        rec = ObsRecorder()
        rec.add("cpu", "work", ("rank", 0), 0.0, 1.0)
        rec.add("flow", "send 0->1", ("link", "n0.s0"), 0.5, 2.0,
                {"nbytes": 4096})
        assert len(rec.spans) == 2
        assert [s.cat for s in rec.by_category("cpu")] == ["cpu"]
        assert rec.spans[1].duration == pytest.approx(1.5)

    def test_tracks_ranks_before_links(self):
        rec = ObsRecorder()
        rec.add("flow", "x", ("link", "a"), 0, 1)
        rec.add("cpu", "work", ("rank", 2), 0, 1)
        rec.add("cpu", "work", ("rank", 0), 0, 1)
        assert rec.tracks() == [("rank", 0), ("rank", 2), ("link", "a")]

    def test_counters(self):
        rec = ObsRecorder()
        rec.count("segs")
        rec.count("segs", 3)
        assert rec.counters == {"segs": 4}

    def test_wire_roundtrip(self):
        rec = ObsRecorder()
        rec.add("send", "send -> 1", ("rank", 0), 0.25, 1.0, {"tag": 7})
        rec.add("flow", "copy", ("link", "l0"), 0.0, 0.5)
        rec.count("n", 2)
        d = rec.to_dict()
        json.dumps(d)  # must be pure JSON
        back = ObsRecorder.from_dict(d)
        assert [s.to_list() for s in back.spans] == [s.to_list() for s in rec.spans]
        assert back.counters == rec.counters
        assert back.to_dict() == d

    def test_cap_drops_and_truncates(self):
        rec = ObsRecorder(max_spans=2)
        for i in range(5):
            rec.add("cpu", "work", ("rank", 0), i, i + 1)
        assert len(rec.spans) == 2
        assert rec.dropped == 3
        assert rec.truncated

    def test_span_roundtrip(self):
        s = Span("wait", "waitall", ("rank", 3), 1.0, 2.5, {"n": 2})
        assert Span.from_list(s.to_list()).to_list() == s.to_list()


class TestTimelineNeutrality:
    """Observation must never perturb the simulated timeline."""

    @pytest.mark.parametrize("library, plan", [
        pytest.param("OMPI-adapt", None, id="OMPI-adapt"),
        pytest.param("OMPI-default-topo", None, id="OMPI-default-topo"),
        pytest.param("Cray MPI", None, id="Cray MPI"),
        # Fault paths record spans too (retransmits, the kill).
        pytest.param("OMPI-adapt", FaultPlan(
            losses=[LossSpec(drop=0.05)], kills=[KillSpec(rank=5, time=1e-4)],
            seed=7, detect_delay=1e-4,
        ), id="OMPI-adapt-lossy-kill"),
    ])
    def test_observed_times_identical(self, library, plan):
        plain = observed_run(library, observe=None, fault_plan=plan)
        traced = observed_run(library, observe="trace", fault_plan=plan)
        assert traced.times == plain.times
        assert traced.metrics is not None and traced.obs is not None
        faulted = any(row[0] == CAT_FAULT for row in traced.obs["spans"])
        assert faulted == (plan is not None)

    def test_observed_times_identical_under_noise(self):
        kw = dict(noise_percent=5.0, noise_ranks=[7], seed=3, iterations=4)
        plain = observed_run("OMPI-default-topo", observe=None, **kw)
        metered = observed_run("OMPI-default-topo", observe="metrics", **kw)
        assert metered.times == plain.times


class TestMetrics:
    def test_merged_busy_time(self):
        assert merged_busy_time([]) == 0.0
        assert merged_busy_time([(0, 1), (2, 3)]) == pytest.approx(2.0)
        # Overlaps and containment merge instead of double-counting.
        assert merged_busy_time([(0, 2), (1, 3), (1.5, 1.8)]) == pytest.approx(3.0)

    def test_adapt_has_zero_sync_wait(self):
        m = observed_run("OMPI-adapt", observe="metrics").metrics
        assert m["sync_wait_fraction"] == 0.0
        assert m["sync_wait_seconds"] == 0.0

    def test_waitall_schedule_has_sync_wait(self):
        m = observed_run("OMPI-default-topo", observe="metrics").metrics
        assert m["sync_wait_fraction"] > 0.0

    def test_link_metrics_populated(self):
        m = observed_run("OMPI-adapt", observe="metrics").metrics
        assert m["links"], "expected per-link rows"
        for link in m["links"]:
            assert 0.0 <= link["busy_fraction"] <= 1.0
            assert link["achieved_gbps"] >= 0.0
            assert link["nbytes"] > 0

    def test_noise_absorption_bounds(self):
        m = observed_run(
            "OMPI-adapt", observe="metrics", noise_percent=5.0,
            noise_ranks=[7], seed=2, iterations=4,
        ).metrics
        assert m["noise_seconds"] > 0.0
        assert 0.0 <= m["noise_absorption_ratio"] <= 1.0

    def test_no_noise_means_no_ratio(self):
        m = observed_run("OMPI-adapt", observe="metrics").metrics
        assert m["noise_seconds"] == 0.0
        assert m["noise_absorption_ratio"] is None

    def test_compute_metrics_requires_recorder(self):
        from repro.mpi.runtime import MpiWorld

        world = MpiWorld(SPEC, 4)
        with pytest.raises(ValueError):
            compute_metrics(world)


class TestCriticalPath:
    @staticmethod
    def graph(edges, times):
        g = DepGraph()
        for nid, (posted, completed) in times.items():
            g.nodes[nid] = OpNode(nid=nid, kind="send", rank=0,
                                  posted_at=posted, completed_at=completed)
        for src, dst, kind in edges:
            g.dep_edges.append(DepEdge(src=src, dst=dst, kind=kind, via="t"))
        return g

    def test_longest_chain_wins(self):
        # 0 -> 1 -> 3 (weight 1+2+4) beats 0 -> 2 -> 3 (1+1+4).
        g = self.graph(
            [(0, 1, "data"), (0, 2, "data"), (1, 3, "data"), (2, 3, "data")],
            {0: (0, 1), 1: (1, 3), 2: (1, 2), 3: (3, 7)},
        )
        length, path = critical_path(g)
        assert path == [0, 1, 3]
        assert length == pytest.approx(7.0)

    def test_kind_filter(self):
        g = self.graph(
            [(0, 1, "sync")],
            {0: (0, 5), 1: (5, 6)},
        )
        # Only a sync edge: with the default data-only filter the nodes are
        # independent and the heaviest single node is the path.
        length, path = critical_path(g)
        assert path == [0] and length == pytest.approx(5.0)
        length2, path2 = critical_path(g, kinds=("sync",))
        assert path2 == [0, 1] and length2 == pytest.approx(6.0)

    def test_cycle_raises(self):
        g = self.graph(
            [(0, 1, "data"), (1, 0, "data")],
            {0: (0, 1), 1: (0, 1)},
        )
        with pytest.raises(ValueError):
            critical_path(g)

    def test_matches_depgraph_longest_data_chain(self):
        """The path is a real chain of data edges and dominates every data
        edge's endpoints — i.e. it is the depgraph's longest data chain."""
        graph = analyze_schedule("bcast-adapt", nranks=8, tree="binary",
                                 nbytes=256 * 1024)
        length, path = critical_path(graph)
        assert len(path) >= 2
        data = {(e.src, e.dst) for e in graph.data_edges()}
        for src, dst in zip(path, path[1:]):
            assert (src, dst) in data
        # Exhaustive check on the DAG: no data-dependency chain is longer.
        import functools

        succs: dict[int, list[int]] = {}
        for s, d in data:
            succs.setdefault(s, []).append(d)

        @functools.lru_cache(maxsize=None)
        def longest_from(nid):
            w = graph.nodes[nid].completed_at - graph.nodes[nid].posted_at
            return w + max((longest_from(n) for n in succs.get(nid, ())),
                           default=0.0)

        best = max(longest_from(nid) for nid in graph.nodes)
        assert length == pytest.approx(best)

    def test_adapt_critical_path_certifies_no_sync(self):
        graph = analyze_schedule("bcast-adapt", nranks=8, tree="binary",
                                 nbytes=256 * 1024)
        assert not graph.sync_edges()
        # With zero sync edges the data+sync path equals the data path.
        assert critical_path(graph) == critical_path(graph, kinds=("data", "sync"))


class TestChromeExport:
    def test_valid_trace_document(self, tmp_path):
        res = observed_run("OMPI-adapt", observe="trace")
        path = tmp_path / "trace.json"
        n = export_chrome_trace(res.obs, str(path))
        doc = path.read_text(encoding="utf-8")
        assert validate_chrome_trace(doc) == []
        parsed = json.loads(doc)
        assert len(parsed["traceEvents"]) == n
        phases = {e["ph"] for e in parsed["traceEvents"]}
        assert {"M", "X", "C"} <= phases

    def test_rank_and_link_tracks(self):
        res = observed_run("OMPI-adapt", observe="trace")
        events = chrome_trace_events(res.obs)
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names == {"ranks", "links"}
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert pids == {1, 2}

    def test_validator_catches_breakage(self):
        res = observed_run("OMPI-adapt", observe="trace")
        doc = json.loads(render_chrome_json(chrome_trace_events(res.obs)))
        assert validate_chrome_trace("{nope") != []
        assert validate_chrome_trace(json.dumps({"events": []})) != []
        broken = json.loads(json.dumps(doc))
        for e in broken["traceEvents"]:
            if e["ph"] == "X":
                del e["dur"]
                break
        assert any("dur" in err for err in validate_chrome_trace(json.dumps(broken)))
        negative = json.loads(json.dumps(doc))
        for e in negative["traceEvents"]:
            if e["ph"] == "X":
                e["ts"] = -1.0
                break
        assert validate_chrome_trace(json.dumps(negative)) != []


class TestTruncationSurfacing:
    def test_span_cap_sets_flag_and_warns(self):
        from repro.mpi import runtime as rt

        real_world = rt.MpiWorld

        class TinyObsWorld(real_world):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                if self.obs is not None:
                    self.obs.max_spans = 8

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.harness.runner.MpiWorld", TinyObsWorld)
            with pytest.warns(RuntimeWarning, match="cap hit"):
                res = observed_run("OMPI-adapt", observe="trace")
        assert res.trace_truncated
        assert len(res.obs["spans"]) == 8 and res.obs["dropped"] > 0

    def test_untruncated_run_has_no_flag(self):
        res = observed_run("OMPI-adapt", observe="trace")
        assert not res.trace_truncated

    def test_flag_survives_the_wire(self):
        d = execute_job(SimJob(machine="testbox", iterations=1,
                               nbytes=64 << 10, observe="trace"))
        assert d["trace_truncated"] is False
        from repro.parallel import result_from_dict

        assert result_from_dict(d).trace_truncated is False


class TestCollectiveCounters:
    def test_adapt_bcast_counters(self):
        res = observed_run("OMPI-adapt", observe="trace")
        counters = res.obs["counters"]
        assert counters["adapt.bcast.segments_received"] > 0
        assert counters["adapt.bcast.segments_forwarded"] > 0
        assert counters["net.flows_completed"] > 0

    def test_adapt_reduce_counters(self):
        res = run_collective(SPEC, 24, "OMPI-adapt", "reduce",
                             nbytes=256 << 10, iterations=1, observe="trace")
        counters = res.obs["counters"]
        assert counters["adapt.reduce.contributions_folded"] > 0
        assert counters["adapt.reduce.segments_closed"] > 0
