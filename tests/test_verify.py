"""Schedule model checker: exhaustive interleaving exploration (DESIGN.md S21).

The claims, checked mechanically:

* every ADAPT collective is deadlock-free and race-free in **every**
  message-match ordering, not just the one the simulator ran — and DPOR
  explores strictly fewer states than naive enumeration while proving it;
* the intentionally broken demos produce their violation, with a
  counterexample that replays to the reported verdict and renders as a
  Chrome trace;
* the fault sweep certifies the kill and partition repair paths of both
  repair modes at every explored state;
* the checker's deadlock verdict agrees with the simulator on seeded
  random schedules (key-unique models are confluent, so the one
  interleaving the simulator runs decides the same way the full
  exploration does).
"""

import json

import pytest

from repro.analysis.depgraph import record
from repro.analysis.schedules import SCHEDULES, recording_world
from repro.collectives.models import ADAPT_COLLECTIVES, VERIFY_MODELS
from repro.mpi.proclet import ProcletDriver
from repro.verify import (
    DEADLOCK,
    RACE,
    UNMATCHED_SEND,
    build_model,
    chrome_counterexample_trace,
    counterexample_dict,
    explore,
    fault_sweep,
    first_violation,
    load_counterexample,
    model_from_graph,
    replay,
    save_counterexample,
)

NRANKS = 6
NBYTES = 64 * 1024
SEG = 16 * 1024
ADAPT_SCHEDULES = [c.schedule for c in ADAPT_COLLECTIVES.values()]


def _model(schedule, nranks=NRANKS):
    return build_model(
        schedule, nranks=nranks, nbytes=NBYTES, segment_size=SEG
    )


class TestModelExtraction:
    def test_deterministic_fingerprint(self):
        a = _model("bcast-adapt")
        b = _model("bcast-adapt")
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != _model("reduce-adapt").fingerprint()

    def test_eager_classification(self):
        m = _model("bcast-adapt")
        sizes = {op.nbytes for op in m.sends}
        assert all(
            op.eager == (op.nbytes <= m.eager_threshold) for op in m.sends
        ), sizes

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_real_schedules_are_key_unique(self, schedule):
        # Segment tags make every wire key unique model-wide — the property
        # the singleton-persistent-set DPOR is sound under.
        m = _model(schedule)
        assert m.key_unique

    def test_guards_are_acyclic_and_internal(self):
        m = _model("allreduce-adapt")
        for op in m.ops.values():
            assert op.oid not in op.guards
            assert all(g in m.ops for g in op.guards)


class TestAdaptVerified:
    @pytest.mark.parametrize("schedule", ADAPT_SCHEDULES)
    def test_zero_violations_all_orderings(self, schedule):
        e = explore(_model(schedule))
        assert e.complete
        assert e.mode == "dpor"
        assert not e.violations, e.verdict()
        assert e.maximal_states == 1  # confluence: one unique final state

    @pytest.mark.parametrize("schedule", ADAPT_SCHEDULES)
    def test_dpor_strictly_smaller_than_naive(self, schedule):
        m = _model(schedule)
        dpor = explore(m, mode="dpor", keep_states=False)
        naive = explore(m, mode="naive", max_states=3000, keep_states=False)
        assert dpor.complete
        assert dpor.states_explored < naive.states_explored, (
            f"{schedule}: dpor {dpor.states_explored} vs "
            f"naive {naive.states_explored}"
        )
        # When the naive leg finishes inside the cap the two agree on the
        # verdict — the reduction drops states, never coverage.
        if naive.complete:
            assert naive.deadlock_free and naive.race_free

    @pytest.mark.parametrize(
        "schedule",
        ["bcast-blocking", "reduce-blocking",
         "bcast-nonblocking", "reduce-nonblocking"],
    )
    def test_baselines_verify_clean(self, schedule):
        # The baselines over-synchronize (Figure 2) but do not deadlock.
        e = explore(_model(schedule, nranks=4))
        assert e.complete and e.ok, e.verdict()


class TestDemos:
    def test_deadlock_demo(self):
        e = explore(_model("deadlock-demo", nranks=4))
        v = e.first(DEADLOCK)
        assert v is not None
        assert "incomplete" in v.detail
        assert v.pending  # stuck obligations are named

    def test_tag_mismatch_demo(self):
        e = explore(build_model("tag-mismatch-demo"))
        assert e.first(DEADLOCK) is not None

    def test_race_demo_needs_naive(self):
        m = build_model("race-demo")
        assert not m.key_unique
        e = explore(m)
        assert e.mode == "naive"
        v = e.first(RACE)
        assert v is not None
        assert "arrival order" in v.detail

    def test_dpor_refuses_ambiguous_models(self):
        m = build_model("race-demo")
        with pytest.raises(ValueError, match="key-unique"):
            explore(m, mode="dpor")

    def test_expectations_match_registry(self):
        for schedule, spec in VERIFY_MODELS.items():
            if spec.expect is None:
                continue
            e = explore(build_model(schedule, nranks=4))
            assert any(v.kind == spec.expect for v in e.violations), (
                f"{schedule} expected {spec.expect}: {e.verdict()}"
            )

    def test_budget_exhaustion_reported(self):
        m = _model("allreduce-adapt")
        e = explore(m, mode="naive", max_states=5)
        assert not e.complete
        assert "UNKNOWN" in e.verdict()


class TestCounterexamples:
    @pytest.mark.parametrize(
        "schedule", ["deadlock-demo", "tag-mismatch-demo", "race-demo"]
    )
    def test_roundtrip_replays_to_verdict(self, schedule, tmp_path):
        m = build_model(schedule, nranks=4)
        e = explore(m)
        v = first_violation(e)
        path = tmp_path / "ce.json"
        save_counterexample(str(path), m, v, e.mode)
        data = load_counterexample(str(path))
        result = replay(data)
        assert result.ok, result.message
        assert result.kind == v.kind

    def test_tampered_trace_fails_replay(self):
        m = build_model("race-demo")
        e = explore(m)
        data = counterexample_dict(m, first_violation(e), e.mode)
        data["events"] = [[10_000, 10_001]]
        assert not replay(data).ok

    def test_wrong_model_fails_fingerprint(self):
        m = build_model("race-demo")
        e = explore(m)
        data = counterexample_dict(m, first_violation(e), e.mode)
        data["model"]["ops"][0][5] += 1  # perturb one op's nbytes
        result = replay(data)
        assert not result.ok
        assert "fingerprint" in result.message

    def test_chrome_trace_renders(self, tmp_path):
        m = build_model("deadlock-demo", nranks=4)
        e = explore(m)
        data = counterexample_dict(m, first_violation(e), e.mode)
        out = tmp_path / "ce.trace.json"
        n = chrome_counterexample_trace(data, str(out))
        assert n > 0
        loaded = json.loads(out.read_text())
        names = {ev.get("name", "") for ev in loaded["traceEvents"]}
        assert any(name.startswith("STUCK") for name in names)

    def test_chrome_trace_steps_through_the_matches(self, tmp_path):
        # Rank 1 posts two recvs, rank 0 sends one: one match fires, then
        # the tag-9 recv deadlocks. The trace's x-axis is match order.
        from repro.obs import validate_chrome_trace

        world = recording_world(2)

        def launch():
            world.ranks[1].irecv(0, tag=5, nbytes=1024)
            world.ranks[1].irecv(0, tag=9, nbytes=1024)
            world.ranks[0].isend(1, tag=5, nbytes=1024)

        model = model_from_graph(record(
            world, launch, meta={"schedule": "one-match", "nranks": 2},
        ))
        e = explore(model)
        data = counterexample_dict(model, e.first(DEADLOCK), e.mode)
        assert len(data["events"]) == 1
        out = tmp_path / "ce.trace.json"
        chrome_counterexample_trace(data, str(out))
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        spans = {(ev["cat"], ev["name"]): ev["ts"]
                 for ev in doc["traceEvents"] if ev["ph"] == "X"}
        step = 1e6  # one match per unit step, in microseconds
        assert spans == {
            ("verify", "send[0->1 tag=5 1024B]"): 0.0,  # eager: done on post
            ("verify", "recv[1<-0 tag=5 1024B]"): step,
            ("match", "match send[0->1 tag=5 1024B]"): step,
            ("stuck", "STUCK recv[1<-0 tag=9 1024B]"): 2 * step,
            ("violation", f"deadlock: {data['detail']}"): 0.0,
        }


def _handmade_model(programs, nranks=2):
    """Model of hand-written per-rank programs of ``(kind, peer, tag,
    nbytes)`` ops, each waited on before the next."""
    world = recording_world(nranks)

    def program(rank):
        rt = world.ranks[rank]
        for kind, peer, tag, nbytes in programs[rank]:
            post = rt.isend if kind == "send" else rt.irecv
            yield post(peer, tag=tag, nbytes=nbytes)

    def launch():
        for rank in programs:
            ProcletDriver(world.ranks[rank], program(rank))

    return model_from_graph(record(
        world, launch,
        meta={"schedule": "handmade", "nranks": nranks,
              "eager_threshold": world.config.eager_threshold},
    ))


#: Rank 0 sends one eager message that no rank ever receives.
STRANDED = {0: [("send", 1, 5, 2048)]}


def test_model_leaves_out_a_cancelled_receive():
    world = recording_world(2)

    def sender():
        yield world.ranks[0].isend(1, tag=1, nbytes=2048)

    def receiver():
        rt = world.ranks[1]
        spare = rt.irecv(0, tag=9, nbytes=2048)
        assert rt.cancel_recv(spare)
        yield rt.irecv(0, tag=1, nbytes=2048)

    def launch():
        ProcletDriver(world.ranks[0], sender())
        ProcletDriver(world.ranks[1], receiver())

    graph = record(world, launch, meta={
        "schedule": "cancel", "nranks": 2,
        "eager_threshold": world.config.eager_threshold})
    assert any(n.cancelled for n in graph.nodes.values())
    model = model_from_graph(graph)
    assert sorted(op.label for op in model.ops.values()) == [
        "recv[1<-0 tag=1 2048B]", "send[0->1 tag=1 2048B]"]
    assert explore(model).deadlock_free


def test_a_race_is_reported_once_across_states():
    # Rank 0's two tag-5 sends race for rank 1's two receives in every
    # state before the first of them matches, whichever way the unrelated
    # 2->3 message goes; the checker reports the key once.
    m = _handmade_model({
        0: [("send", 1, 5, 2048), ("send", 1, 5, 2048)],
        1: [("recv", 0, 5, 2048), ("recv", 0, 5, 2048)],
        2: [("send", 3, 2, 2048)], 3: [("recv", 2, 2, 2048)],
    }, nranks=4)
    e = explore(m)
    assert e.mode == "naive" and e.complete
    (v,) = e.violations
    assert v.kind == RACE and "(src=0, dst=1, tag=5)" in v.detail
    assert e.states_explored == 8


def test_a_send_behind_a_stuck_recv_is_reported_never_posted():
    # Both ranks receive before they send, so each send waits on a receive
    # only the other's send could complete. A recording never posts such a
    # send, so the model is written out by hand.
    from repro.verify.model import ModelOp, ScheduleModel

    def op(oid, kind, rank, peer, tag, guards=()):
        arrow = "->" if kind == "send" else "<-"
        return ModelOp(oid, kind, rank, peer, tag, 2048, False, frozenset(guards),
                       f"{kind}[{rank}{arrow}{peer} tag={tag} 2048B]")

    m = ScheduleModel(ops={1: op(1, "recv", 0, 1, 1), 2: op(2, "send", 0, 1, 0, {1}),
                           3: op(3, "recv", 1, 0, 0), 4: op(4, "send", 1, 0, 1, {3})})
    (v,) = explore(m).violations
    assert v.kind == DEADLOCK and v.trace == ()
    assert v.pending == (
        "recv[0<-1 tag=1 2048B] posted but no matching send ever in flight",
        "send[0->1 tag=0 2048B] never posted: waiting on recv[0<-1 tag=1 2048B]",
        "recv[1<-0 tag=0 2048B] posted but no matching send ever in flight",
        "send[1->0 tag=1 2048B] never posted: waiting on recv[1<-0 tag=0 2048B]",
    )


class TestReplayVerdicts:
    """Replay confirms a trace only when its final state shows the claimed
    violation, and says why otherwise."""

    @staticmethod
    def _trace(model, kind=None):
        e = explore(model)
        data = counterexample_dict(model, first_violation(e), e.mode)
        if kind is not None:
            data["kind"] = kind
        return data

    def test_stranded_eager_send_is_confirmed(self):
        m = _handmade_model(STRANDED)
        e = explore(m)
        (v,) = e.violations
        assert e.verdict() == "VIOLATED: unmatched-send"
        assert v.kind == UNMATCHED_SEND and v.pending == ("send[0->1 tag=5 2048B]",)
        result = replay(counterexample_dict(m, v, e.mode))
        assert result.ok and result.message == "confirmed: 1 eager send(s) never consumed"

    @pytest.mark.parametrize("model, kind, message", [
        ("deadlock-demo", RACE, "final state has no key with two sends in flight"),
        ("deadlock-demo", UNMATCHED_SEND, "final state has no stranded eager send"),
        ("deadlock-demo", "bogus", "unknown violation kind 'bogus'"),
        ("race-demo", DEADLOCK, "final state is not maximal: matches still enabled"),
        ("stranded", DEADLOCK, "final state completed every op: no deadlock"),
    ])
    def test_a_claim_the_final_state_refutes_fails(self, model, kind, message):
        m = (_handmade_model(STRANDED) if model == "stranded"
             else build_model(model, nranks=4))
        result = replay(self._trace(m, kind))
        assert not result.ok and result.kind == kind
        assert result.message == message

    def test_unknown_schema_is_rejected(self, tmp_path):
        m = build_model("deadlock-demo", nranks=4)
        data = self._trace(m)
        data["schema"] = "v0"
        path = tmp_path / "ce.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema 'v0'"):
            load_counterexample(str(path))


def _sweep(schedule, nranks=4, **kw):
    """The one result of a single-kind fault sweep."""
    [result] = fault_sweep(
        schedule, nranks=nranks, nbytes=NBYTES, segment_size=SEG, **kw
    )
    return result


class TestKillSweep:
    def test_inplace_sweep_certifies(self):
        r = _sweep("bcast-adapt", kills=True)
        assert r.mode == "in-place"
        assert r.ok, r.verdict()
        assert r.triples == len(r.points) * r.base.states_explored
        assert all(p.witness == "in-place-live" for p in r.points)

    def test_restart_sweep_certifies(self):
        r = _sweep("allreduce-adapt", kills=True)
        assert r.mode == "restart"
        assert r.ok, r.verdict()
        assert all(p.witness == "restart-model" for p in r.points)
        assert all(p.witness_states > 0 for p in r.points)

    def test_sweep_rejects_non_adapt(self):
        with pytest.raises(ValueError, match="ADAPT"):
            fault_sweep("bcast-blocking", kills=True)

    def test_sweep_without_witness_still_checks_states(self):
        r = _sweep("gather-adapt", kills=True, witness=False)
        assert r.ok
        assert r.triples > 0


class TestSweepVerdicts:
    """How a sweep that finds an unsafe point reads: its verdict names the
    point, and ``repro verify`` prints each point's issues under it."""

    @staticmethod
    def _failed(kind, base_schedule="bcast-adapt"):
        from repro.verify.recovery_check import PointReport, SweepResult

        point = PointReport(kind=kind, side_a=(0, 1), side_b=(2,),
                            issues=["survivor(s) [1] never completed or excused"])
        base = explore(build_model(base_schedule, nranks=2))
        return SweepResult(kind=kind, schedule="bcast-adapt", collective="bcast",
                           mode="in-place", nranks=3, tree="binary", root=0,
                           base=base, points=[point])

    @pytest.mark.parametrize("kind, label, verdict", [
        ("kill", "victim 2", "RECOVERY UNSAFE for victim(s) [2]"),
        ("cut", "cut (0, 1)|(2,)", "PARTITION UNSAFE for cut(s) ['[0, 1]|[2]']"),
    ])
    def test_an_unsafe_point_is_named(self, kind, label, verdict):
        sweep = self._failed(kind)
        assert not sweep.ok and sweep.verdict() == verdict
        assert sweep.points[0].label == label
        unsafe_base = self._failed(kind, base_schedule="deadlock-demo")
        assert unsafe_base.verdict() == "BASE NOT SAFE: VIOLATED: deadlock"

    def test_cli_prints_the_issues_and_fails(self, monkeypatch, capsys, tmp_path):
        import repro.verify
        from repro.cli import main

        sweep = self._failed("kill")
        monkeypatch.setattr(repro.verify, "fault_sweep", lambda *a, **kw: [sweep])
        code = main(["verify", "--collective", "bcast-adapt", "--ranks", "3",
                     "--kill-sweep", "--json", str(tmp_path / "r.json")])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        i = out.index("FAIL bcast-adapt kill-sweep: RECOVERY UNSAFE for victim(s) [2] "
                      f"({sweep.elapsed:.2f}s)")
        assert out[i + 1] == "     victim 2: survivor(s) [1] never completed or excused"
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["schedules"]["bcast-adapt"]["ok"] is False


def _live_partition(collective, nranks, side_a, side_b, heal=0.2):
    """A heal-after-deadline partition over the full recovery stack."""
    from repro.analysis.schedules import recording_context
    from repro.config import CollectiveConfig
    from repro.faults import FaultInjector
    from repro.faults.plan import FaultPlan, PartitionSpec
    from repro.recovery import launch_recover

    ctx = recording_context(
        nranks, "binary", 0, NBYTES, CollectiveConfig(segment_size=SEG)
    )
    world = ctx.world
    handle = launch_recover(collective, ctx)
    plan = FaultPlan(partitions=(
        PartitionSpec(groups=(side_a, side_b), start=1e-4, heal=heal),
    ))
    FaultInjector(world, plan).arm(heal + 0.1)
    world.run()
    return world, handle


class TestPartitionSweep:
    @pytest.mark.parametrize("schedule,mode", [
        ("bcast-adapt", "in-place"), ("allreduce-adapt", "restart"),
    ])
    def test_cut_sweep_certifies(self, schedule, mode):
        r = _sweep(schedule, cuts=True)
        assert r.kind == "cut" and r.mode == mode
        assert r.ok, r.verdict()
        assert len(r.points) == 2 ** (4 - 1) - 1
        # Every cut with rank 0 and the root on the non-minority side: the
        # three single-rank minorities and the three even splits.
        assert r.witnessed == 6
        assert r.triples == len(r.points) * r.base.states_explored
        assert "PARTITION CERTIFIED" in r.verdict()

    def test_witness_family_follows_the_root(self):
        r = _sweep("bcast-adapt", nranks=5, root=2, cuts=True)
        assert r.ok, r.verdict()
        witnessed = [p for p in r.points if p.witness == "partition-live"]
        assert len(witnessed) == 6
        assert all({0, 2} <= set(p.side_a) for p in witnessed)

    def test_both_kinds_explore_the_base_once(self, monkeypatch):
        from repro.verify import recovery_check

        calls = []

        def counting_explore(model, **kw):
            calls.append(kw)
            return explore(model, **kw)

        monkeypatch.setattr(recovery_check, "explore", counting_explore)
        kills, cuts = fault_sweep(
            "bcast-adapt", kills=True, cuts=True, nranks=4, nbytes=NBYTES,
            segment_size=SEG, witness=False,
        )
        assert len(calls) == 1
        assert kills.base is cuts.base
        assert (kills.kind, cuts.kind) == ("kill", "cut")
        assert len(kills.points) == 3 and len(cuts.points) == 7
        assert kills.ok and cuts.ok

    @pytest.mark.parametrize("collective", ["bcast", "allreduce"])
    def test_even_split_heal_commits_no_epoch(self, collective):
        # {0,2}|{1,3}: both halves park awaiting quorum. After the heal,
        # every healed rank's first beat lands within one heartbeat period;
        # a re-round proposing sooner committed an epoch writing off a
        # live, reachable rank.
        world, handle = _live_partition(collective, 4, (0, 2), (1, 3))
        svc = world.membership
        assert any(kind == "awaiting-quorum" for _, kind, _ in svc.timeline)
        assert svc.view.epoch == 0, svc.view.describe()
        assert not world.failed_ranks
        assert sorted(handle.done_time) == [0, 1, 2, 3]


class TestVerifyCli:
    def test_verify_adapt_exits_zero(self, capsys, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        code = main([
            "verify", "--collective", "bcast-adapt", "--ranks", "4",
            "--json", str(tmp_path / "report.json"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "VERIFIED" in out
        assert "naive enumeration" in out  # the DPOR-vs-naive census line
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schedules"]["bcast-adapt"]["ok"]

    def test_verify_demo_expected_violation(self, capsys, tmp_path,
                                            monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        ce = tmp_path / "ce.json"
        code = main([
            "verify", "--collective", "deadlock-demo",
            "--counterexample", str(ce),
        ])
        out = capsys.readouterr().out
        assert code == 0  # the demo producing its violation is the pass
        assert "expected violation 'deadlock' produced" in out
        assert ce.exists()
        replay_code = main(["verify", "--replay", str(ce),
                            "--chrome", str(tmp_path / "ce.trace.json")])
        out = capsys.readouterr().out
        assert replay_code == 0
        assert "CONFIRMED" in out
        assert (tmp_path / "ce.trace.json").exists()

    @pytest.mark.parametrize("flags, expect", [
        ([], ADAPT_SCHEDULES),
        (["--all"], sorted(VERIFY_MODELS)),
    ])
    def test_verify_picks_its_schedules(self, flags, expect, tmp_path,
                                        monkeypatch, capsys):
        import repro.verify
        from repro.cli import main

        tiny = build_model("bcast-adapt", nranks=2)
        monkeypatch.setattr(repro.verify, "build_model", lambda name, **kw: tiny)
        main(["verify", *flags, "--json", str(tmp_path / "r.json")])
        report = json.loads((tmp_path / "r.json").read_text())
        assert sorted(report["schedules"]) == sorted(expect)

    def test_violation_prints_its_interleaving(self, capsys):
        from repro.cli import _print_violation

        model = model_from_graph(_random_schedule(21))
        (v,) = explore(model).violations
        _print_violation(model, v)
        assert capsys.readouterr().out.splitlines()[1:4] == [
            "  interleaving (2 match(es)):",
            "      0. send[1->0 tag=3 2048B]  ->  recv[0<-1 tag=3 2048B]",
            "      1. send[0->1 tag=2 2048B]  ->  recv[1<-0 tag=2 2048B]",
        ]

    def test_verify_chrome_exports_the_violation(self, capsys, tmp_path,
                                                 monkeypatch):
        from repro.cli import main
        from repro.obs import validate_chrome_trace

        monkeypatch.chdir(tmp_path)
        path = tmp_path / "race.trace.json"
        code = main(["verify", "--collective", "race-demo",
                     "--chrome", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"violation rendered as Chrome trace: {path}" in out
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        events = doc["traceEvents"]
        verdict = [ev for ev in events if ev.get("cat") == "violation"]
        assert len(verdict) == 1
        assert verdict[0]["name"].startswith("race:")
        # The race shows at the initial state: both recvs are drawn stuck.
        stuck = [ev["name"] for ev in events if ev.get("cat") == "stuck"]
        assert stuck == ["STUCK recv[1<-0 tag=5 4096B]"] * 2

    def test_verify_budget_exhaustion_exits_two(self, capsys, tmp_path,
                                                monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        code = main([
            "verify", "--collective", "allreduce-adapt", "--ranks", "6",
            "--max-states", "3",
        ])
        assert code == 2
        assert "UNKNOWN" in capsys.readouterr().out

    def test_verify_kill_sweep_cli(self, capsys, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        code = main([
            "verify", "--collective", "bcast-adapt", "--ranks", "4",
            "--kill-sweep",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "RECOVERY CERTIFIED" in out

    def test_verify_both_sweeps_json(self, capsys, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        code = main([
            "verify", "--collective", "bcast-adapt", "--ranks", "4",
            "--kill-sweep", "--partition-sweep",
            "--json", str(tmp_path / "report.json"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "RECOVERY CERTIFIED" in out and "PARTITION CERTIFIED" in out
        entry = json.loads((tmp_path / "report.json").read_text())[
            "schedules"]["bcast-adapt"]
        assert entry["kill_sweep"]["victims"] == 3
        assert entry["partition_sweep"]["cuts"] == 7
        assert entry["partition_sweep"]["witnessed"] == 6

    def test_sweep_out_of_budget_exits_two(self, capsys, tmp_path,
                                           monkeypatch):
        # The sweep's clock jumps an hour per reading: the base (timed by
        # the checker's own clock) completes, the point loop runs out.
        import itertools
        import types

        from repro.cli import main
        from repro.verify import recovery_check

        hours = itertools.count(0, 3600.0)
        monkeypatch.setattr(recovery_check, "time", types.SimpleNamespace(
            monotonic=lambda: next(hours)
        ))
        monkeypatch.chdir(tmp_path)
        code = main([
            "verify", "--collective", "bcast-adapt", "--ranks", "4",
            "--partition-sweep",
        ])
        out = capsys.readouterr().out
        assert code == 2
        assert "partition-sweep: UNKNOWN (budget exhausted mid-sweep)" in out

    def test_sweep_base_out_of_budget_exits_two(self, capsys, tmp_path,
                                                monkeypatch):
        import dataclasses

        from repro.cli import main
        from repro.verify import recovery_check

        monkeypatch.setattr(
            recovery_check, "explore",
            lambda model, **kw: dataclasses.replace(
                explore(model, **kw), complete=False
            ),
        )
        monkeypatch.chdir(tmp_path)
        code = main([
            "verify", "--collective", "bcast-adapt", "--ranks", "4",
            "--kill-sweep",
        ])
        out = capsys.readouterr().out
        assert code == 2
        assert "kill-sweep: UNKNOWN (budget exhausted)" in out
        assert "BASE NOT SAFE" not in out


def _random_schedule(seed):
    """A seeded random key-unique message-passing program.

    Each message gets a globally unique tag (key-uniqueness by
    construction, so the checker's verdict is confluent and must agree
    with the simulator's single interleaving). Blocking waits between a
    rank's ops create real deadlock potential: two rendezvous sends
    crossing head-to-head hang exactly as deadlock-demo does.
    """
    import random

    rng = random.Random(seed)
    nranks = rng.choice([2, 3])
    nmsgs = rng.randint(1, 5)
    programs = {r: [] for r in range(nranks)}
    for tag in range(nmsgs):
        src = rng.randrange(nranks)
        dst = rng.choice([r for r in range(nranks) if r != src])
        nbytes = rng.choice([2 * 1024, 64 * 1024])  # eager | rendezvous
        programs[src].append(("send", dst, tag, nbytes))
        programs[dst].append(("recv", src, tag, nbytes))
    for ops in programs.values():
        rng.shuffle(ops)
    world = recording_world(nranks)

    def program(rank):
        rt = world.ranks[rank]
        for kind, peer, tag, nbytes in programs[rank]:
            if kind == "send":
                yield rt.isend(peer, tag=tag, nbytes=nbytes)
            else:
                yield rt.irecv(peer, tag=tag, nbytes=nbytes)

    def launch():
        for rank in range(nranks):
            ProcletDriver(world.ranks[rank], program(rank))

    return record(
        world, launch,
        meta={
            "schedule": f"fuzz-{seed}", "nranks": nranks,
            "eager_threshold": world.config.eager_threshold,
        },
    )


class TestSimulatorAgreement:
    """Checker vs simulator on 50 seeded schedules (issue acceptance)."""

    @pytest.mark.parametrize("seed", range(50))
    def test_deadlock_verdict_agrees(self, seed, tmp_path):
        graph = _random_schedule(seed)
        model = model_from_graph(graph)
        assert model.key_unique  # unique tags by construction
        e = explore(model)
        assert e.complete
        sim_blocked = bool(graph.blocked)
        assert e.deadlock_free == (not sim_blocked), (
            f"seed {seed}: simulator blocked={sim_blocked} but checker "
            f"says {e.verdict()}"
        )
        # Every counterexample must replay to its reported violation.
        for v in e.violations:
            path = tmp_path / f"ce-{seed}-{v.kind}.json"
            save_counterexample(str(path), model, v, e.mode)
            result = replay(load_counterexample(str(path)))
            assert result.ok, f"seed {seed}: {result.message}"
