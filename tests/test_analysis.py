"""Analyzer certification and linting (paper Section 2, Figure 2).

The core claims, checked mechanically on extracted dependency graphs:

* every ADAPT schedule — bcast, reduce, and the Section 5 extensions —
  carries **zero** synchronization-dependency edges: only data edges and
  window flow-control remain;
* blocking and Waitall schedules show the Figure 2 sibling-coupling edges
  (a transfer to one child gating the transfer to another);
* the linter flags deadlocks, tag mismatches, and ``M <= N`` windows.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    DATA,
    FLOW,
    SYNC,
    analyze_schedule,
    certify,
    deadlock_demo,
    lint,
    tag_mismatch_demo,
)
from repro.analysis.depgraph import BlockedWait, DepEdge, DepGraph, OpNode
from repro.cli import main
from repro.collectives import bcast_adapt, reduce_adapt
from repro.collectives.base import CollectiveContext
from repro.collectives.models import ADAPT_COLLECTIVES
from repro.config import CollectiveConfig
from repro.machine import small_test_machine
from repro.mpi import SUM, Communicator, MpiWorld
from repro.trees import binary_tree, binomial_tree, chain_tree

# 4 segments on 64 KiB keeps recording runs fast but pipelined.
CFG = CollectiveConfig(segment_size=16 * 1024)
NBYTES = 64 * 1024

ADAPT_SCHEDULES = [c.schedule for c in ADAPT_COLLECTIVES.values()]


class TestAdaptCertification:
    @pytest.mark.parametrize("schedule", ADAPT_SCHEDULES)
    @pytest.mark.parametrize("tree", ["binary", "binomial", "chain"])
    def test_zero_sync_edges(self, schedule, tree):
        graph = analyze_schedule(schedule, nranks=8, tree=tree, nbytes=NBYTES, config=CFG)
        sync = graph.sync_edges()
        if schedule == "reduce-scatter-adapt":
            # Its recv->fold->next-step chaining records as callback-order
            # edges (event handlers, not blocking waits), so for it the
            # certified property is "never blocks", as in the fuzz sweep.
            sync = [e for e in sync if e.via != "callback-order"]
        offending = [graph.describe_edge(e) for e in sync]
        assert not offending, f"{schedule}/{tree}: {offending}"
        if schedule != "reduce-scatter-adapt":
            assert "CERTIFIED" in certify(graph).verdict()
        assert not graph.sibling_coupling_edges()

    @pytest.mark.parametrize("schedule", ADAPT_SCHEDULES)
    def test_lints_clean(self, schedule):
        report = lint(analyze_schedule(schedule, nranks=8, nbytes=NBYTES, config=CFG))
        assert report.ok, [f.message for f in report.errors]

    def test_nonzero_root_certifies_too(self):
        graph = analyze_schedule(
            "bcast-adapt", nranks=8, tree="binomial", nbytes=NBYTES, config=CFG, root=5
        )
        assert certify(graph).zero_sync

    def test_adapt_still_moves_the_data(self):
        # Zero sync must not come from a degenerate graph: the match edges
        # (one per segment per tree edge) and window refills are all there.
        graph = analyze_schedule("bcast-adapt", nranks=3, tree="binary",
                                 nbytes=NBYTES, config=CFG)
        match = [e for e in graph.data_edges() if e.via == "match"]
        assert len(match) == 4 * 2  # 4 segments x 2 tree edges
        assert len(graph.flow_edges()) == 6  # 2 leaves x 3 window refills


class TestBaselineCoupling:
    """The blocking/Waitall schedules must show what ADAPT removes."""

    def test_blocking_bcast_sibling_chain(self):
        # Root 0 with two leaf children, S=4 segments: the 2S sequential
        # blocking sends form 2S-1 consecutive cross-child sync edges.
        graph = analyze_schedule("bcast-blocking", nranks=3, tree="binary",
                                 nbytes=NBYTES, config=CFG)
        cert = certify(graph)
        assert cert.sync_edges == 7
        assert cert.sibling_coupling == 7
        assert cert.sync_by_via == {"blocking-order": 7}
        assert cert.data_edges == 8  # one match edge per segment per child
        assert cert.flow_edges == 6  # leaf recv chains are flow, not sync
        for e in graph.sibling_coupling_edges():
            a, b = graph.nodes[e.src], graph.nodes[e.dst]
            assert a.rank == b.rank == 0
            assert {a.kind, b.kind} == {"send"}

    def test_blocking_interior_couples_children(self):
        graph = analyze_schedule("bcast-blocking", nranks=8, tree="binary",
                                 nbytes=NBYTES, config=CFG)
        ranks = {graph.nodes[e.src].rank for e in graph.sibling_coupling_edges()}
        # Root and both interior ranks of the 8-rank binary tree couple
        # their children; leaves cannot.
        assert {0, 1, 2} <= ranks

    def test_waitall_bcast_barrier_edges(self):
        graph = analyze_schedule("bcast-nonblocking", nranks=3, tree="binary",
                                 nbytes=NBYTES, config=CFG)
        cert = certify(graph)
        assert cert.sync_edges > 0
        assert cert.sibling_coupling > 0
        assert set(cert.sync_by_via) == {"waitall-barrier"}

    def test_blocking_reduce_compute_order(self):
        graph = analyze_schedule("reduce-blocking", nranks=3, tree="binary",
                                 nbytes=NBYTES, config=CFG)
        cert = certify(graph)
        # The root alternates recv / reduce-compute / recv: each reduction
        # gates the next child's recv — synchronization ADAPT doesn't have.
        assert cert.sync_edges > 0
        assert "compute-order" in cert.sync_by_via

    @pytest.mark.parametrize("pair", [
        ("bcast-blocking", "bcast-adapt"),
        ("bcast-nonblocking", "bcast-adapt"),
        ("reduce-blocking", "reduce-adapt"),
        ("reduce-nonblocking", "reduce-adapt"),
    ])
    def test_adapt_strictly_less_coupled(self, pair):
        baseline, adapt = pair
        base = certify(analyze_schedule(baseline, nranks=8, nbytes=NBYTES, config=CFG))
        evt = certify(analyze_schedule(adapt, nranks=8, nbytes=NBYTES, config=CFG))
        assert base.sync_edges > 0
        assert evt.sync_edges == 0


# What ``repro lint <schedule> --ranks 8`` reports for each comparator
# (binary tree, 512 KiB in 64 KiB segments): nodes by kind, data edges,
# flow-control edges and sync edges by kind. A driver wait the recorder
# failed to treat as internal would add a callback node per resumption and
# leave every edge count as it is, so the node census is pinned too.
_COMPARATOR_CENSUS = {
    "bcast-blocking": (
        {"recv": 56, "send": 56, "wait": 112}, 96, 28, {"blocking-order": 52},
    ),
    "bcast-nonblocking": (
        {"recv": 56, "send": 56, "wait": 56, "waitall": 32}, 96, 56,
        {"waitall-barrier": 14},
    ),
    "reduce-blocking": (
        {"compute": 56, "recv": 56, "send": 56, "wait": 112}, 120, 28,
        {"blocking-order": 21, "compute-order": 31},
    ),
    "reduce-nonblocking": (
        {"compute": 32, "recv": 56, "send": 56, "wait": 32, "waitall": 56}, 120, 70,
        {"waitall-barrier": 36},
    ),
}


class TestComparatorCensus:
    @pytest.mark.parametrize("schedule", sorted(_COMPARATOR_CENSUS))
    def test_eight_rank_census(self, schedule):
        cert = certify(analyze_schedule(schedule, nranks=8))
        got = (cert.nodes_by_kind, cert.data_edges, cert.flow_edges, cert.sync_by_via)
        assert got == _COMPARATOR_CENSUS[schedule]

    def test_waits_register_marked_driver_methods(self, monkeypatch):
        # A blocking wait registers the driver's bound ``_step`` and a
        # WaitAll its bound ``_one_done``: no function object per wait, and
        # each carries the class-level internal mark the recorder reads.
        from repro.analysis.depgraph import record
        from repro.analysis.schedules import recording_world
        from repro.mpi import ProcletDriver, Request, WaitAll

        registered = []
        add_callback = Request.add_callback

        def spy(req, fn):
            registered.append(fn)
            add_callback(req, fn)

        monkeypatch.setattr(Request, "add_callback", spy)
        world = recording_world(2)
        drivers = []

        def sender(rt):
            for tag in range(3):
                yield rt.isend(1, tag, 64)

        def receiver(rt):
            yield rt.irecv(0, 0, 64)
            yield WaitAll([rt.irecv(0, 1, 64), rt.irecv(0, 2, 64)])

        def launch():
            drivers.append(ProcletDriver(world.ranks[0], sender(world.ranks[0])))
            drivers.append(ProcletDriver(world.ranks[1], receiver(world.ranks[1])))

        graph = record(world, launch)
        assert all(d.done for d in drivers)
        assert {fn.__func__ for fn in registered} == {
            ProcletDriver._step, ProcletDriver._one_done,
        }
        for fn in registered:
            assert fn.__self__ in drivers
            assert fn._depgraph_internal is True
        assert "callback" not in {n.kind for n in graph.nodes.values()}


class TestGraphStructure:
    @pytest.mark.parametrize("schedule", ["bcast-blocking", "bcast-nonblocking",
                                          "bcast-adapt", "reduce-adapt"])
    def test_happens_before_is_a_dag(self, schedule):
        graph = analyze_schedule(schedule, nranks=8, nbytes=NBYTES, config=CFG)
        assert graph.has_cycle() is None

    def test_edges_have_known_kinds(self):
        graph = analyze_schedule("reduce-adapt", nranks=8, nbytes=NBYTES, config=CFG)
        assert {e.kind for e in graph.dep_edges} <= {DATA, SYNC, FLOW}
        assert all(e.src in graph.nodes and e.dst in graph.nodes
                   for e in graph.dep_edges + graph.order_edges)

    def test_meta_round_trips(self):
        graph = analyze_schedule("bcast-adapt", nranks=6, tree="chain",
                                 nbytes=NBYTES, config=CFG)
        assert graph.meta["schedule"] == "bcast-adapt"
        assert graph.meta["tree"] == "chain"
        assert graph.meta["nranks"] == 6
        assert graph.stats.nranks == 6


@pytest.mark.parametrize("name, kw, message", [
    ("no-such", {}, "unknown schedule 'no-such'"),
    ("bcast-adapt", {"tree": "no-such"}, "unknown tree 'no-such'"),
])
def test_unknown_schedule_and_tree_are_rejected(name, kw, message):
    from repro.analysis.schedules import analyze_demo

    with pytest.raises(ValueError, match=message):
        analyze_schedule(name, nranks=4, **kw)
    with pytest.raises(ValueError, match="unknown demo schedule 'no-such'"):
        analyze_demo("no-such")


class TestRecorderCorners:
    def test_requests_posted_before_recording_stay_out_of_the_graph(self):
        from repro.analysis.depgraph import record
        from repro.analysis.schedules import recording_world

        world = recording_world(2)
        early = world.ranks[1].irecv(0, 7, 64)  # posted before record attaches
        doomed = world.ranks[1].irecv(0, 8, 64)

        def launch():
            world.ranks[1].cancel_recv(doomed)
            world.ranks[0].isend(1, 7, 64)

        graph = record(world, launch)
        assert early.completed and doomed.cancelled
        (send,) = graph.nodes.values()
        # The recv that took the send was never recorded: nothing to pair.
        assert send.kind == "send" and not graph.dep_edges
        assert graph.unmatched_sends == [send.nid]

    def test_an_abandoned_send_leaves_the_match_queue(self):
        from repro.analysis.depgraph import record
        from repro.analysis.schedules import recording_world
        from repro.config import RuntimeConfig

        world = recording_world(2, config=RuntimeConfig(reliable=True, retry_limit=1))
        sends = []

        def launch():
            world.kill_rank(1)
            # Rendezvous-sized: only an ack completes it, and none comes.
            sends.append(world.ranks[0].isend(1, 5, 1 << 20))

        graph = record(world, launch)
        (node,) = graph.nodes.values()
        assert sends[0].cancelled and node.cancelled
        assert graph.unmatched_sends == [] and lint(graph).ok

    def test_waitany_gates_on_its_winner_and_sleep_on_nothing(self):
        from repro.analysis.depgraph import record
        from repro.analysis.schedules import recording_world
        from repro.mpi import ProcletDriver, Sleep, WaitAny

        world = recording_world(2)
        won = []

        def rank0(rt):
            first = rt.irecv(1, 1, 64)
            second = rt.irecv(1, 2, 64)
            i, _ = yield WaitAny([first, second])
            won.append(i)
            yield Sleep(1e-6)
            yield rt.isend(1, 3, 64)

        def rank1(rt):
            yield rt.isend(0, 2, 64)
            yield rt.irecv(0, 3, 64)
            yield rt.isend(0, 1, 64)

        def launch():
            for rank, program in ((0, rank0), (1, rank1)):
                ProcletDriver(world.ranks[rank], program(world.ranks[rank]))

        graph = record(world, launch)
        assert won == [1]
        nodes = {n.describe(): n.nid for n in graph.nodes.values()}
        waitany = nodes["waitany[rank 0]"]
        assert [(e.src, e.via) for e in graph.order_edges if e.dst == waitany] == [
            (nodes["recv[0<-1 tag=2 64B]"], "waitany")]
        # The send after the sleep carries no dependency from before it.
        after = nodes["send[0->1 tag=3 64B]"]
        assert not [e for e in graph.dep_edges + graph.order_edges
                    if e.dst == after]


class TestLinter:
    def test_deadlock_cycle_detected(self):
        graph = deadlock_demo(nranks=4)
        report = lint(graph)
        assert not report.ok
        cycle = report.by_rule("deadlock-cycle")
        assert len(cycle) == 1
        assert "waits-for cycle" in cycle[0].message
        assert cycle[0].path  # per-rank blocked descriptions
        assert len(graph.blocked) == 4  # every rank stuck in its send

    def test_deadlock_demo_all_sends_unmatched(self):
        report = lint(deadlock_demo(nranks=2))
        assert len(report.by_rule("unmatched-send")) == 2

    def test_tag_mismatch_detected(self):
        report = lint(tag_mismatch_demo())
        rules = {f.rule for f in report.findings}
        assert "tag-mismatch" in rules
        f = report.by_rule("tag-mismatch")[0]
        assert (f.rank, f.peer, f.tag) == (0, 1, 7)

    @staticmethod
    def _graph(*nodes, blocked=(), edges=()):
        """A hand-built graph: ``nodes`` are ``(kind, rank, peer, tag)``,
        numbered from 0; sends and recvs are left unmatched."""
        graph = DepGraph()
        for nid, (kind, rank, peer, tag) in enumerate(nodes):
            graph.nodes[nid] = OpNode(nid, kind, rank, peer=peer, tag=tag)
            if kind == "send":
                graph.unmatched_sends.append(nid)
            elif kind == "recv":
                graph.unmatched_recvs.append(nid)
        graph.blocked = list(blocked)
        graph.dep_edges = [DepEdge(a, b, SYNC, "blocking-order") for a, b in edges]
        return graph

    def test_peer_mismatch_detected(self):
        # Rank 1 expects tag 5 from rank 2, but rank 0 sent it.
        report = lint(self._graph(("send", 0, 1, 5), ("recv", 1, 2, 5)))
        (f,) = report.errors
        assert f.rule == "peer-mismatch"
        assert (f.rank, f.peer, f.tag) == (0, 1, 5)
        assert "rank 1 expects the message from rank 2" in f.message
        assert f.path == ("send[0->1 tag=5 0B]", "recv[1<-2 tag=5 0B]")

    def test_blocked_recv_is_unmatched_and_lone_recv_leaked(self):
        # Both recvs never match; only the one a waiter blocks on is an
        # unmatched-recv, the other is a request nobody waits for.
        graph = self._graph(
            ("recv", 1, 0, 3), ("recv", 2, 0, 4),
            blocked=[BlockedWait(1, "wait", (0,), (0,))],
        )
        report = lint(graph)
        assert sorted((f.rule, f.rank, f.peer, f.tag) for f in report.errors) == [
            ("leaked-request", 2, 0, 4), ("unmatched-recv", 1, 0, 3),
        ]
        assert not report.ok

    def test_wait_on_a_peerless_op_is_no_deadlock_cycle(self):
        # Rank 0 is left waiting on a compute: no rank to wait for.
        graph = self._graph(("compute", 0, None, None),
                            blocked=[BlockedWait(0, "compute", (0,), (0,))])
        assert not lint(graph).by_rule("deadlock-cycle")

    def test_only_survivor_to_survivor_ops_strand_after_a_failure(self):
        # Rank 3 died: the send to it is repair debris, and so is the
        # zero-byte survivor send; the receive between survivors strands.
        graph = self._graph(("send", 0, 3, 1), ("send", 1, 2, 2), ("recv", 1, 2, 4))
        graph.meta["failed_ranks"] = [3]
        (f,) = lint(graph).by_rule("stranded-survivor")
        assert (f.rank, f.peer, f.tag) == (1, 2, 4)
        assert f.message.endswith("(failed ranks: [3])")

    def test_graph_cycle_detected(self):
        graph = self._graph(("compute", 0, None, None),
                            ("compute", 0, None, None),
                            edges=[(0, 1), (1, 0)])
        (f,) = lint(graph).by_rule("graph-cycle")
        assert f.severity == "error"
        assert f.path == ("compute[rank 0]",) * 3

    def test_m_not_greater_than_n_flags_risk(self):
        cfg = CollectiveConfig(segment_size=4 * 1024, posted_recvs=1, inflight_sends=3)
        graph = analyze_schedule("bcast-adapt", nranks=4, tree="chain",
                                 nbytes=32 * 1024, config=cfg)
        report = lint(graph)
        assert report.ok  # warnings, not errors: the schedule still completes
        rules = {f.rule for f in report.findings}
        assert "unexpected-risk" in rules       # static M <= N rule
        assert "unexpected-messages" in rules   # ...and it actually happened
        assert graph.stats.unexpected_eager > 0

    def test_m_greater_than_n_is_quiet(self):
        report = lint(analyze_schedule("bcast-adapt", nranks=4, tree="chain",
                                       nbytes=32 * 1024, config=CFG))
        assert not report.findings

    def test_callback_cancelled_request_not_leaked(self):
        # Regression: a spare recv cancelled from another request's
        # completion callback used to surface as leaked-request — the
        # recorder resolved completions by post-order bookkeeping, so a
        # withdrawal it never observed left the node dangling. Resolution
        # is by request identity now (the op_cancelled observer hook).
        from repro.analysis.depgraph import record
        from repro.analysis.schedules import recording_world

        world = recording_world(2)
        nbytes = 2 * 1024  # eager

        def launch():
            r1 = world.ranks[1]
            spare = r1.irecv(0, tag=9, nbytes=nbytes)  # never matched
            primary = r1.irecv(0, tag=5, nbytes=nbytes)
            primary.add_callback(lambda _r: spare.cancel())
            world.ranks[0].isend(1, tag=5, nbytes=nbytes)

        graph = record(
            world, launch,
            meta={"schedule": "cancel-regression", "nranks": 2},
        )
        report = lint(graph)
        assert not report.by_rule("leaked-request"), report.render()
        assert not report.by_rule("unmatched-recv")
        cancelled = [n for n in graph.nodes.values() if n.cancelled]
        assert len(cancelled) == 1
        assert cancelled[0].tag == 9

    def test_render_mentions_verdict(self):
        report = lint(analyze_schedule("bcast-adapt", nranks=4, nbytes=NBYTES, config=CFG))
        text = report.render()
        assert "CERTIFIED: 0 synchronization dependencies" in text
        report2 = lint(deadlock_demo(nranks=2))
        text2 = report2.render()
        assert "deadlock-cycle" in text2
        # A broken schedule must never read as certified.
        assert "NOT CERTIFIED" in text2
        assert "CERTIFIED: 0 synchronization" not in text2


class TestCli:
    def test_lint_adapt_certifies(self, capsys):
        assert main(["lint", "bcast-adapt", "--ranks", "6", "--tree", "binomial",
                     "--nbytes", "65536"]) == 0
        out = capsys.readouterr().out
        assert "CERTIFIED: 0 synchronization dependencies" in out

    def test_lint_blocking_shows_coupling(self, capsys):
        assert main(["lint", "bcast-blocking", "--ranks", "6",
                     "--nbytes", "65536"]) == 0
        out = capsys.readouterr().out
        assert "sibling-coupling" in out
        assert "blocking-order" in out

    def test_lint_deadlock_exits_nonzero(self, capsys):
        assert main(["lint", "deadlock-demo"]) == 1
        assert "deadlock-cycle" in capsys.readouterr().out

    def test_lint_window_override(self, capsys):
        assert main(["lint", "bcast-adapt", "--ranks", "4", "--tree", "chain",
                     "--nbytes", "32768", "--segment-size", "4096",
                     "--posted-recvs", "1", "--inflight-sends", "3"]) == 0
        assert "unexpected-risk" in capsys.readouterr().out


@settings(max_examples=12, deadline=None)
@given(
    algo=st.sampled_from([bcast_adapt, reduce_adapt]),
    tree_builder=st.sampled_from([binary_tree, binomial_tree, chain_tree]),
    nranks=st.integers(min_value=2, max_value=9),
    segments=st.integers(min_value=1, max_value=5),
)
def test_sanitized_adapt_runs_clean(algo, tree_builder, nranks, segments):
    """Property: ADAPT collectives drain under the runtime sanitizer for any
    small tree shape, and their recorded graphs always certify at zero sync."""
    spec = small_test_machine(nodes=max(1, -(-nranks // 8)))
    world = MpiWorld(spec, nranks, sanitize=True)
    comm = Communicator(world)
    cfg = CollectiveConfig(segment_size=8 * 1024)
    nbytes = segments * cfg.segment_size
    tree = tree_builder(nranks)
    kw = {"op": SUM} if algo is reduce_adapt else {}
    ctx = CollectiveContext(comm, 0, nbytes, cfg, tree=tree, **kw)
    handle = algo(ctx)
    world.run()  # raises SanitizerError on any invariant violation
    assert handle.done
    assert world.sanitizer.checks_run > 0

    name = "bcast-adapt" if algo is bcast_adapt else "reduce-adapt"
    tree_name = {binary_tree: "binary", binomial_tree: "binomial",
                 chain_tree: "chain"}[tree_builder]
    graph = analyze_schedule(name, nranks=nranks, tree=tree_name,
                             nbytes=nbytes, config=cfg)
    report = lint(graph)
    assert report.ok
    assert certify(graph).zero_sync
