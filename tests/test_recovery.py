"""Live recovery subsystem (DESIGN.md S20): membership agreement, tree
re-grafting / epoch restart, and end-to-end payload integrity.

Complements the survivor-oracle fuzz sweep in ``test_property_fuzz.py``
with targeted unit and integration tests:

* the membership protocol commits the right view, is RNG-free
  (byte-identical timelines per seed), and survives coalesced multi-kills;
* re-grafting is pure and correct (adoption through dead chains, root-dead
  strands the survivors);
* corruption is caught by checksums and repaired by NACK retransmits —
  bit-exact delivery, balanced counters, validated ``plan_from_dict``;
* the harness surfaces recovery (``RunResult.failed_ranks`` /
  ``time_to_repair``, obs metrics, the Chrome recovery track);
* the failure detector replays pre-existing failures to late subscribers
  (regression: a kill firing before the detector existed was never
  declared).
"""

import numpy as np
import pytest

from repro.collectives.base import CollectiveContext
from repro.collectives.models import ADAPT_COLLECTIVES
from repro.config import CollectiveConfig, RuntimeConfig
from repro.faults import FaultInjector, FaultPlan, FailureDetector, KillSpec
from repro.faults.plan import CorruptSpec, plan_from_dict
from repro.machine import small_test_machine
from repro.mpi import SUM, Communicator, MpiWorld
from repro.recovery import launch_recover
from repro.trees import binary_tree, chain_tree, topology_aware_tree
from repro.trees.regraft import (
    live_ring,
    nearest_live_ancestor,
    regraft_tree,
)

SMALL_CONFIG = CollectiveConfig(segment_size=4 * 1024, inflight_sends=2,
                                posted_recvs=3)
NBYTES = 64 * 1024


def make_world(nranks=24, reliable=False, **kw):
    spec = small_test_machine()  # 3 nodes x 2 sockets x 4 cores = 24 slots
    kw.setdefault("sanitize", False)
    kw.setdefault("config", RuntimeConfig(reliable=reliable))
    return MpiWorld(spec, nranks, carry_data=True, **kw)


def recover_ctx(world, name, root=0, nbytes=NBYTES, data=None):
    comm = Communicator(world)
    kw = {}
    if ADAPT_COLLECTIVES[name].tree:
        kw["tree"] = topology_aware_tree(world.topology, list(comm.ranks), root)
    return CollectiveContext(comm, root, nbytes, SMALL_CONFIG, data=data,
                             op=SUM, **kw)


def run_kill(name, victim=5, nranks=12, data=None, kill_at=2e-4,
             detect=2e-4, root=0):
    world = make_world(nranks)
    ctx = recover_ctx(world, name, root=root, data=data)
    handle = launch_recover(name, ctx)
    plan = FaultPlan(kills=[KillSpec(rank=victim, time=kill_at)],
                     detect_delay=detect)
    FaultInjector(world, plan).arm(1.0)
    world.run()
    return world, handle


class TestRegraft:
    def test_adoption_through_dead_chain(self):
        # chain 0-1-2-3-4-5: kill 1 and 2; 3 must land on 0.
        t = chain_tree(6)
        rg = regraft_tree(t, {1, 2})
        assert rg.adoptions == {3: 0}
        assert rg.survivor.parent[3] == 0
        assert 3 in rg.survivor.children[0]
        assert rg.survivor.parent[1] is None and rg.survivor.children[1] == []
        rg.check({1, 2})

    def test_binary_tree_orphans_sorted_onto_adopter(self):
        t = binary_tree(7)  # 0 -> 1,2; 1 -> 3,4; 2 -> 5,6
        rg = regraft_tree(t, {1})
        assert rg.adoptions == {3: 0, 4: 0}
        assert rg.survivor.children[0] == [2, 3, 4]
        rg.check({1})

    def test_root_dead_strands_survivors(self):
        t = binary_tree(7)
        rg = regraft_tree(t, {0})
        assert rg.lost == {1, 2, 3, 4, 5, 6}
        assert rg.adoptions == {}

    def test_incremental_equals_batch(self):
        t = binary_tree(15)
        once = regraft_tree(t, {1, 5})
        twice = regraft_tree(regraft_tree(t, {1}).survivor, {5})
        live = [r for r in range(15) if r not in {1, 5}]
        assert [once.survivor.parent[r] for r in live] == [
            twice.survivor.parent[r] for r in live
        ]

    def test_nearest_live_ancestor_none_when_chain_dead(self):
        t = chain_tree(4)
        assert nearest_live_ancestor(t, 3, {0, 1, 2}) is None
        assert nearest_live_ancestor(t, 3, {1, 2}) == 0

    def test_live_ring_preserves_order(self):
        assert live_ring([3, 1, 4, 1, 5], {1}) == [3, 4, 5]


class TestMembership:
    def test_commit_agrees_on_killed_rank(self):
        world, handle = run_kill("bcast", victim=5,
                                 data=np.arange(NBYTES, dtype=np.uint8) % 251)
        ms = world.membership
        assert ms.view.epoch == 1
        assert sorted(ms.view.failed) == [5]
        assert 5 not in ms.view.members
        assert len(ms.view.members) == 11
        assert ms.time_to_repair() is not None and ms.time_to_repair() > 0

    def test_coalesced_multi_kill_single_round(self):
        # Two kills within the grace window fold into one agreement round.
        world = make_world(12)
        data = np.arange(NBYTES, dtype=np.uint8) % 251
        ctx = recover_ctx(world, "bcast", data=data)
        handle = launch_recover("bcast", ctx)
        plan = FaultPlan(
            kills=[KillSpec(rank=5, time=2e-4), KillSpec(rank=7, time=2.5e-4)],
            detect_delay=1e-4,
        )
        FaultInjector(world, plan).arm(1.0)
        world.run()
        ms = world.membership
        assert sorted(ms.view.failed) == [5, 7]
        assert handle.done
        for r in range(12):
            if r in (5, 7):
                continue
            np.testing.assert_array_equal(
                np.asarray(handle.output[r]).view(np.uint8), data
            )

    # Rank 5's suspicion (4e-4) opens a round one grace window later
    # (9e-4); the token then takes about 0.8 us a hop. Each scenario adds a
    # fault the detector does not report before the token gets there (a
    # kill is suspected 2e-4 after it): ``(kills, stalls, timeline)``, the
    # timeline without times.
    ROUND_FAULTS = {
        # Rank 11 dies before the token reaches it; its hop times out.
        "kill-in-collect": ([(11, 9.02e-4)], [], [
            ("suspect", "rank 11"),
            ("silent", "rank 11 unresponsive during collect"),
            ("commit", "epoch=1 failed=[5, 11] members=10"),
        ]),
        "kill-in-distribute": ([(11, 9.1e-4)], [], [
            ("suspect", "rank 11"),
            ("silent", "rank 11 unresponsive during distribute"),
            ("commit", "epoch=1 failed=[5, 11] members=10"),
        ]),
        # While the hop to dead rank 3 waits out its timeout, rank 9 is
        # suspected; rank 4's hop merges it, so the token skips rank 9.
        "merged-mid-collect": ([(3, 9.01e-4), (9, 9.01e-4)], [], [
            ("suspect", "rank 3"), ("suspect", "rank 9"),
            ("silent", "rank 3 unresponsive during collect"),
            ("commit", "epoch=1 failed=[3, 5, 9] members=9"),
        ]),
        # Rank 8 is suspected after the collect pass sampled suspicions:
        # the commit leaves it pending, and a second round takes it.
        "after-collect": ([(11, 9.1e-4), (8, 1e-3)], [], [
            ("suspect", "rank 11"), ("suspect", "rank 8"),
            ("silent", "rank 11 unresponsive during distribute"),
            ("commit", "epoch=1 failed=[5, 11] members=10"),
            ("round", "#2 proposing [5, 8, 11]"),
            ("commit", "epoch=2 failed=[5, 8, 11] members=9"),
        ]),
        # Rank 7 is alive but stalled for 5 ms: the timeout beats its late
        # processing of the token, which then changes nothing.
        "stalled-hop": ([], [(7, 9e-4, 5e-3)], [
            ("silent", "rank 7 unresponsive during collect"),
            ("commit", "epoch=1 failed=[5, 7] members=10"),
        ]),
    }

    @pytest.mark.parametrize("scenario", sorted(ROUND_FAULTS))
    def test_fault_during_agreement_round(self, scenario):
        from repro.faults.plan import StallSpec
        from repro.recovery.membership import HOP_TIMEOUT

        kills, stalls, expected = self.ROUND_FAULTS[scenario]
        world = make_world(12)
        data = np.arange(NBYTES, dtype=np.uint8) % 251
        handle = launch_recover("bcast", recover_ctx(world, "bcast", data=data))
        plan = FaultPlan(
            kills=[KillSpec(rank=5, time=2e-4)]
            + [KillSpec(rank=r, time=t) for r, t in kills],
            stalls=[StallSpec(rank=r, time=t, duration=d) for r, t, d in stalls],
            detect_delay=2e-4,
        )
        FaultInjector(world, plan).arm(1.0)
        world.run()
        ms = world.membership
        assert [(kind, detail) for _, kind, detail in ms.timeline] == [
            ("suspect", "rank 5"), ("round", "#1 proposing [5]"),
        ] + expected
        # The silent hop waited out its full timeout, and the round ended
        # within its bound: 2·|live| − 2 hops of HOP_TIMEOUT, |live| = 11.
        t_round = ms.timeline[1][0]
        (t_silent,) = [t for t, kind, _ in ms.timeline if kind == "silent"]
        t_commit = next(t for t, kind, _ in ms.timeline if kind == "commit")
        assert HOP_TIMEOUT <= t_silent - t_round
        assert t_commit - t_round <= 20 * HOP_TIMEOUT
        assert world.failed_ranks == {5} | {r for r, _ in kills}
        assert handle.done

    def test_excluded_rank_failing_again_starts_no_round(self):
        # Rank 3 stalls past the phi crossing twice (adaptive detector).
        # The first confirmation commits epoch 1 without it; it comes back
        # (stale-alive: committed epochs are permanent). The second
        # confirmation names a rank the view already excludes, so the
        # membership service ignores it.
        from repro.faults.plan import StallSpec

        world = make_world(8)
        data = np.zeros(NBYTES, dtype=np.uint8)
        handle = launch_recover("bcast", recover_ctx(world, "bcast", data=data))
        plan = FaultPlan(stalls=[StallSpec(rank=3, time=1e-5, duration=0.03),
                                 StallSpec(rank=3, time=0.06, duration=0.3)],
                         adaptive=True)
        FaultInjector(world, plan).arm(0.5)
        world.run()
        det, ms = world.failure_detector, world.membership
        assert [r for _, r, _ in det.suspicions] == [3, 3]
        assert det.false_kills == 2
        assert [kind for _, kind, _ in ms.timeline] == [
            "suspect", "round", "commit", "stale-alive", "stale-alive",
        ]
        assert ms.view.epoch == 1 and ms.rounds_run == 1
        assert handle.done

    def test_ring_walk_declares_silent_hops(self):
        from repro.recovery.membership import ring_walk

        # Rank 1 was proposed; rank 4 never answers the token.
        assert ring_walk(range(6), frozenset({1}), [0, 2, 3, 5]) == {1, 4}

    def test_epoch_that_empties_the_communicator_restarts_nothing(self):
        # A two-rank communicator inside an 8-rank world loses both ranks:
        # the world keeps a majority and commits, but the restart collective
        # has no survivor to relaunch among, so it ends with both excused.
        world = make_world(8)
        comm = Communicator(world, ranks=[6, 7])
        data = {r: np.full(NBYTES, r + 1, dtype=np.uint8) for r in range(2)}
        ctx = CollectiveContext(comm, 0, NBYTES, SMALL_CONFIG, data=data, op=SUM)
        handle = launch_recover("allgather", ctx)
        plan = FaultPlan(kills=[KillSpec(rank=6, time=1e-6),
                                KillSpec(rank=7, time=1e-6)],
                         detect_delay=1e-4)
        FaultInjector(world, plan).arm(1.0)
        world.run()
        assert world.membership.view.describe() == "epoch=1 failed=[6, 7] members=6"
        assert handle.done and handle.done_time == {}
        assert handle.excused == {0, 1}
        assert handle.report.epoch == 1 and handle.report.notes == []

    def test_timeline_byte_identical_per_seed(self):
        def timeline():
            world, _ = run_kill(
                "allreduce",
                data={r: np.full(NBYTES, r + 1, dtype=np.uint8)
                      for r in range(12)},
            )
            return list(world.membership.timeline)

        a, b = timeline(), timeline()
        assert a == b and a, "membership timelines must replay byte-identically"

    def test_late_subscriber_gets_current_view_replay(self):
        world, _ = run_kill("bcast", victim=5,
                            data=np.zeros(NBYTES, dtype=np.uint8))
        seen = []
        world.membership.subscribe(seen.append)
        world.run()
        assert [v.epoch for v in seen] == [1]
        assert sorted(seen[0].failed) == [5]

    def test_launch_recover_rejects_unknown_collective(self):
        world = make_world(4)
        ctx = recover_ctx(world, "bcast")
        with pytest.raises(ValueError, match="unknown collective"):
            launch_recover("bitonic_sort", ctx)


class TestDetectorReplay:
    def test_preexisting_failure_reaches_late_detector(self):
        # Regression: a rank killed while no detector existed must still be
        # declared to detectors (and their subscribers) created afterwards.
        world = make_world(8)
        world.kill_rank(3)
        detector = FailureDetector(world, detect_delay=1e-4)
        seen = []
        detector.subscribe(seen.append)
        world.run()
        assert detector.is_failed(3)
        assert seen == [3]

    def test_replay_respects_detect_delay(self):
        world = make_world(8)
        world.kill_rank(3)
        detector = FailureDetector(world, detect_delay=5e-4)
        world.run()
        # Declared via the normal delayed path, not instantaneously.
        assert detector.is_failed(3)
        assert world.engine.now >= 5e-4


class TestIntegrity:
    def test_corrupt_bcast_bit_exact_with_balanced_counters(self):
        world = make_world(12, reliable=True, sanitize=True)
        data = np.arange(NBYTES, dtype=np.uint8) % 251
        ctx = recover_ctx(world, "bcast", data=data)
        handle = launch_recover("bcast", ctx)
        plan = FaultPlan(corrupts=[CorruptSpec(rate=0.1)], seed=7)
        inj = FaultInjector(world, plan)
        inj.arm(1.0)
        world.run()
        assert handle.done
        for r in range(12):
            np.testing.assert_array_equal(
                np.asarray(handle.output[r]).view(np.uint8), data,
                err_msg=f"rank {r} delivered corrupted bytes",
            )
        stats = world.transport_stats()
        assert inj.corrupted > 0, "rate=0.1 over many segments must corrupt"
        assert stats["checksum_rejects"] == inj.corrupted
        assert stats["nacks_sent"] == stats["checksum_rejects"]
        assert stats["retransmits"] >= stats["nacks_sent"]

    def test_corruption_timeline_deterministic(self):
        def corrupted_count():
            world = make_world(12, reliable=True, sanitize=True)
            ctx = recover_ctx(world, "bcast",
                              data=np.zeros(NBYTES, dtype=np.uint8))
            launch_recover("bcast", ctx)
            inj = FaultInjector(
                world, FaultPlan(corrupts=[CorruptSpec(rate=0.08)], seed=11)
            )
            inj.arm(1.0)
            world.run()
            return inj.corrupted, inj.timeline

        (c1, t1), (c2, t2) = corrupted_count(), corrupted_count()
        assert (c1, t1) == (c2, t2) and c1 > 0

    def test_corrupt_spec_rate_validated(self):
        with pytest.raises(ValueError, match="corrupt rate"):
            CorruptSpec(rate=1.5)

    def test_plan_from_dict_roundtrips_corrupts(self):
        import dataclasses

        plan = FaultPlan(corrupts=[CorruptSpec(rate=0.05, src=1)], seed=3)
        rebuilt = plan_from_dict(dataclasses.asdict(plan))
        assert rebuilt == plan

    def test_plan_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            plan_from_dict({"kils": [{"rank": 1, "time": 0.1}]})


class TestHarnessSurface:
    def run(self, **kw):
        from repro.harness.runner import run_collective

        spec = small_test_machine()
        return run_collective(spec, 12, "OMPI-adapt", **kw)

    def test_run_collective_recovers_from_kill(self):
        r = self.run(
            operation="allreduce", nbytes=NBYTES, iterations=1,
            mode="sequential", recover=True,
            fault_plan=FaultPlan(kills=[KillSpec(rank=5, time=2e-4)],
                                 detect_delay=2e-4),
        )
        assert r.completed and r.degraded
        assert r.failed_ranks == [5]
        assert r.time_to_repair is not None and r.time_to_repair > 0
        assert all(np.isfinite(r.times))

    def test_recover_metrics_carry_repair(self):
        r = self.run(
            operation="bcast", nbytes=NBYTES, iterations=1,
            mode="sequential", recover=True, observe="metrics",
            fault_plan=FaultPlan(kills=[KillSpec(rank=5, time=2e-4)],
                                 detect_delay=2e-4),
        )
        assert r.metrics["degraded_ranks"] == [5]
        assert r.metrics["time_to_repair"] == pytest.approx(r.time_to_repair)

    def test_recovery_track_in_chrome_trace(self):
        from repro.obs.chrome import chrome_trace_events, validate_chrome_trace

        r = self.run(
            operation="bcast", nbytes=NBYTES, iterations=1,
            mode="sequential", recover=True, observe="trace",
            fault_plan=FaultPlan(kills=[KillSpec(rank=5, time=2e-4)],
                                 detect_delay=2e-4),
        )
        events = chrome_trace_events(r.obs)
        assert validate_chrome_trace({"traceEvents": events}) == []
        repair = [e for e in events
                  if e.get("ph") == "X" and e.get("cat") == "recovery"]
        assert len(repair) == 1
        assert "failed=[5]" in repair[0]["name"]
        names = {e["name"] for e in events if e.get("ph") == "M"}
        assert "process_name" in names

    def test_recover_fault_free_matches_plain(self):
        # Attempt 0 is the unmodified algorithm: recovery armed but unused
        # must report the exact same times as a plain run.
        plain = self.run(operation="allreduce", nbytes=NBYTES, iterations=2,
                         mode="sequential", seed=1)
        armed = self.run(operation="allreduce", nbytes=NBYTES, iterations=2,
                         mode="sequential", seed=1, recover=True)
        assert armed.times == plain.times
        assert not armed.degraded and armed.failed_ranks == []

    def test_recover_byte_identical_across_workers(self):
        # The CI determinism claim, in miniature: the same recovery job run
        # through 1 and 2 workers yields byte-identical wire payloads.
        import json

        from repro.parallel import SimJob, run_jobs

        job = SimJob(
            machine="testbox", nranks=12, operation="allreduce",
            nbytes=NBYTES, iterations=1, mode="sequential", seed=1,
            recover=True,
            fault_plan=FaultPlan(kills=[KillSpec(rank=5, time=2e-4)],
                                 detect_delay=2e-4),
        )
        one = run_jobs([job, job], n_jobs=1)
        two = run_jobs([job, job], n_jobs=2)
        blobs = {
            json.dumps(r.to_dict(), sort_keys=True) for r in one + two
        }
        assert len(blobs) == 1
        assert one[0].failed_ranks == [5]


class TestLintRecovery:
    def test_recovery_demo_lints_clean(self):
        from repro.analysis.lint import lint
        from repro.analysis.schedules import analyze_schedule

        graph = analyze_schedule("recovery-demo", nranks=8)
        assert graph.meta["failed_ranks"] == [2]
        report = lint(graph)
        assert report.ok, report.render()

    def test_stranded_survivor_fires_on_live_live_unmatched(self):
        # A failed run whose *survivors* still have a dangling data recv is
        # a real deadlock, not excusable wreckage.
        from repro.analysis.depgraph import record
        from repro.analysis.lint import lint
        from repro.mpi.proclet import ProcletDriver

        world = make_world(4, sanitize=False)

        def orphan_recv():
            yield world.ranks[0].irecv(1, tag=9, nbytes=4096)  # never sent

        def launch():
            ProcletDriver(world.ranks[0], orphan_recv())
            world.kill_rank(3)

        graph = record(world, launch)
        assert graph.meta["failed_ranks"] == [3]
        report = lint(graph)
        rules = {f.rule for f in report.findings}
        assert "stranded-survivor" in rules, report.render()
