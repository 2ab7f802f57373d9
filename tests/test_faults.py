"""Fault-injection layer: determinism, reliability, degraded collectives.

End-to-end tests of ``repro.faults`` (DESIGN.md §17) in **data mode** with
the runtime sanitizer on wherever a run is expected to drain cleanly:

* identical fault plans (same seed) replay byte-identical fault timelines;
* with the reliable transport, ADAPT collectives are bit-correct over a
  fabric that drops and duplicates messages, and the sanitizer's
  conservation check accounts for every wire attempt;
* a fail-stopped rank is detected and ADAPT routes around it — broadcast
  adopts the orphans, reduce drops the dead subtree — while blocking and
  Waitall-style schedules hang forever;
* bandwidth flaps and stalls slow a run down without breaking it.
"""

import numpy as np
import pytest

from repro.collectives import (
    allgather_adapt,
    allreduce_adapt,
    barrier_adapt,
    bcast_adapt,
    bcast_blocking,
    bcast_nonblocking,
    gather_adapt,
    reduce_adapt,
    reduce_scatter_adapt,
    scatter_adapt,
)
from repro.collectives.base import CollectiveContext
from repro.config import CollectiveConfig, RuntimeConfig
from repro.faults import (
    FailureDetector,
    FaultInjector,
    FaultPlan,
    FlapSpec,
    KillSpec,
    LossSpec,
    PartitionSpec,
    StallSpec,
)
from repro.faults.plan import CorruptSpec
from repro.machine import small_test_machine
from repro.mpi import SUM, Communicator, MpiWorld
from repro.noise import NoiseInjector
from repro.obs.spans import CAT_FAULT
from repro.trees import topology_aware_tree

SMALL_CONFIG = CollectiveConfig(segment_size=4 * 1024, inflight_sends=2, posted_recvs=3)
NBYTES = 64 * 1024


def make_world(nranks=24, reliable=False, **kw):
    spec = small_test_machine()  # 3 nodes x 2 sockets x 4 cores = 24 slots
    kw.setdefault("sanitize", True)
    kw.setdefault("config", RuntimeConfig(reliable=reliable))
    return MpiWorld(spec, nranks, carry_data=True, **kw)


def bcast_payload(nbytes, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8)


def reduce_payloads(nranks, nbytes, seed=0):
    rng = np.random.default_rng(seed)
    return {
        r: rng.integers(0, 50, size=nbytes, dtype=np.uint8) for r in range(nranks)
    }


def expected_reduce(data, ranks=None, op=SUM):
    acc = None
    for r in sorted(data) if ranks is None else sorted(ranks):
        acc = data[r].copy() if acc is None else op(acc, data[r])
    return acc


def launch_bcast(world, algo=bcast_adapt, root=0, nbytes=NBYTES):
    comm = Communicator(world)
    data = bcast_payload(nbytes)
    tree = topology_aware_tree(world.topology, list(comm.ranks), root)
    ctx = CollectiveContext(comm, root, nbytes, SMALL_CONFIG, tree=tree, data=data)
    return algo(ctx), data, tree


def launch_reduce(world, algo=reduce_adapt, root=0, nbytes=NBYTES):
    comm = Communicator(world)
    data = reduce_payloads(comm.size, nbytes)
    tree = topology_aware_tree(world.topology, list(comm.ranks), root)
    ctx = CollectiveContext(
        comm, root, nbytes, SMALL_CONFIG, tree=tree, data=data, op=SUM
    )
    return algo(ctx), data, tree


def run_with_faults(world, plan, horizon=0.05):
    """Arm a plan's injector and drive the world to drain."""
    injector = FaultInjector(world, plan)
    injector.arm(horizon)
    world.run()
    return injector


def bcast_elapsed(plan=None):
    world = make_world(reliable=bool(plan and plan.losses))
    handle, data, _ = launch_bcast(world)
    if plan is None:
        world.run()
    else:
        run_with_faults(world, plan)
    assert handle.done
    return handle.elapsed()


# -- plan validation ----------------------------------------------------------


class TestPlanValidation:
    def test_drop_probability_range(self):
        with pytest.raises(ValueError):
            LossSpec(drop=1.5)
        with pytest.raises(ValueError):
            LossSpec(drop=-0.1)
        with pytest.raises(ValueError):
            LossSpec(duplicate=2.0)

    def test_kill_time_nonnegative(self):
        with pytest.raises(ValueError):
            KillSpec(rank=1, time=-1.0)

    def test_stall_time_and_duration(self):
        with pytest.raises(ValueError, match="stall time"):
            StallSpec(rank=1, time=-1.0, duration=1e-3)
        with pytest.raises(ValueError, match="stall duration"):
            StallSpec(rank=1, time=0.0, duration=0.0)

    def test_flap_period_and_duty(self):
        with pytest.raises(ValueError, match="flap period"):
            FlapSpec(link="nic", factor=0.5, period=0.0)
        with pytest.raises(ValueError, match="flap duty"):
            FlapSpec(link="nic", factor=0.5, period=1e-3, duty=1.0)

    def test_flap_factor_range(self):
        with pytest.raises(ValueError):
            FlapSpec(link="nic", factor=0.0, period=1e-3)
        with pytest.raises(ValueError):
            FlapSpec(link="nic", factor=1.5, period=1e-3)

    def test_kill_rank_in_range(self):
        world = make_world()
        with pytest.raises(ValueError):
            FaultInjector(world, FaultPlan(kills=[KillSpec(rank=99, time=1e-3)]))

    def test_stall_rank_in_range(self):
        world = make_world()
        with pytest.raises(ValueError):
            FaultInjector(
                world, FaultPlan(stalls=[StallSpec(rank=-1, time=0.0, duration=1e-3)])
            )

    def test_noise_injector_rank_validation(self):
        world = make_world()
        with pytest.raises(ValueError):
            NoiseInjector(world, 5.0, ranks=[0, world.nranks])
        with pytest.raises(ValueError):
            NoiseInjector(world, 5.0, ranks=[-1])


# -- determinism --------------------------------------------------------------


def _lossy_kill_run(seed):
    plan = FaultPlan(
        losses=[LossSpec(drop=0.02, duplicate=0.01)],
        kills=[KillSpec(rank=17, time=2e-4)],
        seed=seed,
        detect_delay=1e-4,
    )
    world = make_world(reliable=True)
    handle, _, _ = launch_bcast(world, nbytes=128 * 1024)
    injector = run_with_faults(world, plan)
    counters = {
        "dropped": injector.dropped,
        "duplicated": injector.duplicated,
        "kills_done": injector.kills_done,
    }
    return injector.timeline, counters, world.transport_stats(), handle.done


class TestDeterminism:
    def test_identical_seeds_identical_timelines(self):
        t1, c1, s1, done1 = _lossy_kill_run(seed=5)
        t2, c2, s2, done2 = _lossy_kill_run(seed=5)
        assert t1 == t2  # byte-identical event timelines
        assert c1 == c2
        assert s1 == s2
        assert done1 and done2

    def test_different_seeds_diverge(self):
        t1, _, _, _ = _lossy_kill_run(seed=5)
        t2, _, _, _ = _lossy_kill_run(seed=6)
        assert t1 != t2


# -- lossy fabric + reliable transport ----------------------------------------


class TestLossyFabric:
    def test_bcast_bit_correct_under_drops(self):
        world = make_world(reliable=True)
        handle, data, _ = launch_bcast(world)
        plan = FaultPlan(losses=[LossSpec(drop=0.02, duplicate=0.002)], seed=2)
        injector = run_with_faults(world, plan)
        assert handle.done
        assert injector.dropped > 0, "fabric never dropped anything"
        stats = world.transport_stats()
        assert stats["retransmits"] >= injector.dropped
        for r in range(world.nranks):
            np.testing.assert_array_equal(
                np.asarray(handle.output[r]).view(np.uint8), data,
                err_msg=f"rank {r} bytes corrupted by recovery",
            )

    def test_reduce_bit_correct_under_drops(self):
        world = make_world(reliable=True)
        handle, data, _ = launch_reduce(world)
        plan = FaultPlan(losses=[LossSpec(drop=0.02)], seed=2)
        injector = run_with_faults(world, plan)
        assert handle.done
        assert injector.dropped > 0
        np.testing.assert_array_equal(
            np.asarray(handle.output[0]).view(np.uint8), expected_reduce(data)
        )

    def test_duplicates_are_suppressed(self):
        world = make_world(reliable=True)
        handle, data, _ = launch_bcast(world)
        plan = FaultPlan(losses=[LossSpec(drop=0.0, duplicate=0.2)], seed=3)
        injector = run_with_faults(world, plan)
        assert handle.done
        assert injector.duplicated > 0
        stats = world.transport_stats()
        assert stats["duplicates_suppressed"] == injector.duplicated
        for r in range(world.nranks):
            np.testing.assert_array_equal(
                np.asarray(handle.output[r]).view(np.uint8), data
            )

    def test_conservation_counters_balance(self):
        # The sanitizer enforces this at drain; restate it explicitly so a
        # regression names the broken counter instead of just raising.
        world = make_world(reliable=True)
        handle, _, _ = launch_bcast(world)
        plan = FaultPlan(losses=[LossSpec(drop=0.03, duplicate=0.01)], seed=4)
        injector = run_with_faults(world, plan)
        assert handle.done
        stats = world.transport_stats()
        assert stats["transmissions"] + injector.duplicated == (
            stats["fresh_deliveries"]
            + stats["duplicates_suppressed"]
            + stats["msgs_lost_dead"]
            + injector.dropped
        )

    @pytest.mark.parametrize(
        "name",
        ["scatter", "gather", "allreduce", "barrier", "allgather", "reduce_scatter"],
    )
    def test_extension_collectives_bit_correct_under_drops(self, name):
        # The Section 2.2.3 extension program must survive the same lossy
        # fabric as bcast/reduce: drop 1% of data messages (plus a few
        # duplicates) and demand byte-exact outputs with the sanitizer on.
        world = make_world(reliable=True)
        comm = Communicator(world)
        n = comm.size
        # scatter/gather move each rank's block exactly once, so give them
        # bigger blocks (more segments on the wire) for drops to hit.
        nbytes = n * (16384 if name in ("scatter", "gather") else 4096)
        tree = topology_aware_tree(world.topology, list(comm.ranks), 0)
        rng = np.random.default_rng(9)

        def block_ranges():
            base, rem = divmod(nbytes, n)
            out, off = [], 0
            for i in range(n):
                ln = base + (1 if i < rem else 0)
                out.append((off, ln))
                off += ln
            return out

        def out(handle, r):
            return np.asarray(handle.output[r]).view(np.uint8)

        if name == "scatter":
            data = rng.integers(0, 256, nbytes, dtype=np.uint8)
            ctx = CollectiveContext(comm, 0, nbytes, SMALL_CONFIG, tree=tree, data=data)
            handle = scatter_adapt(ctx)
        elif name == "gather":
            ranges = block_ranges()
            data = {
                r: rng.integers(0, 256, ranges[r][1], dtype=np.uint8)
                for r in range(n)
            }
            ctx = CollectiveContext(comm, 0, nbytes, SMALL_CONFIG, tree=tree, data=data)
            handle = gather_adapt(ctx)
        elif name == "allreduce":
            data = {r: rng.integers(0, 50, nbytes, dtype=np.uint8) for r in range(n)}
            ctx = CollectiveContext(
                comm, 0, nbytes, SMALL_CONFIG, tree=tree, data=data, op=SUM
            )
            handle = allreduce_adapt(ctx)
        elif name == "barrier":
            ctx = CollectiveContext(comm, 0, 0, SMALL_CONFIG, tree=tree)
            handle = barrier_adapt(ctx)
        elif name == "allgather":
            ranges = block_ranges()
            data = {
                r: rng.integers(0, 256, ranges[r][1], dtype=np.uint8)
                for r in range(n)
            }
            ctx = CollectiveContext(comm, 0, nbytes, SMALL_CONFIG, data=data)
            handle = allgather_adapt(ctx)
        else:  # reduce_scatter
            data = {r: rng.integers(0, 40, nbytes, dtype=np.uint8) for r in range(n)}
            ctx = CollectiveContext(comm, 0, nbytes, SMALL_CONFIG, data=data, op=SUM)
            handle = reduce_scatter_adapt(ctx)

        # Seed chosen so even the sparse collectives (scatter/gather move
        # ~40 messages; expected drops at 1% is 0.4) see at least one drop.
        plan = FaultPlan(losses=[LossSpec(drop=0.01, duplicate=0.001)], seed=13)
        injector = run_with_faults(world, plan)
        assert handle.done, f"{name}_adapt never completed under a lossy fabric"
        if name != "barrier":  # a 0-byte barrier may see too few messages to drop
            assert injector.dropped > 0, "fabric never dropped anything"

        if name == "scatter":
            for r, (off, ln) in enumerate(block_ranges()):
                np.testing.assert_array_equal(
                    out(handle, r), data[off : off + ln], err_msg=f"rank {r}"
                )
        elif name == "gather":
            np.testing.assert_array_equal(
                out(handle, 0), np.concatenate([data[r] for r in range(n)])
            )
        elif name == "allreduce":
            expected = expected_reduce(data)
            for r in range(n):
                np.testing.assert_array_equal(
                    out(handle, r), expected, err_msg=f"rank {r}"
                )
        elif name == "allgather":
            expected = np.concatenate([data[r] for r in range(n)])
            for r in range(n):
                np.testing.assert_array_equal(
                    out(handle, r), expected, err_msg=f"rank {r}"
                )
        elif name == "reduce_scatter":
            full = expected_reduce(data)
            for r, (off, ln) in enumerate(block_ranges()):
                np.testing.assert_array_equal(
                    out(handle, r), full[off : off + ln], err_msg=f"rank {r}"
                )


# -- fail-stop + degraded collectives -----------------------------------------


def _interior_victim(tree):
    """A non-root rank that has children (so orphans exist to adopt)."""
    return next(r for r in range(1, len(tree.children)) if tree.children[r])


def _leaf_victim(tree):
    return next(
        r for r in range(len(tree.children) - 1, 0, -1) if not tree.children[r]
    )


class TestFailStop:
    def test_adapt_bcast_routes_around_dead_interior_rank(self):
        baseline = bcast_elapsed()
        world = make_world()
        handle, data, tree = launch_bcast(world)
        victim = _interior_victim(tree)
        plan = FaultPlan(
            kills=[KillSpec(rank=victim, time=0.3 * baseline)], detect_delay=1e-4
        )
        run_with_faults(world, plan)
        assert handle.done, "survivors did not complete around the dead rank"
        assert victim in handle.excused
        assert handle.report.degraded
        assert victim in handle.report.failed_ranks
        assert handle.report.adoptions, "no orphan was adopted"
        for r in range(world.nranks):
            if r == victim:
                continue
            np.testing.assert_array_equal(
                np.asarray(handle.output[r]).view(np.uint8), data,
                err_msg=f"survivor {r} got wrong bytes",
            )

    def test_adapt_reduce_drops_dead_subtree(self):
        world = make_world()
        handle, data, tree = launch_reduce(world)
        victim = _leaf_victim(tree)
        # Kill the leaf before it can contribute anything.
        plan = FaultPlan(kills=[KillSpec(rank=victim, time=1e-6)], detect_delay=1e-4)
        run_with_faults(world, plan)
        assert handle.done
        assert handle.report.degraded
        out = np.asarray(handle.output[0]).view(np.uint8)
        total = expected_reduce(data)
        without_victim = expected_reduce(data, ranks=set(data) - {victim})
        # The dead leaf's contribution is lost segment by segment: a segment
        # it had already pushed out before the kill is folded in, the rest
        # are skipped. Every segment must match one of the two sums exactly.
        seg = SMALL_CONFIG.segment_size
        lost = 0
        for s in range(0, NBYTES, seg):
            got = out[s:s + seg]
            if np.array_equal(got, without_victim[s:s + seg]):
                lost += 1
            else:
                np.testing.assert_array_equal(
                    got, total[s:s + seg],
                    err_msg=f"segment at {s} matches neither sum",
                )
        assert lost > 0, "victim killed at t=1us still contributed everything"

    @pytest.mark.parametrize("algo", [bcast_blocking, bcast_nonblocking])
    def test_blocking_schedules_hang_forever(self, algo):
        baseline = bcast_elapsed()
        # sanitize=False: the hang legitimately strands live-rank requests.
        world = make_world(sanitize=False)
        handle, _, tree = launch_bcast(world, algo=algo)
        victim = _interior_victim(tree)
        plan = FaultPlan(
            kills=[KillSpec(rank=victim, time=0.3 * baseline)], detect_delay=1e-4
        )
        run_with_faults(world, plan)
        # The world drained (nothing can make progress) yet the collective
        # never completed: the blocking/Waitall schedule has no recovery.
        assert not handle.done
        assert len(handle.done_time) < world.nranks

    def test_no_leaked_requests_after_crash(self):
        # sanitize=True would raise at drain if the crash leaked any live
        # request or unaccounted message; reaching this assert is the test.
        world = make_world(reliable=True, observe=True)
        handle, _, tree = launch_bcast(world)
        victim = _interior_victim(tree)
        plan = FaultPlan(
            losses=[LossSpec(drop=0.01)],
            kills=[KillSpec(rank=victim, time=1e-4)],
            seed=7,
            detect_delay=1e-4,
        )
        injector = run_with_faults(world, plan)
        assert handle.done
        assert injector.kills_done == 1
        assert world.sanitizer.checks_run > 0
        # The crash is one zero-length span on the victim's track.
        killed = [
            (s.track, s.begin, s.end)
            for s in world.obs.by_category(CAT_FAULT) if s.name == "killed"
        ]
        assert killed == [(("rank", victim), 1e-4, 1e-4)]


def test_kill_at_the_instant_of_a_queued_completion_withdraws_it():
    # The kill is armed first, so it fires first in the epoch; the victim's
    # completion queued for the same instant must not run, a survivor's
    # must.
    world = make_world(nranks=4, sanitize=False)
    kill_at = 2e-6
    injector = FaultInjector(world, FaultPlan(kills=[KillSpec(rank=1, time=kill_at)]))
    injector.arm(1e-3)
    fired = []
    for rank in (1, 2):
        end = world.ranks[rank].cpu.execute(kill_at, fired.append, rank)
        assert end == kill_at
    world.run()
    assert injector.kills_done == 1 and 1 in world.failed_ranks
    assert fired == [2]


# -- flaps and stalls ---------------------------------------------------------


class TestDegradedFabric:
    def test_flapping_nic_slows_but_completes(self):
        clean = bcast_elapsed()
        world = make_world()
        handle, data, _ = launch_bcast(world)
        plan = FaultPlan(
            flaps=[FlapSpec(link="nic", factor=0.05, period=2e-5, duty=0.5)],
            seed=1,
        )
        injector = run_with_faults(world, plan)
        assert handle.done
        assert injector.flap_toggles > 0, "no flap ever landed on a link"
        assert any(kind == "flap" for _, kind, _ in injector.timeline)
        assert handle.elapsed() > clean
        for r in range(world.nranks):
            np.testing.assert_array_equal(
                np.asarray(handle.output[r]).view(np.uint8), data
            )

    def test_stall_delays_completion(self):
        clean = bcast_elapsed()
        world = make_world()
        handle, _, tree = launch_bcast(world)
        victim = _interior_victim(tree)
        plan = FaultPlan(
            stalls=[StallSpec(rank=victim, time=0.2 * clean, duration=5e-3)]
        )
        injector = run_with_faults(world, plan)
        assert handle.done
        assert injector.stalls_done == 1
        assert handle.elapsed() > clean


# -- partition plans ----------------------------------------------------------


MAJORITY = tuple(range(16))
MINORITY = tuple(range(16, 24))


class TestPartitionPlanValidation:
    def test_needs_two_groups(self):
        with pytest.raises(ValueError):
            PartitionSpec(groups=((0, 1, 2),), start=0.0, heal=1.0)

    def test_groups_nonempty(self):
        with pytest.raises(ValueError):
            PartitionSpec(groups=((0, 1), ()), start=0.0, heal=1.0)

    def test_groups_disjoint(self):
        with pytest.raises(ValueError, match="disjoint"):
            PartitionSpec(groups=((0, 1, 2), (2, 3)), start=0.0, heal=1.0)

    def test_heal_after_start(self):
        with pytest.raises(ValueError, match="heal"):
            PartitionSpec(groups=((0,), (1,)), start=1e-3, heal=1e-3)

    def test_start_nonnegative(self):
        with pytest.raises(ValueError, match="start"):
            PartitionSpec(groups=((0,), (1,)), start=-1e-3, heal=1e-3)

    def test_injector_requires_world_coverage(self):
        world = make_world()
        spec = PartitionSpec(groups=((0, 1), (2, 3)), start=0.0, heal=1e-3)
        with pytest.raises(ValueError, match="cover"):
            FaultInjector(world, FaultPlan(partitions=[spec]))

    def test_phi_parameters_validated(self):
        with pytest.raises(ValueError, match="detect_delay"):
            FaultPlan(detect_delay=-1e-3)
        with pytest.raises(ValueError):
            FaultPlan(phi_threshold=0.0)
        with pytest.raises(ValueError):
            FaultPlan(heartbeat_period=-1.0)

    def test_plan_from_dict_roundtrips_partitions(self):
        import dataclasses

        from repro.faults.plan import plan_from_dict

        plan = FaultPlan(
            partitions=[
                PartitionSpec(groups=(MAJORITY, MINORITY), start=1e-4,
                              heal=2e-3)
            ],
            phi_threshold=6.0, heartbeat_period=5e-4, adaptive=True,
        )
        rebuilt = plan_from_dict(dataclasses.asdict(plan))
        assert rebuilt == plan
        assert rebuilt.partitions[0].severs(0, 20)
        assert not rebuilt.partitions[0].severs(16, 23)

    def test_unlisted_rank_is_on_no_side(self):
        spec = PartitionSpec(groups=((0, 1), (2, 3)), start=0.0, heal=1e-3)
        assert (spec.side_of(1), spec.side_of(2), spec.side_of(7)) == (0, 1, None)
        assert not spec.severs(0, 7) and not spec.severs(7, 3)


# -- adaptive detector: suspect / confirm / retract ---------------------------


class TestAdaptiveDetector:
    def _world_and_detector(self, detect=1e-3):
        world = make_world(8)
        return world, FailureDetector(world, detect_delay=detect)

    def test_suspect_confirms_only_after_delay(self):
        # Regression: suspect() must route through the delayed confirm path,
        # not declare the failure synchronously.
        world, det = self._world_and_detector()
        det.suspect(3, reason="ack-timeout")
        assert 3 in det.suspected
        assert 3 not in det.failed, "confirmed with no detect_delay elapsed"
        world.run()
        assert 3 in det.failed
        assert world.engine.now >= 1e-3

    def test_suspect_dedups_per_rank(self):
        # Regression: re-suspecting must not stack confirm timers or
        # duplicate suspicion records.
        world, det = self._world_and_detector()
        det.suspect(3, reason="ack-timeout")
        det.suspect(3, reason="ack-timeout")
        det.suspect(3, reason="phi")
        assert len(det.suspicions) == 1
        assert len(det._confirm_timers) == 1
        world.run()
        assert 3 in det.failed
        det.suspect(3)  # already failed: a no-op, not a new suspicion
        assert len(det.suspicions) == 1

    def test_evidence_in_window_retracts_before_confirm(self):
        world, det = self._world_and_detector()
        seen_failed, seen_alive = [], []
        det.subscribe(seen_failed.append, alive_fn=seen_alive.append)
        det.suspect(3)
        world.engine.call_after(5e-4, det.observe_alive, 3)
        world.run()
        assert 3 not in det.failed and 3 not in det.suspected
        assert det.false_kills == 0, "a retracted suspicion is not a kill"
        assert 3 not in det.ever_confirmed
        assert seen_failed == []
        assert seen_alive == [3]
        assert [r for _, r in det.retractions] == [3]

    def test_retraction_after_confirm_counts_false_kill(self):
        world, det = self._world_and_detector(detect=1e-4)
        seen_failed, seen_alive = [], []
        det.subscribe(seen_failed.append, alive_fn=seen_alive.append)
        det.suspect(3)
        world.engine.call_after(2e-3, det.observe_alive, 3)
        world.run()
        assert seen_failed == [3], "the confirm never fanned out"
        assert seen_alive == [3], "the retraction never fanned out"
        assert 3 not in det.failed
        assert det.false_kills == 1
        # The drain excuse never shrinks: survivors abandoned work while
        # the confirmation stood.
        assert 3 in det.ever_confirmed

    def test_fresh_heartbeats_overrule_ack_suspicion(self):
        # Asymmetric reachability: the observer hears the peer's beats, so
        # an exhausted sender's suspect() must be a no-op.
        world, det = self._world_and_detector()
        det._hb_until = 1.0
        det.observe_alive(3, heartbeat=True)
        det.suspect(3, reason="ack-timeout")
        assert 3 not in det.suspected
        assert det.suspicions == []

    def test_phi_grows_with_silence(self):
        world, det = self._world_and_detector()
        det._hb_until = 1.0
        assert det.suspect_level(3) == 0.0  # no heartbeat history yet
        det.observe_alive(3, heartbeat=True)
        assert det.suspect_level(3) == 0.0
        world.engine.call_after(5e-3, lambda: None)
        world.run()
        assert det.suspect_level(3) > 1.0

    def test_suspicion_cancels_the_phi_timer(self):
        # A beat arms a phi timer 18.4 ms out; the monitoring window ends
        # at 1 ms, after which heartbeats no longer overrule an ack-timeout
        # suspicion. The suspicion takes over, and the phi timer is gone.
        world, det = self._world_and_detector()
        det._hb_until = 1e-3
        det.observe_alive(3, heartbeat=True)
        assert 3 in det._phi_timers
        world.engine.call_at(2e-3, det.suspect, 3, "ack-timeout")
        world.run()
        assert 3 not in det._phi_timers
        assert [(t, r) for t, r, _ in det.suspicions] == [(2e-3, 3)]
        assert 3 in det.failed

    @pytest.mark.parametrize("suspect_first", [True, False])
    def test_kill_and_confirmed_suspicion_fan_out_once(self, suspect_first):
        # The rank is both suspected (confirm after 1 ms) and killed (its
        # report after 1 ms too), 0.5 ms apart: whichever lands second
        # finds it failed — a late report returns, an early one cancels
        # the pending confirm — and subscribers hear one failure.
        world, det = self._world_and_detector()
        seen = []
        det.subscribe(seen.append)
        first, second = ((det.suspect, det.observe_kill) if suspect_first
                         else (det.observe_kill, det.suspect))
        first(3)
        world.engine.call_at(5e-4, second, 3)
        world.run()
        assert seen == [3]
        assert det.failed == {3} and not det._confirm_timers
        assert len(det.suspicions) == 1


# -- injector actions ---------------------------------------------------------


class TestInjectorActions:
    def test_second_kill_of_a_rank_is_a_no_op(self):
        world = make_world(8)
        injector = FaultInjector(world, FaultPlan(
            kills=[KillSpec(rank=3, time=1e-4), KillSpec(rank=3, time=2e-4)],
        ))
        injector.arm(1e-3)
        world.run()
        assert injector.kills_done == 1
        assert [e for e in injector.timeline if e[1] == "kill"] == [
            (1e-4, "kill", "rank 3"),
        ]
        assert world.failed_ranks == {3}

    def test_stalling_a_dead_rank_is_a_no_op(self):
        world = make_world(8)
        injector = FaultInjector(world, FaultPlan(
            kills=[KillSpec(rank=3, time=1e-4)],
            stalls=[StallSpec(rank=3, time=2e-4, duration=1e-3)],
        ))
        injector.arm(1e-3)
        world.run()
        assert injector.stalls_done == 0
        assert "stall" not in {kind for _, kind, _ in injector.timeline}

    def test_flap_before_any_traffic_touches_nothing(self):
        # Links are built lazily by traffic: with none yet, a flap toggle
        # finds no link to degrade and records nothing.
        world = make_world(8)
        injector = FaultInjector(world, FaultPlan(
            flaps=[FlapSpec(link="nic", factor=0.5, period=1e-3)],
        ))
        assert injector.arm(2e-3) == 4  # two degrade/restore pairs
        world.run()
        assert world.fabric.links() == {}
        assert injector.flap_toggles == 0 and injector.timeline == []


# -- partitions end-to-end ----------------------------------------------------


def partition_plan(start, heal, **kw):
    return FaultPlan(
        partitions=[PartitionSpec(groups=(MAJORITY, MINORITY), start=start,
                                  heal=heal)],
        **kw,
    )


class TestPartitionSeverance:
    def test_heal_before_deadline_is_absorbed(self):
        # Cut mid-broadcast, heal well inside the ~19.4ms detection
        # deadline: parked sends resume, nobody is ever confirmed failed,
        # and every rank gets exact bytes on the original tree.
        world = make_world(reliable=True)
        handle, data, _ = launch_bcast(world)
        injector = run_with_faults(
            world, partition_plan(start=5e-5, heal=4e-3), horizon=0.05
        )
        assert handle.done
        det = world.failure_detector
        assert det.failed == set() and det.ever_confirmed == set()
        assert det.false_kills == 0
        assert injector.partitions_done == 1 and injector.heals_done == 1
        assert injector.severed + injector.severed_control > 0, (
            "the cut never severed anything"
        )
        assert not handle.report.degraded
        assert handle.elapsed() >= 4e-3  # the minority waited out the cut
        for r in range(world.nranks):
            np.testing.assert_array_equal(
                np.asarray(handle.output[r]).view(np.uint8), data,
                err_msg=f"rank {r} bytes wrong after heal",
            )

    def test_heal_after_deadline_falls_through_to_kill_path(self):
        from repro.recovery import launch_recover
        from repro.trees import topology_aware_tree as _tree

        world = make_world(reliable=True)
        comm = Communicator(world)
        data = bcast_payload(NBYTES)
        ctx = CollectiveContext(
            comm, 0, NBYTES, SMALL_CONFIG,
            tree=_tree(world.topology, list(comm.ranks), 0), data=data,
        )
        handle = launch_recover("bcast", ctx)
        injector = run_with_faults(
            world, partition_plan(start=5e-5, heal=0.03), horizon=0.06
        )
        assert handle.done
        det = world.failure_detector
        membership = world.membership
        # The quorum side committed an epoch excluding the minority...
        assert membership.view.epoch >= 1
        assert membership.view.failed == frozenset(MINORITY)
        # ...and the healed stragglers were evicted, not re-admitted: a
        # heal past the deadline is literally the kill path.
        assert set(MINORITY) <= world.failed_ranks
        assert det.false_kills == len(MINORITY)
        assert any(kind == "evict" for _, kind, _ in membership.timeline)
        assert injector.severed + injector.severed_control > 0
        assert handle.report.degraded
        for r in MAJORITY:
            np.testing.assert_array_equal(
                np.asarray(handle.output[r]).view(np.uint8), data,
                err_msg=f"survivor {r} bytes wrong",
            )

    def test_minority_observer_parks_without_quorum(self):
        # The observer (rank 0) lands on the minority side: it confirms the
        # silent majority but its agreement round must park in
        # awaiting-quorum instead of committing a split-brain view.
        from repro.recovery import launch_recover
        from repro.trees import topology_aware_tree as _tree

        world = make_world(reliable=True)
        comm = Communicator(world)
        data = bcast_payload(NBYTES)
        ctx = CollectiveContext(
            comm, 0, NBYTES, SMALL_CONFIG,
            tree=_tree(world.topology, list(comm.ranks), 0), data=data,
        )
        handle = launch_recover("bcast", ctx)
        plan = FaultPlan(
            partitions=[
                PartitionSpec(groups=(tuple(range(8)), tuple(range(8, 24))),
                              start=5e-5, heal=0.03)
            ]
        )
        run_with_faults(world, plan, horizon=0.06)
        membership = world.membership
        assert membership.quorum_parks >= 1, "the gate never engaged"
        assert membership.view.epoch == 0, "a minority committed an epoch"
        assert world.failed_ranks == set(), "someone was wrongly evicted"
        assert handle.done

    def test_conservation_accounts_for_severed(self):
        # Satellite of the sanitizer check: severed != leaked. Restated
        # explicitly (like test_conservation_counters_balance) so a
        # regression names the broken counter.
        world = make_world(reliable=True)
        handle, _, _ = launch_bcast(world)
        plan = partition_plan(start=5e-5, heal=4e-3,
                              losses=[LossSpec(drop=0.02)], seed=6)
        injector = run_with_faults(world, plan, horizon=0.05)
        assert handle.done
        stats = world.transport_stats()
        assert injector.severed > 0, "no data-plane launch was ever severed"
        assert stats["transmissions"] + injector.duplicated == (
            stats["fresh_deliveries"]
            + stats["duplicates_suppressed"]
            + stats["msgs_lost_dead"]
            + injector.dropped
            + injector.severed
            + stats["checksum_rejects"]
        )

    def test_partition_timeline_deterministic(self):
        def run_once():
            world = make_world(reliable=True)
            handle, _, _ = launch_bcast(world)
            injector = run_with_faults(
                world, partition_plan(start=5e-5, heal=4e-3, seed=11),
                horizon=0.05,
            )
            assert handle.done
            return injector.timeline, world.transport_stats()

        assert run_once() == run_once()

    def test_raw_rts_severed_is_data_plane(self):
        # The RTS is a counted launch of the wire protocol in both transport
        # modes: a raw RTS cut by a partition books as data-plane `severed`,
        # like a raw eager payload or rendezvous data flow would.
        world = make_world(nranks=4, reliable=False, sanitize=False)
        world.ranks[0].isend(2, 7, NBYTES, data=bcast_payload(NBYTES))
        plan = FaultPlan(
            partitions=[PartitionSpec(groups=((0, 1), (2, 3)), start=0.0,
                                      heal=1e-3)]
        )
        injector = run_with_faults(world, plan, horizon=2e-3)
        assert injector.severed == 1


# -- send parking: retry budget spent, peer only suspected --------------------


class TestSendParking:
    """A reliable send that exhausts its retries against a peer the detector
    has not confirmed parks and keeps probing; a retraction resumes it, a
    confirmation abandons it."""

    def _parked_send(self):
        # Every data message to rank 1 is dropped, so the rendezvous data
        # flow never acks. Three attempts spend the budget (~14 ms); the
        # detector confirms only 50 ms after the suspicion it then raises.
        world = make_world(
            nranks=2, config=RuntimeConfig(reliable=True, retry_limit=3),
            observe=True,
        )
        detector = FailureDetector(world, detect_delay=0.05)
        injector = FaultInjector(
            world, FaultPlan(losses=[LossSpec(drop=1.0, dst=1)])
        )
        data = bcast_payload(NBYTES)
        send = world.ranks[0].isend(1, 7, NBYTES, data=data)
        recv = world.ranks[1].irecv(0, 7, NBYTES)
        world.run(until=0.03)
        sender = world.ranks[0]
        assert sender.sends_parked == 1
        assert list(sender._parked) == [1]
        assert detector.suspected == {1} and detector.failed == set()
        assert not send.completed
        # Attempts 2 and 3 are retransmits; the third timeout parks the
        # send once, and a parked send keeps probing.
        records = _fault_records(world)
        assert records[:3] == [
            ("retransmit", 0), ("retransmit", 0), ("send-park", 0),
        ]
        assert set(records[3:]) == {("retransmit", 0)}
        return world, detector, injector, sender, send, recv, data

    def test_retraction_resumes_parked_send(self):
        world, detector, injector, sender, send, recv, data = self._parked_send()
        injector.plan = FaultPlan()  # the lossy link heals...
        detector.observe_alive(1)    # ...and rank 1 shows signs of life
        world.run()
        assert send.completed and not send.cancelled
        # Resumed at once, not at the next capped-backoff probe (8 ms away).
        assert send.completion_time - 0.03 < 1e-3
        np.testing.assert_array_equal(recv.data, data)
        assert sender._parked == {} and sender._reliable_pending == {}
        assert sender.sends_abandoned == 0
        assert detector.failed == set() and detector.retractions
        assert "send-abandon" not in {name for name, _ in _fault_records(world)}

    def test_confirmation_abandons_parked_send(self):
        world, detector, _, sender, send, recv, _ = self._parked_send()
        world.run()
        assert detector.failed == {1}
        assert send.cancelled
        assert sender.sends_abandoned == 1
        assert sender._parked == {} and sender._reliable_pending == {}
        assert not recv.completed
        (abandon,) = [s for s in world.obs.by_category(CAT_FAULT)
                      if s.name == "send-abandon"]
        assert abandon.track == ("rank", 0)
        assert abandon.args["peer"] == 1 and abandon.args["tag"] == 7


def _fault_records(world):
    """``(name, rank)`` of every fault span the observed world recorded."""
    return [(s.name, s.track[1]) for s in world.obs.by_category(CAT_FAULT)]


class TestTransportFaultRecords:
    """The reliable transport's rarer returns, each in an observed run:
    duplicates, NACKs that find nothing to resend, and a delivery to a
    receive cancelled while its rendezvous data was on the wire."""

    DATA = np.arange(4096, dtype=np.uint8)

    def _pair(self, plan):
        """One reliable 4 KiB eager send from rank 0 to rank 1 under
        ``plan``, observed."""
        world = make_world(nranks=2, reliable=True, observe=True,
                           sanitize=False)
        injector = FaultInjector(world, plan)
        send = world.ranks[0].isend(1, 7, 4096, data=self.DATA)
        recv = world.ranks[1].irecv(0, 7, 4096)
        injector.arm(1.0)
        return world, injector, send, recv

    def test_duplicate_delivered_once_and_acked_twice(self):
        world, _, send, recv = self._pair(
            FaultPlan(losses=[LossSpec(duplicate=1.0)])
        )
        world.run()
        np.testing.assert_array_equal(recv.data, self.DATA)
        stats = world.transport_stats()
        assert (stats["fresh_deliveries"], stats["duplicates_suppressed"],
                stats["acks_sent"]) == (1, 1, 2)
        assert stats["transmissions"] == 1  # the second ack resends nothing
        assert _fault_records(world) == [("dup-suppressed", 1)]

    # Rank 1's CPU is stolen for 3 ms, past the sender's first retry (2 ms
    # after the send) and before its second (6 ms): attempts 1 and 2 both
    # wait out the stall, in order.
    STALL = StallSpec(rank=1, time=0.0, duration=3e-3)

    def test_nack_after_the_ack_resends_nothing(self):
        # Attempt 1 goes out clean; corruption is switched on before the
        # retry, so attempt 2 is corrupt. Rank 1 acks attempt 1, then NACKs
        # attempt 2; the NACK finds the send acked and is dropped.
        world, injector, send, recv = self._pair(
            FaultPlan(stalls=[self.STALL], corrupts=[CorruptSpec(rate=0.0)])
        )
        world.run(until=1e-3)
        injector.plan = FaultPlan(stalls=[self.STALL],
                                  corrupts=[CorruptSpec(rate=1.0)])
        world.run()
        np.testing.assert_array_equal(recv.data, self.DATA)
        stats = world.transport_stats()
        assert (stats["transmissions"], stats["acks_sent"],
                stats["nacks_sent"]) == (2, 1, 1)
        assert world.ranks[0]._reliable_pending == {}
        assert _fault_records(world) == [("retransmit", 0), ("crc-reject", 1)]

    def test_nack_to_a_dead_sender_is_dropped(self):
        # Attempt 1 is corrupt; its sender dies (1 ms) before the stalled
        # receiver NACKs it (3 ms), so nothing is ever resent.
        world, _, send, recv = self._pair(FaultPlan(
            stalls=[self.STALL], corrupts=[CorruptSpec(rate=1.0)],
            kills=[KillSpec(rank=0, time=1e-3)],
        ))
        world.run()
        stats = world.transport_stats()
        assert (stats["transmissions"], stats["retransmits"],
                stats["nacks_sent"]) == (1, 0, 1)
        assert not recv.completed
        assert _fault_records(world) == [("killed", 0), ("crc-reject", 1)]

    def test_cancelled_rendezvous_recv_drops_late_data(self):
        # Raw transport, 256 KiB: the receive is withdrawn halfway through
        # the data flow, so the arriving payload has no receive to fill.
        nbytes = 256 << 10
        data = np.arange(nbytes, dtype=np.uint8)
        world = make_world(nranks=2, observe=True, sanitize=False)
        send = world.ranks[0].isend(1, 7, nbytes, data=data)
        recv = world.ranks[1].irecv(0, 7, nbytes)
        world.run(until=1e-5)  # the data flow ends near 19 us
        assert not recv.completed
        assert world.ranks[1].cancel_recv(recv)
        world.run()
        assert send.completed
        assert recv.cancelled and recv.data is None
        (stale,) = world.obs.by_category(CAT_FAULT)
        assert (stale.name, stale.track) == ("stale-deliver", ("rank", 1))
        assert stale.args == {"peer": 0, "tag": 7}


class TestQuorumFunctions:
    def test_majority_commits_minority_parks(self):
        from repro.recovery.membership import (
            SurvivorView,
            has_quorum,
            quorum_commit,
        )

        view = SurvivorView(epoch=0, failed=frozenset(),
                            members=tuple(range(24)))
        assert has_quorum(MINORITY, 24)  # 16 survivors: majority
        assert not has_quorum(MAJORITY, 24)  # 8 survivors: minority
        assert not has_quorum(range(12), 24)  # even split: nobody commits
        committed = quorum_commit(view, MINORITY, 24)
        assert committed is not None and committed.epoch == 1
        assert committed.failed == frozenset(MINORITY)
        assert quorum_commit(view, MAJORITY, 24) is None
        assert quorum_commit(view, range(12), 24) is None

    def test_reconcile_is_epoch_precedence(self):
        from repro.recovery.membership import SurvivorView, reconcile_views

        old = SurvivorView(epoch=0, failed=frozenset(),
                           members=tuple(range(24)))
        new = SurvivorView(epoch=1, failed=frozenset(MINORITY),
                           members=MAJORITY)
        assert reconcile_views(old, new) is new
        assert reconcile_views(new, old) is new
