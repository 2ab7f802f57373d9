"""Bounded-staleness quorum collectives (DESIGN.md S25).

Covers the full relaxed family: policy/ledger units, full-quorum
conformance (bit-identical to exact ADAPT), partial-quorum provenance
against the restricted numpy oracle, straggler late-merge arithmetic
(including parking between epochs), the strictly-earlier completion
property under a seeded stall plan, fail-stop quorum shrink, the
min_quorum degradation floor, the SGD staleness frontier, and the
figq experiment's shape claims.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives.base import CollectiveHandle
from repro.collectives.models import COLLECTIVES
from repro.config import DEFAULT_COLLECTIVE, RuntimeConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, StallSpec
from repro.harness import runner
from repro.harness.runner import _drive, run_collective
from repro.libraries.presets import library_by_name, prepare_operation
from repro.machine import small_test_machine
from repro.mpi.communicator import Communicator
from repro.mpi.runtime import MpiWorld
from repro.relaxed import ContributionLedger, QuorumPolicy

ADAPT = library_by_name("OMPI-adapt")
#: The quorum rows of the collective table.
QUORUM_OPS = [name for name, c in COLLECTIVES.items() if c.relaxed]


def payload(nranks: int, nbytes: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        r: rng.integers(0, 256, nbytes, dtype=np.uint8) for r in range(nranks)
    }


def fold(data: dict, ranks) -> np.ndarray:
    """SUM over uint8 payloads (mod 256, associative+commutative = exact)."""
    acc = None
    for r in sorted(ranks):
        acc = data[r].astype(np.uint16) if acc is None else acc + data[r]
    return acc.astype(np.uint8)


def quorum_world(nranks: int, plan: FaultPlan | None = None, *,
                 sanitize: bool = True, observe: bool = False):
    world = MpiWorld(
        small_test_machine(), nranks, config=RuntimeConfig(),
        carry_data=True, sanitize=sanitize, observe=observe,
    )
    injectors = [FaultInjector(world, plan)] if plan is not None else []
    return world, Communicator(world), injectors


def _no_world(*args, **kw):
    raise AssertionError("the error must come before any world is built")


def launch_quorum(comm, op: str, nbytes: int, policy: QuorumPolicy, data):
    prep = prepare_operation(ADAPT, op, policy=policy)
    ctx = prep(comm, 0, nbytes, DEFAULT_COLLECTIVE, data=data)
    return ctx.launch()


class TestQuorumPolicy:
    def test_fraction_resolves_ceil(self):
        assert QuorumPolicy(quorum=0.75).resolve(16) == 12
        assert QuorumPolicy(quorum=0.75).resolve(6) == 5  # ceil(4.5)
        assert QuorumPolicy(quorum=1.0).resolve(7) == 7

    def test_count_clamps_to_size(self):
        assert QuorumPolicy(quorum=10).resolve(6) == 6
        assert QuorumPolicy(quorum=3).resolve(6) == 3

    def test_floor_clamps(self):
        assert QuorumPolicy(min_quorum=9).floor(6) == 6
        assert QuorumPolicy(min_quorum=2).floor(6) == 2

    @pytest.mark.parametrize("bad", [0, -1, 0.0, 1.5, True, "half"])
    def test_rejects_bad_quorum(self, bad):
        with pytest.raises(ValueError):
            QuorumPolicy(quorum=bad)

    def test_rejects_bad_floor_and_window(self):
        with pytest.raises(ValueError):
            QuorumPolicy(min_quorum=0)
        with pytest.raises(ValueError):
            QuorumPolicy(staleness_window=-1)


class TestContributionLedger:
    def test_double_open_raises(self):
        led = ContributionLedger()
        led.open(1, 0)
        with pytest.raises(RuntimeError):
            led.open(1, 0)

    def test_close_unopened_raises(self):
        led = ContributionLedger()
        with pytest.raises(RuntimeError):
            led.close(1, 0, "late")

    def test_double_entry_counters(self):
        led = ContributionLedger()
        for r in range(4):
            led.open(1, r)
        led.close(1, 0, "on-time")
        led.close(1, 1, "late")
        led.close(1, 2, "discarded")
        assert (led.opened, led.on_time, led.late, led.discarded) == (4, 1, 1, 1)
        assert led.open_entries() == [(1, 3)]

    def test_unknown_state_rejected(self):
        led = ContributionLedger()
        led.open(1, 0)
        with pytest.raises(ValueError):
            led.close(1, 0, "misplaced")


class TestMarkLate:
    def test_fires_chain_without_touching_done_time(self):
        h = CollectiveHandle(name="t", start_time=0.0, size=4)
        seen = []
        h.on_rank_done.append(lambda local, t: seen.append((local, t)))
        h.mark_late(2, 1.5)
        assert seen == [(2, 1.5)]
        assert 2 not in h.done_time

    def test_noop_for_already_done_rank(self):
        h = CollectiveHandle(name="t", start_time=0.0, size=4)
        h.mark_done(2, 1.0)
        seen = []
        h.on_rank_done.append(lambda local, t: seen.append(local))
        h.mark_late(2, 2.0)
        assert seen == []
        assert h.done_time[2] == 1.0


class TestFullQuorumConformance:
    """quorum=1.0, zero faults: bit-identical to the exact operation."""

    NRANKS, NBYTES = 6, 4096

    @pytest.mark.parametrize("op", QUORUM_OPS)
    def test_matches_oracle(self, op):
        world, comm, _ = quorum_world(self.NRANKS)
        data = payload(self.NRANKS, self.NBYTES, 11)
        d = data[0] if op == "bcast_quorum" else dict(data)
        h = launch_quorum(comm, op, self.NBYTES, QuorumPolicy(quorum=1.0), d)
        world.run()
        assert h.done
        assert sorted(h.report.contributed_ranks) == list(range(self.NRANKS))
        assert h.report.late_merges == []
        expect = (
            data[0] if op == "bcast_quorum"
            else fold(data, range(self.NRANKS))
        )
        outputs = [0] if op == "reduce_quorum" else range(self.NRANKS)
        for r in outputs:
            assert np.array_equal(h.output[r], expect), (op, r)

    def test_allreduce_bit_identical_to_exact_adapt(self):
        data = payload(self.NRANKS, self.NBYTES, 23)
        world, comm, _ = quorum_world(self.NRANKS)
        hq = launch_quorum(
            comm, "allreduce_quorum", self.NBYTES,
            QuorumPolicy(quorum=1.0), dict(data),
        )
        world.run()
        world2, comm2, _ = quorum_world(self.NRANKS)
        prep = prepare_operation(ADAPT, "allreduce")
        he = prep(comm2, 0, self.NBYTES, DEFAULT_COLLECTIVE,
                  data=dict(data)).launch()
        world2.run()
        assert hq.done and he.done
        for r in range(self.NRANKS):
            assert np.array_equal(hq.output[r], he.output[r]), r


class TestPartialQuorum:
    NRANKS, NBYTES = 6, 4096

    def test_stalled_rank_excluded_and_oracle_restricted(self):
        plan = FaultPlan(stalls=[StallSpec(rank=3, time=1e-5, duration=5e-3)])
        world, comm, injectors = quorum_world(self.NRANKS, plan)
        data = payload(self.NRANKS, self.NBYTES, 7)
        h = launch_quorum(
            comm, "allreduce_quorum", self.NBYTES,
            QuorumPolicy(quorum=0.5), dict(data),
        )
        _drive(world, injectors, lambda: h.done, None)
        world.run()
        assert h.done
        contrib = sorted(h.report.contributed_ranks)
        assert len(contrib) == 3  # ceil(0.5 * 6)
        assert 3 not in contrib  # the stalled rank missed the quorum
        expect = fold(data, contrib)
        for r in h.done_time:
            assert np.array_equal(h.output[r], expect), r
        # Every non-contributor's arrival was explicitly discarded (no
        # later epoch ever opened) — the conservation certificate.
        fates = {m[0] for m in h.report.late_merges}
        assert fates == set(range(self.NRANKS)) - set(contrib)
        assert all(m[2] == -1 for m in h.report.late_merges)
        led = world.staleness_frontier.ledger
        assert led.opened == led.on_time + led.late + led.discarded

    def test_epoch_is_a_span_on_the_chrome_staleness_track(self):
        from repro.obs import validate_chrome_trace
        from repro.obs.chrome import chrome_trace_events, render_chrome_json

        plan = FaultPlan(stalls=[StallSpec(rank=3, time=1e-5, duration=5e-3)])
        world, comm, injectors = quorum_world(self.NRANKS, plan, observe=True)
        h = launch_quorum(
            comm, "allreduce_quorum", self.NBYTES,
            QuorumPolicy(quorum=0.5), payload(self.NRANKS, self.NBYTES, 7),
        )
        _drive(world, injectors, lambda: h.done, None)
        world.run()
        (span,) = world.obs.by_category("staleness")
        assert span.name == "allreduce-quorum epoch 1"
        assert span.track == ("staleness", "frontier")
        assert span.args == {"epoch": 1, "contributed": 3, "excluded": 3}
        assert 0.0 < span.duration <= max(h.done_time.values())
        events = chrome_trace_events(world.obs)
        assert validate_chrome_trace(render_chrome_json(events)) == []
        # The staleness track is its own process (pid 4), one thread.
        assert {"name": "process_name", "ph": "M", "pid": 4, "tid": 0,
                "args": {"name": "staleness"}} in events
        (x,) = [e for e in events if e["ph"] == "X" and e["pid"] == 4]
        assert (x["name"], x["tid"], x["args"]) == (span.name, 0, span.args)

    @pytest.mark.parametrize("op", QUORUM_OPS)
    def test_a_rank_launched_twice_joins_once(self, op):
        world, comm, _ = quorum_world(self.NRANKS)
        data = payload(self.NRANKS, self.NBYTES, 5)
        prep = prepare_operation(ADAPT, op, policy=QuorumPolicy(quorum=1.0))
        d = data[0] if op == "bcast_quorum" else dict(data)
        ctx = prep(comm, 0, self.NBYTES, DEFAULT_COLLECTIVE, data=d)
        h = ctx.launch()
        assert ctx.launch(ranks=[0, 2]) is h  # already launched: no-op
        world.run()
        led = world.staleness_frontier.ledger
        assert led.opened == led.on_time == self.NRANKS
        assert sorted(h.report.contributed_ranks) == list(range(self.NRANKS))
        if op == "bcast_quorum":
            expect = {r: data[0] for r in range(self.NRANKS)}
        elif op == "reduce_quorum":
            expect = {0: fold(data, range(self.NRANKS))}
        else:
            expect = {r: fold(data, range(self.NRANKS)) for r in range(self.NRANKS)}
        for r, want in expect.items():
            assert np.array_equal(h.output[r], want), r

    def test_bcast_straggler_delivery_is_counted_late(self):
        plan = FaultPlan(stalls=[StallSpec(rank=3, time=1e-5, duration=5e-3)])
        world, comm, injectors = quorum_world(self.NRANKS, plan, observe=True)
        data = payload(self.NRANKS, self.NBYTES, 7)
        h = launch_quorum(comm, "bcast_quorum", self.NBYTES,
                          QuorumPolicy(quorum=0.5), data[0])
        _drive(world, injectors, lambda: h.done, None)
        world.run()
        # The stalled rank still got the data, after the close: a late merge.
        assert 3 not in h.report.contributed_ranks
        assert (3, 1, 1) in h.report.late_merges
        assert world.obs.counters["quorum.late_merges"] == len(h.report.late_merges)
        assert world.staleness_frontier.late_merged == len(h.report.late_merges)

    def test_quorum_completes_strictly_earlier_under_stalls(self):
        """The acceptance property: a seeded stall plan, quorum 0.75 —
        allreduce_quorum seals strictly earlier than exact ADAPT, with
        zero silently-lost contributions (sanitizer-certified)."""
        plan = FaultPlan.stall_sweep(
            16, victims=2, duration=6e-3, start=1e-4, seed=9,
        )
        kw = dict(iterations=3, fault_plan=plan, sanitize=True, seed=3)
        exact = run_collective(
            small_test_machine(), 16, "OMPI-adapt", "allreduce",
            16 << 10, **kw,
        )
        relaxed = run_collective(
            small_test_machine(), 16, "OMPI-adapt", "allreduce_quorum",
            16 << 10, quorum=QuorumPolicy(quorum=0.75), **kw,
        )
        assert exact.completed and relaxed.completed
        assert relaxed.mean_time < exact.mean_time
        # Stalled ranks were excluded, and their contributions all have
        # an explicit fate (the sanitize=True pass above certified the
        # ledger balanced at drain).
        assert relaxed.staleness_epoch == 3
        assert len(relaxed.contributed_ranks) < 16
        assert relaxed.late_merges  # stragglers were accounted, not lost

    def test_quorum_kwargs_rejected_for_exact_operations(self, monkeypatch):
        monkeypatch.setattr(runner, "_build_world", _no_world)
        with pytest.raises(ValueError, match=r"applies only to the \*_quorum"):
            run_collective(
                small_test_machine(), 6, "OMPI-adapt", "allreduce",
                4096, quorum=QuorumPolicy(quorum=0.5),
            )


class TestLateMerge:
    NRANKS, NBYTES = 6, 2048

    def _chain_two_epochs(self, stall_duration: float, window: int = 1):
        """Epoch 1 under a stall of rank 5; epoch 2 launched when epoch 1
        completes. Returns (world, h1, h2, d1, d2)."""
        plan = FaultPlan(
            stalls=[StallSpec(rank=5, time=1e-5, duration=stall_duration)]
        )
        world, comm, injectors = quorum_world(self.NRANKS, plan, observe=True)
        d1 = payload(self.NRANKS, self.NBYTES, 31)
        d2 = payload(self.NRANKS, self.NBYTES, 32)
        policy = QuorumPolicy(quorum=0.75, staleness_window=window)
        h1 = launch_quorum(comm, "reduce_quorum", self.NBYTES, policy, dict(d1))
        state = {}

        def open_second(local, _t):
            if "h2" not in state and local == 0:
                state["h2"] = launch_quorum(
                    comm, "reduce_quorum", self.NBYTES, policy, dict(d2)
                )

        h1.on_rank_done.append(open_second)
        _drive(
            world, injectors,
            lambda: "h2" in state and state["h2"].done, None,
        )
        world.run()
        return world, h1, state["h2"], d1, d2

    def test_straggler_merges_into_next_epoch_with_exact_arithmetic(self):
        world, h1, h2, d1, d2 = self._chain_two_epochs(8e-3)
        assert h1.done and h2.done
        assert 5 not in h1.report.contributed_ranks
        # Rank 5's epoch-1 contribution merged into epoch 2.
        merged = [m for m in h1.report.late_merges if m[2] >= 0]
        assert merged == [(5, h1.report.staleness_epoch,
                           h2.report.staleness_epoch)]
        # Epoch 2's root fold = its own contributors' data + the stale
        # epoch-1 payload of rank 5, bit-exactly.
        expect = (
            fold(d2, sorted(h2.report.contributed_ranks)).astype(np.uint16)
            + d1[5]
        ).astype(np.uint8)
        assert np.array_equal(h2.output[0], expect)
        led = world.staleness_frontier.ledger
        assert led.late >= 1
        assert led.opened == led.on_time + led.late + led.discarded
        assert world.obs.counters["quorum.late_merges"] == 1

    def test_contribution_parked_between_epochs_still_merges(self):
        """A straggler arriving after epoch 1 sealed but *before* epoch 2
        opened parks at the frontier and merges once epoch 2's root is
        ready — the window is epoch-numbered, not wall-clock."""
        # Short stall: rank 5 wakes in the gap before rank 0 (the root,
        # still driving epoch 1's down-phase bookkeeping) opens epoch 2.
        world, h1, h2, d1, d2 = self._chain_two_epochs(5e-4)
        assert h1.done and h2.done
        merged = [m for m in h1.report.late_merges if m[2] >= 0]
        if merged:  # timing-dependent: parked-then-merged or direct merge
            assert merged[0][0] == 5
            assert world.staleness_frontier.late_merged >= 1
        led = world.staleness_frontier.ledger
        assert led.opened == led.on_time + led.late + led.discarded

    def _park_sixth(self):
        """Epoch 1 of a quorum-5-of-6 reduce, run alone: the sixth
        contribution (rank 5's) folds after the close and before any later
        epoch exists, so it parks — no open epoch can take it, and one
        still may. No sanitizer: its drain check would flush the parked
        contribution as a discard when the run quiesces."""
        world, comm, _ = quorum_world(self.NRANKS, sanitize=False)
        d1 = payload(self.NRANKS, self.NBYTES, 31)
        policy = QuorumPolicy(quorum=0.75, staleness_window=1)
        h1 = launch_quorum(comm, "reduce_quorum", self.NBYTES, policy, dict(d1))
        world.run()
        frontier = world.staleness_frontier
        assert h1.report.contributed_ranks == {0, 1, 2, 3, 4}
        assert [(p.local, p.from_epoch) for p in frontier._pending] == [(5, 1)]
        assert h1.report.late_merges == []
        return world, comm, h1, d1, policy

    def test_straggler_parked_until_the_next_root_starts(self):
        # Epoch 2's sink opens before its root starts; the root's start
        # drains the parked contribution into its fold.
        world, comm, h1, d1, policy = self._park_sixth()
        d2 = payload(self.NRANKS, self.NBYTES, 32)
        h2 = launch_quorum(comm, "reduce_quorum", self.NBYTES, policy, dict(d2))
        world.run()
        assert h1.report.late_merges == [(5, 1, 2)]
        assert h2.report.contributed_ranks == {0, 1, 2, 3, 4}
        expect = (fold(d2, range(5)).astype(np.uint16) + d1[5]).astype(np.uint8)
        assert np.array_equal(h2.output[0], expect)
        # Epoch 2's own sixth contribution now waits for epoch 3.
        frontier = world.staleness_frontier
        assert [(p.local, p.from_epoch) for p in frontier._pending] == [(5, 2)]

    def test_parked_straggler_expires_with_its_window(self):
        # Epoch 2 is a broadcast, which takes no late contribution: once it
        # opens, no epoch within the window of 1 can absorb rank 5's, so the
        # drain discards it.
        world, comm, h1, _, policy = self._park_sixth()
        launch_quorum(comm, "bcast_quorum", self.NBYTES, policy,
                      payload(1, self.NBYTES, 33)[0])
        frontier = world.staleness_frontier
        assert frontier._pending == []
        assert h1.report.late_merges == [(5, 1, -1)]
        assert frontier.late_discarded == 1
        assert frontier.ledger.entries[(1, 5)] == "discarded"

    def test_window_zero_always_discards(self):
        world, h1, h2, d1, d2 = self._chain_two_epochs(8e-3, window=0)
        assert not [m for m in h1.report.late_merges if m[2] >= 0]
        assert world.staleness_frontier.late_discarded >= 1
        assert world.obs.counters["quorum.discarded"] == \
            world.staleness_frontier.late_discarded
        # Epoch 2's fold contains only its own contributors.
        expect = fold(d2, sorted(h2.report.contributed_ranks))
        assert np.array_equal(h2.output[0], expect)


class TestFailStopShrink:
    def test_dead_rank_shrinks_quorum_instead_of_hanging(self):
        r = run_collective(
            small_test_machine(), 8, "OMPI-adapt", "allreduce_quorum",
            4096, iterations=1, quorum=QuorumPolicy(quorum=1.0), seed=2,
            fault_plan=FaultPlan.single_kill(5, 2e-4),
            time_limit=2.0,
        )
        assert r.completed
        assert r.staleness_epoch >= 1

    def test_root_death_abandons_with_full_accounting(self):
        """The completion point dies: the epoch is abandoned, survivors are
        released, and every open contribution is explicitly discarded —
        conservation holds even for an unrecoverable operation."""
        # Rank 0 (the root) dies mid-ingest and the detector confirms it
        # before the big payload can finish folding.
        plan = FaultPlan.single_kill(0, 1e-5, detect_delay=5e-5)
        # A root kill legitimately strands wreckage mid-schedule, so the
        # runtime sanitizer stays off; the ledger check below is the point.
        world, comm, injectors = quorum_world(6, plan, sanitize=False)
        nbytes = 256 << 10
        data = payload(6, nbytes, 41)
        h = launch_quorum(comm, "allreduce_quorum", nbytes,
                          QuorumPolicy(quorum=1.0), dict(data))
        _drive(world, injectors, lambda: h.done, world.engine.now + 1.0)
        world.run()
        assert h.done
        assert h.report.degraded
        assert 0 in h.report.failed_ranks
        led = world.staleness_frontier.ledger
        # No live contribution left dangling: everything opened is closed,
        # or belongs to the dead root.
        assert all(r == 0 for _, r in led.open_entries())
        discarded = [m for m in h.report.late_merges if m[2] == -1]
        assert discarded  # the survivors' contributions were accounted

    def test_min_quorum_floor_degrades(self):
        from repro.faults.plan import KillSpec

        # Two of four ranks die immediately: fewer live ranks than the
        # min_quorum floor, so the op degrades to all-live completion.
        plan = FaultPlan(kills=[KillSpec(rank=2, time=1e-6),
                                KillSpec(rank=3, time=1e-6)])
        r = run_collective(
            small_test_machine(), 4, "OMPI-adapt", "allreduce_quorum",
            4096, iterations=1, quorum=QuorumPolicy(quorum=1.0, min_quorum=3),
            seed=2,
            fault_plan=plan, time_limit=2.0,
        )
        assert r.completed
        assert r.degraded


    def test_below_min_quorum_degrades_to_all_live(self):
        # Ranks 2 and 3 die before the broadcast reaches them: two live
        # ranks is below the floor of three, so the op stops trading
        # completeness for latency and closes on every live delivery.
        from repro.faults.plan import KillSpec

        plan = FaultPlan(kills=[KillSpec(rank=2, time=1e-6),
                                KillSpec(rank=3, time=1e-6)],
                         detect_delay=1e-4)
        world, comm, injectors = quorum_world(4, plan, sanitize=False)
        data = payload(4, 4096, 7)[0]
        h = launch_quorum(comm, "bcast_quorum", 4096,
                          QuorumPolicy(quorum=1.0, min_quorum=3), data)
        _drive(world, injectors, lambda: h.done, None)
        world.run()
        rep = h.report
        assert rep.degraded and rep.failed_ranks == {2, 3}
        assert rep.notes[0] == ("bcast-quorum: 2 live rank(s) below "
                                "min_quorum 3; degraded to all-live completion")
        assert rep.contributed_ranks == {0, 1}
        assert sorted(h.done_time) == [0, 1]
        for r in (0, 1):
            assert np.array_equal(h.output[r], data)

    def test_retracted_failure_restores_the_target(self):
        # Rank 3's 30 ms stall outlasts the phi crossing (~18.4 ms) plus the
        # confirm delay: the quorum hears it fail and shrinks its target.
        # The stall ends, beats resume, the failure is retracted — and the
        # full target is back, so the op waits for rank 3's contribution.
        plan = FaultPlan(stalls=[StallSpec(rank=3, time=1e-5, duration=0.03)],
                         adaptive=True)
        world, comm, injectors = quorum_world(6, plan)
        data = payload(6, 4096, 7)
        h = launch_quorum(comm, "allreduce_quorum", 4096,
                          QuorumPolicy(quorum=1.0), dict(data))
        _drive(world, injectors, lambda: h.done, None)
        world.run()
        rep = h.report
        assert rep.failed_ranks == {3} and rep.retractions == {3}
        assert world.failure_detector.retractions
        assert rep.contributed_ranks == set(range(6))
        assert not world.ranks[3].cpu.halted  # never killed
        expect = fold(data, range(6))
        for r in h.done_time:
            assert np.array_equal(h.output[r], expect), r

    def test_rank_launched_after_root_loss_is_discarded(self):
        # The IMB chain launches each rank's part when that rank is ready.
        # Rank 5 joins after the root died and the epoch was abandoned: its
        # contribution can never merge, so it is discarded on entry.
        plan = FaultPlan.single_kill(0, 1e-5, detect_delay=5e-5)
        world, comm, injectors = quorum_world(6, plan, sanitize=False)
        prep = prepare_operation(
            ADAPT, "reduce_quorum", policy=QuorumPolicy(quorum=1.0)
        )(comm, 0, 4096, DEFAULT_COLLECTIVE, data=payload(6, 4096, 7))
        h = prep.launch(ranks=range(5))
        for inj in injectors:
            inj.arm(1.0)
        world.run(until=1e-3)
        assert h.done and h.report.failed_ranks == {0}
        assert h.report.late_merges == []
        assert prep.launch(ranks=[5]) is h
        epoch = h.report.staleness_epoch
        led = world.staleness_frontier.ledger
        assert led.entries[(epoch, 5)] == "discarded"
        assert h.report.late_merges == [(5, epoch, -1)]
        world.run()
        assert led.open_entries() == []
        assert led.opened == led.on_time + led.late + led.discarded


class TestStallSweepPlan:
    def test_deterministic_and_seeded(self):
        a = FaultPlan.stall_sweep(16, victims=3, duration=2e-3, seed=4)
        b = FaultPlan.stall_sweep(16, victims=3, duration=2e-3, seed=4)
        c = FaultPlan.stall_sweep(16, victims=3, duration=2e-3, seed=5)
        assert a == b
        assert a != c
        assert len(a.stalls) == 3
        assert len({s.rank for s in a.stalls}) == 3
        assert all(s.duration == 2e-3 for s in a.stalls)

    def test_spread_scatters_start_times(self):
        p = FaultPlan.stall_sweep(
            8, victims=4, duration=1e-3, start=1e-3, spread=5e-3, seed=1,
        )
        times = [s.time for s in p.stalls]
        assert all(1e-3 <= t < 6e-3 for t in times)
        assert len(set(times)) > 1

    def test_validates_victims(self):
        with pytest.raises(ValueError):
            FaultPlan.stall_sweep(4, victims=5)


class TestSgdFrontier:
    def test_reference_converges_with_full_participation(self):
        from repro.apps.sgd import sgd_reference

        prov = [(set(range(4)), [])] * 150
        x, excess = sgd_reference(4, prov, seed=0)
        assert excess < 1e-9

    def test_reference_late_gradients_cost_accuracy(self):
        from repro.apps.sgd import sgd_reference

        exact = [(set(range(4)), [])] * 8
        # Rank 3 is always one epoch stale from epoch 1 on.
        stale = [(set(range(3)), [(3, k - 1)] if k else []) for k in range(8)]
        _, e_exact = sgd_reference(4, exact, seed=1)
        _, e_stale = sgd_reference(4, stale, seed=1)
        assert e_exact >= 0 and e_stale >= 0

    def test_quorum_sgd_faster_than_exact_under_stall(self):
        from repro.apps.sgd import run_sgd

        plan = FaultPlan.stall_sweep(
            8, victims=1, duration=8e-3, start=2e-3, seed=5,
        )
        kw = dict(epochs=6, grad_bytes=16 << 10, compute_per_epoch=5e-4,
                  fault_plan=plan, sanitize=True, seed=4)
        exact = run_sgd(small_test_machine(), 8, quorum=None, **kw)
        relaxed = run_sgd(small_test_machine(), 8,
                          quorum=QuorumPolicy(quorum=0.75), **kw)
        assert exact.completed and relaxed.completed
        assert relaxed.total_runtime < exact.total_runtime
        assert exact.on_time_fraction == 1.0
        assert relaxed.on_time_fraction < 1.0
        # Accounting: every non-on-time gradient merged late or discarded.
        assert relaxed.late_merged + relaxed.discarded > 0

    def test_epochs_after_a_root_loss_never_launch(self):
        from repro.apps.sgd import run_sgd
        from repro.faults.plan import KillSpec

        kw = dict(epochs=3, grad_bytes=2048, time_limit=0.05)
        clean = run_sgd(small_test_machine(), 4, **kw)
        # Rank 0, the allreduce root, dies during epoch 1: that epoch is
        # unrecoverable, so no rank enters epoch 2 and it adds no gradient.
        lost = run_sgd(small_test_machine(), 4, **kw,
                       fault_plan=FaultPlan(kills=[KillSpec(rank=0, time=1.5e-3)]))
        assert clean.completed and not lost.completed and lost.degraded
        assert lost.epoch_times[0] == clean.epoch_times[0]
        assert lost.epoch_times[1:] == [float("inf")] * 2
        assert lost.on_time_fraction == 1 / 3  # epoch 0's four gradients of 12
        assert lost.excess_loss > clean.excess_loss

    def test_sgd_result_round_trips(self):
        from repro.apps.sgd import SgdResult, run_sgd

        r = run_sgd(small_test_machine(), 4, epochs=2, grad_bytes=2048,
                    compute_per_epoch=1e-4, quorum=QuorumPolicy(quorum=0.75),
                    seed=1)
        again = SgdResult.from_dict(r.to_dict())
        assert again.to_dict() == r.to_dict()


class TestFigQ:
    def test_experiment_shape(self):
        from repro.harness.experiments import figq_staleness

        res = figq_staleness.run("small", n_jobs=1, cache=None)
        scenarios = {"fault-free", "stall", "lag", "fail-stop", "noise"}
        assert set(res.column("scenario")) == scenarios
        # The headline claim: under the stall, quorum 0.75 beats exact.
        exact = res.value("runtime_ms", scenario="stall", variant="exact")
        q = res.value("runtime_ms", scenario="stall", variant="quorum",
                      quorum=0.75, window=1)
        assert q < exact
        # Exact SGD's allreduce repairs around the fail-stop in place;
        # every quorum cell degrades through it too.
        assert res.value(
            "status", scenario="fail-stop", variant="exact") == "degraded"
        for quorum in (0.75, 0.9):
            for window in (1, 2):
                assert res.value(
                    "status", scenario="fail-stop", variant="quorum",
                    quorum=quorum, window=window) == "degraded"
        # Fault-free exact SGD is fully synchronous: everyone on time.
        assert res.value(
            "on_time", scenario="fault-free", variant="exact") == 1.0


class TestChaosQuorumCli:
    def test_accounting_lines_printed(self, capsys):
        from repro.cli import main

        assert main([
            "chaos", "allreduce_quorum", "--machine", "cori", "--nodes", "2",
            "--nranks", "16", "--nbytes", "65536", "--iterations", "3",
            "--stall", "9:0.0001:0.006", "--stall", "14:0.0001:0.006",
            "--quorum", "0.75",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        headers = [h.strip() for h in lines[2].split(" | ")]
        runs = {row["run"]: row for row in (
            dict(zip(headers, (c.strip() for c in line.split(" | "))))
            for line in lines[4:] if not line.startswith("note: "))}
        # The exact allreduce is ADAPT's, so there is no comparator row.
        assert sorted(runs) == ["fault-free", "faulty"]
        faulty = runs["faulty"]
        assert faulty["outcome"] == "complete"
        assert (faulty["contributed"], faulty["epochs"], faulty["excluded"]) \
            == ("13", "3", "13-15")
        assert (faulty["merged"], faulty["discarded"]) == ("8", "4")
        assert "no OMPI-default-topo row" in lines[-1]

    def test_quorum_flag_needs_relaxed_operation(self):
        from repro.cli import main

        with pytest.raises(SystemExit,
                           match=r"^chaos: --quorum.* need a \*_quorum op"):
            main(["chaos", "allreduce", "--quorum", "0.5",
                  "--stall", "1:0.0001:0.001"])

    @pytest.mark.parametrize("flag", ["--min-quorum", "--staleness-window"])
    def test_policy_flags_need_relaxed_operation(self, flag):
        from repro.cli import main

        with pytest.raises(SystemExit,
                           match=r"^chaos: --quorum.* need a \*_quorum op"):
            main(["chaos", "allreduce", flag, "2",
                  "--stall", "1:0.0001:0.001"])

    def test_recover_rejected_with_quorum_ops(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match=r"^chaos: --recover and \*_quorum "
                           "operations are mutually exclusive"):
            main(["chaos", "allreduce_quorum", "--recover",
                  "--stall", "1:0.0001:0.001"])

    def test_bad_policy_is_a_chaos_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match=r"^chaos: quorum fraction"):
            main(["chaos", "allreduce_quorum", "--quorum", "1.5",
                  "--stall", "1:0.0001:0.001"])

    def test_bad_stall_spec_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["chaos", "allreduce_quorum", "--stall", "nope"])


class TestTableRejections:
    """Every operation/recover/policy error is raised by the table lookup in
    ``prepare_operation``, before ``run_collective`` builds a world."""

    def run(self, monkeypatch, operation: str, library="OMPI-adapt", **kw):
        monkeypatch.setattr(runner, "_build_world", _no_world)
        run_collective(small_test_machine(), 6, library, operation,
                       4096, **kw)

    @pytest.mark.parametrize("op", QUORUM_OPS)
    def test_recover_rejected_for_quorum_ops(self, monkeypatch, op):
        with pytest.raises(ValueError, match="cannot combine with recover"):
            self.run(monkeypatch, op, recover=True)

    @pytest.mark.parametrize("op, recover", [("allreduce", False),
                                             ("bcast", True)])
    def test_baseline_runs_only_its_own_schedules(self, monkeypatch, op,
                                                  recover):
        # The table launchers are ADAPT's; a baseline never borrows one.
        with pytest.raises(ValueError, match="implements only bcast and reduce"):
            self.run(monkeypatch, op, library="OMPI-default-topo",
                     recover=recover)

    def test_unknown_operation_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown operation 'scan'"):
            self.run(monkeypatch, "scan")

    def test_policy_rejected_even_with_custom_algorithm(self, monkeypatch):
        with pytest.raises(ValueError, match=r"applies only to the \*_quorum"):
            self.run(monkeypatch, "bcast", quorum=QuorumPolicy(),
                     custom_algorithm=ADAPT.bcast)

    def test_launch_recover_rejects_quorum_ops(self):
        from repro.collectives.base import CollectiveContext
        from repro.recovery import launch_recover

        _, comm, _ = quorum_world(4)
        ctx = CollectiveContext(comm, 0, 1024, DEFAULT_COLLECTIVE)
        with pytest.raises(ValueError, match="unknown collective 'bcast_quorum'"):
            launch_recover("bcast_quorum", ctx)


@pytest.mark.parametrize("module", [
    "repro.relaxed", "repro.collectives", "repro.collectives.quorum",
    "repro.libraries.presets", "repro.harness.runner",
])
def test_module_imports_first_in_fresh_interpreter(module):
    """``repro.relaxed`` imports nothing from ``repro.collectives``, so
    every layer imports cleanly on its own. The cycle this pins was
    quorum launchers in ``repro.relaxed`` -> ``collectives/__init__`` ->
    ``models`` -> the partly initialised launcher module."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", f"import {module}"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
