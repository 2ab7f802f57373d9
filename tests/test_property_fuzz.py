"""Property-based fuzz sweep over every ADAPT collective.

200 seeded random cases — communicator size, message size, segment size,
window depths, tree topology, root, reduce operator — each checked two ways:

* **bit-exact**: the collective runs in data mode (real numpy payloads) and
  its output matches a classic numpy oracle computed outside the simulator;
* **lint-clean**: the same schedule recorded on an analyzer world extracts
  zero synchronization edges and passes the schedule linter — the paper's
  central structural claim, certified across the whole random grid.

The sweep is deterministic: every case derives from ``--fuzz-seed`` (see
conftest), so a failing case id plus the seed reproduces it exactly.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.analysis.depgraph import record
from repro.analysis.lint import lint
from repro.collectives import (
    allgather_adapt,
    allreduce_adapt,
    alltoall_adapt,
    barrier_adapt,
    bcast_adapt,
    gather_adapt,
    reduce_adapt,
    reduce_scatter_adapt,
    scatter_adapt,
)
from repro.collectives.base import CollectiveContext
from repro.config import CollectiveConfig
from repro.machine import small_test_machine
from repro.mpi import MAX, SUM, Communicator, MpiWorld
from repro.trees import binary_tree, binomial_tree, chain_tree, flat_tree
from repro.trees.base import Tree

N_CASES = 200

#: name -> (algorithm, payload shape, needs a tree)
#: shapes: "root" = one root-sized array; "per-rank-full" = every rank holds
#: the full vector; "per-rank-block" = every rank holds its block; None.
COLLECTIVES = {
    "bcast": (bcast_adapt, "root", True),
    "reduce": (reduce_adapt, "per-rank-full", True),
    "scatter": (scatter_adapt, "root", True),
    "gather": (gather_adapt, "per-rank-block", True),
    "allreduce": (allreduce_adapt, "per-rank-full", True),
    "barrier": (barrier_adapt, None, True),
    "allgather": (allgather_adapt, "per-rank-block", False),
    "reduce_scatter": (reduce_scatter_adapt, "per-rank-full", False),
    "alltoall": (alltoall_adapt, "per-rank-full", False),
}
ORDER = list(COLLECTIVES)
TREES = {
    "chain": chain_tree,
    "binary": binary_tree,
    "binomial": binomial_tree,
    "flat": flat_tree,
    "topo": None,  # topology-aware (built from the world)
}


def make_case(seed: int, idx: int) -> dict:
    """Case ``idx`` of the sweep rooted at ``seed`` — pure data, so the same
    (seed, idx) pair always names the same case."""
    rng = random.Random((seed << 20) ^ idx)
    name = ORDER[idx % len(ORDER)]  # round-robin: every collective covered
    nranks = rng.randint(2, 10)
    # Sizes span the single-segment, few-segment, and many-segment regimes;
    # block collectives need at least one byte per rank.
    regime = rng.choice(["tiny", "segments", "big"])
    if regime == "tiny":
        nbytes = rng.randint(nranks, 256)
    elif regime == "segments":
        nbytes = rng.randint(257, 8 * 1024)
    else:
        nbytes = rng.randint(8 * 1024 + 1, 48 * 1024)
    return {
        "collective": name,
        "nranks": nranks,
        "root": rng.randrange(nranks),
        "nbytes": nbytes,
        "segment_size": rng.choice([512, 1024, 2048, 4096]),
        "inflight_sends": rng.randint(1, 3),
        "posted_recvs": rng.randint(1, 4),
        "tree": rng.choice(list(TREES)),
        "op": rng.choice(["sum", "max"]),
        "data_seed": rng.randrange(2**31),
    }


def block_ranges(nbytes: int, nparts: int) -> list[tuple[int, int]]:
    base, rem = divmod(nbytes, nparts)
    out, off = [], 0
    for i in range(nparts):
        ln = base + (1 if i < rem else 0)
        out.append((off, ln))
        off += ln
    return out


def _build_tree(case: dict, world: MpiWorld, comm) -> Tree:
    builder = TREES[case["tree"]]
    if builder is None:
        from repro.trees import topology_aware_tree

        return topology_aware_tree(world.topology, list(comm.ranks), case["root"])
    return builder(case["nranks"]).reroot_relabelled(case["root"])


def _payload(case: dict):
    rng = np.random.default_rng(case["data_seed"])
    nranks, nbytes = case["nranks"], case["nbytes"]
    shape = COLLECTIVES[case["collective"]][1]
    if shape == "root":
        return rng.integers(0, 256, nbytes, dtype=np.uint8)
    if shape == "per-rank-full":
        return {r: rng.integers(0, 256, nbytes, dtype=np.uint8)
                for r in range(nranks)}
    if shape == "per-rank-block":
        return {r: rng.integers(0, 256, ln, dtype=np.uint8)
                for r, (_, ln) in enumerate(block_ranges(nbytes, nranks))}
    return None


def _fold(data: dict, op) -> np.ndarray:
    acc = None
    for r in sorted(data):
        acc = data[r].copy() if acc is None else op(acc, data[r])
    return acc


def _out(handle, rank: int) -> np.ndarray:
    return np.asarray(handle.output[rank]).view(np.uint8)


def check_oracle(case: dict, handle, data) -> None:
    """Bit-exact comparison against the classic numpy oracle."""
    name = case["collective"]
    nranks, nbytes = case["nranks"], case["nbytes"]
    op = SUM if case["op"] == "sum" else MAX
    ranges = block_ranges(nbytes, nranks)
    if name == "bcast":
        for r in range(nranks):
            np.testing.assert_array_equal(_out(handle, r), data,
                                          err_msg=f"bcast rank {r}")
    elif name == "reduce":
        np.testing.assert_array_equal(
            _out(handle, case["root"]), _fold(data, op), err_msg="reduce root")
    elif name == "scatter":
        for r, (off, ln) in enumerate(ranges):
            np.testing.assert_array_equal(_out(handle, r), data[off:off + ln],
                                          err_msg=f"scatter rank {r}")
    elif name == "gather":
        expected = np.concatenate([data[r] for r in range(nranks)])
        np.testing.assert_array_equal(_out(handle, case["root"]), expected,
                                      err_msg="gather root")
    elif name == "allreduce":
        expected = _fold(data, op)
        for r in range(nranks):
            np.testing.assert_array_equal(_out(handle, r), expected,
                                          err_msg=f"allreduce rank {r}")
    elif name == "allgather":
        expected = np.concatenate([data[r] for r in range(nranks)])
        for r in range(nranks):
            np.testing.assert_array_equal(_out(handle, r), expected,
                                          err_msg=f"allgather rank {r}")
    elif name == "reduce_scatter":
        full = _fold(data, op)
        for r, (off, ln) in enumerate(ranges):
            np.testing.assert_array_equal(_out(handle, r), full[off:off + ln],
                                          err_msg=f"reduce_scatter rank {r}")
    elif name == "alltoall":
        for r, (off, ln) in enumerate(ranges):
            expected = np.concatenate(
                [data[s][off:off + ln] for s in range(nranks)]
            )
            np.testing.assert_array_equal(_out(handle, r), expected,
                                          err_msg=f"alltoall rank {r}")
    else:
        assert name == "barrier"  # completion is the property


def _context(case: dict, world: MpiWorld, data) -> CollectiveContext:
    comm = Communicator(world)
    cfg = CollectiveConfig(
        segment_size=case["segment_size"],
        inflight_sends=case["inflight_sends"],
        posted_recvs=case["posted_recvs"],
    )
    algo, _, needs_tree = COLLECTIVES[case["collective"]]
    kw = {"tree": _build_tree(case, world, comm)} if needs_tree else {}
    op = SUM if case["op"] == "sum" else MAX
    return CollectiveContext(comm, case["root"], case["nbytes"], cfg,
                             data=data, op=op, **kw)


@pytest.mark.parametrize("idx", range(N_CASES))
def test_fuzz_case(fuzz_seed, idx):
    case = make_case(fuzz_seed, idx)
    algo = COLLECTIVES[case["collective"]][0]

    # Data mode, under the runtime sanitizer: bit-exact vs the oracle.
    world = MpiWorld(small_test_machine(), case["nranks"], carry_data=True,
                     sanitize=True)
    data = _payload(case)
    handle = algo(_context(case, world, data))
    world.run()
    assert handle.done, f"case {idx} ({case}): incomplete schedule"
    check_oracle(case, handle, data)

    # Analyzer mode: the same schedule extracts zero sync edges and lints
    # clean — ADAPT's structural claim holds across the random grid.
    # (reduce_scatter's recv->reduce->send chaining records as
    # callback-order edges — per-segment event handlers, not blocking
    # waits — so for it the certified property is "never blocks": no
    # blocking-order or Waitall-barrier edge anywhere.)
    rec_world = MpiWorld(small_test_machine(), case["nranks"])
    graph = record(rec_world, lambda: algo(_context(case, rec_world, None)),
                   meta={"fuzz_case": idx})
    sync = graph.sync_edges()
    if case["collective"] == "reduce_scatter":
        sync = [e for e in sync if e.via != "callback-order"]
    assert sync == [], f"case {idx} ({case}): sync edges"
    report = lint(graph)
    assert report.ok, f"case {idx} ({case}): {report.render()}"


# -- recovery sweep ----------------------------------------------------------
#
# Same property-based style, faults armed: every ADAPT collective is launched
# through the live-recovery front door (repro.recovery.launch_recover) and
# either one non-root rank is killed mid-flight or the fabric corrupts a
# sampled fraction of transfers. The oracle shrinks to the survivors:
#
# * corrupt cases keep the *full* bit-exact oracle — checksums + NACK
#   retransmits must repair every flip transparently;
# * kill cases check survivor-exactness: delivery collectives (bcast,
#   scatter) give every survivor its exact payload; aggregation collectives
#   (reduce family, gather) converge on the fold/concat over the survivor
#   contributions via epoch restart; block exchanges (allgather, alltoall)
#   give survivors exact survivor-origin blocks with the dead origin's block
#   either delivered pre-death or zero-filled; barrier completes.

N_RECOVERY_CASES = 72


def make_recovery_case(seed: int, idx: int) -> dict:
    rng = random.Random((seed << 21) ^ (idx * 2654435761))
    name = ORDER[idx % len(ORDER)]
    nranks = rng.randint(4, 10)
    root = rng.randrange(nranks)
    victim = rng.choice([r for r in range(nranks) if r != root])
    regime = rng.choice(["tiny", "segments", "big"])
    if regime == "tiny":
        nbytes = rng.randint(nranks, 256)
    elif regime == "segments":
        nbytes = rng.randint(257, 8 * 1024)
    else:
        nbytes = rng.randint(8 * 1024 + 1, 24 * 1024)
    return {
        "collective": name,
        "nranks": nranks,
        "root": root,
        "nbytes": nbytes,
        "segment_size": rng.choice([512, 1024, 2048]),
        "inflight_sends": rng.randint(1, 3),
        "posted_recvs": rng.randint(1, 4),
        "tree": rng.choice(list(TREES)),
        "op": rng.choice(["sum", "max"]),
        "data_seed": rng.randrange(2**31),
        "scenario": "kill" if idx % 2 == 0 else "corrupt",
        "victim": victim,
        "kill_time": rng.uniform(5e-5, 6e-4),
        "detect_delay": rng.uniform(1e-4, 3e-4),
        "corrupt_rate": rng.uniform(0.02, 0.12),
        "fault_seed": rng.randrange(2**31),
    }


def check_survivor_oracle(case: dict, handle, data) -> None:
    """Bit-exact comparison against the survivor-restricted oracle."""
    name = case["collective"]
    nranks, nbytes, victim = case["nranks"], case["nbytes"], case["victim"]
    live = [r for r in range(nranks) if r != victim]
    op = SUM if case["op"] == "sum" else MAX
    ranges = block_ranges(nbytes, nranks)
    fold_live = None
    if COLLECTIVES[name][1] == "per-rank-full" and name != "alltoall":
        fold_live = _fold({r: data[r] for r in live}, op)
    if name == "bcast":
        for r in live:
            np.testing.assert_array_equal(_out(handle, r), data,
                                          err_msg=f"bcast survivor {r}")
    elif name == "scatter":
        for r in live:
            off, ln = ranges[r]
            np.testing.assert_array_equal(_out(handle, r), data[off:off + ln],
                                          err_msg=f"scatter survivor {r}")
    elif name == "reduce":
        np.testing.assert_array_equal(_out(handle, case["root"]), fold_live,
                                      err_msg="reduce root (survivor fold)")
    elif name == "gather":
        expected = np.concatenate([data[r] for r in live])
        np.testing.assert_array_equal(_out(handle, case["root"]), expected,
                                      err_msg="gather root (survivor concat)")
    elif name == "allreduce":
        for r in live:
            np.testing.assert_array_equal(_out(handle, r), fold_live,
                                          err_msg=f"allreduce survivor {r}")
    elif name == "allgather":
        # Epoch restart: the dead origin's block is zero-filled everywhere.
        expected = np.concatenate(
            [data[s] if s != victim else np.zeros(ranges[s][1], dtype=np.uint8)
             for s in range(nranks)]
        )
        for r in live:
            np.testing.assert_array_equal(_out(handle, r), expected,
                                          err_msg=f"allgather survivor {r}")
    elif name == "reduce_scatter":
        for r in live:
            off, ln = ranges[r]
            np.testing.assert_array_equal(
                _out(handle, r), fold_live[off:off + ln],
                err_msg=f"reduce_scatter survivor {r}")
    elif name == "alltoall":
        # In-place repair: a survivor keeps the dead origin's block if it
        # arrived before the death, zero-fills it otherwise.
        for r in live:
            off, ln = ranges[r]
            out = _out(handle, r)
            pos = 0
            for s in range(nranks):
                blk = out[pos:pos + ln]
                exact = data[s][off:off + ln]
                if s == victim:
                    assert (
                        np.array_equal(blk, exact)
                        or not blk.any()
                    ), f"alltoall survivor {r}: dead-origin block mangled"
                else:
                    np.testing.assert_array_equal(
                        blk, exact,
                        err_msg=f"alltoall survivor {r} block from {s}")
                pos += ln
    else:
        assert name == "barrier"  # survivor completion is the property
    for r in live:
        assert r in handle.done_time, f"{name}: survivor {r} never completed"


@pytest.mark.parametrize("idx", range(N_RECOVERY_CASES))
def test_recovery_fuzz_case(fuzz_seed, idx):
    from repro.config import RuntimeConfig
    from repro.faults import FaultInjector, FaultPlan, KillSpec
    from repro.faults.plan import CorruptSpec
    from repro.recovery import launch_recover

    case = make_recovery_case(fuzz_seed, idx)
    name = case["collective"]
    kill = case["scenario"] == "kill"
    if kill:
        plan = FaultPlan(
            kills=[KillSpec(rank=case["victim"], time=case["kill_time"])],
            detect_delay=case["detect_delay"], seed=case["fault_seed"],
        )
    else:
        plan = FaultPlan(
            corrupts=[CorruptSpec(rate=case["corrupt_rate"])],
            seed=case["fault_seed"],
        )
    world = MpiWorld(
        small_test_machine(), case["nranks"], carry_data=True,
        config=RuntimeConfig(reliable=not kill),
        # A fail-stop legitimately strands wreckage mid-schedule; the
        # depgraph linter owns that case (stranded-survivor), not the
        # runtime sanitizer.
        sanitize=not kill,
    )
    data = _payload(case)
    handle = launch_recover(name, _context(case, world, data))
    FaultInjector(world, plan).arm(1.0)
    world.run()
    assert handle.done, f"recovery case {idx} ({case}): incomplete schedule"
    if kill:
        assert world.membership.view.epoch >= 1, (
            f"recovery case {idx}: the kill never reached agreement"
        )
        assert sorted(world.membership.view.failed) == [case["victim"]]
        check_survivor_oracle(case, handle, data)
        assert handle.report.epoch >= 1
    else:
        # Integrity repair is transparent: the full fault-free oracle holds
        # and every checksum rejection was NACKed and retransmitted.
        check_oracle(case, handle, data)
        stats = world.transport_stats()
        assert stats.get("checksum_rejects", 0) == stats.get("nacks_sent", 0)


# -- stall-only sweep: no false kills ----------------------------------------
#
# The adaptive detector's core promise (DESIGN.md S22): a slow rank is not a
# dead rank. Every collective runs with heartbeats armed and one rank stalled
# for up to 14 ms — safely below the ~18.4 ms phi crossing at the default
# threshold — and the sweep demands completion with *zero* suspicions,
# confirmations, or false kills.

N_STALL_CASES = 27


def make_stall_case(seed: int, idx: int) -> dict:
    rng = random.Random((seed << 23) ^ (idx * 2246822519))
    case = make_case(seed, idx)  # reuse the shape grid (same round-robin)
    case["stall_rank"] = rng.randrange(case["nranks"])
    case["stall_time"] = rng.uniform(5e-5, 4e-4)
    case["stall_duration"] = rng.uniform(2e-3, 1.4e-2)
    case["fault_seed"] = rng.randrange(2**31)
    return case


@pytest.mark.parametrize("idx", range(N_STALL_CASES))
def test_stall_fuzz_zero_false_kills(fuzz_seed, idx):
    from repro.faults import FaultInjector, FaultPlan, StallSpec

    case = make_stall_case(fuzz_seed, idx)
    algo = COLLECTIVES[case["collective"]][0]
    world = MpiWorld(small_test_machine(), case["nranks"], carry_data=True,
                     sanitize=True)
    data = _payload(case)
    handle = algo(_context(case, world, data))
    plan = FaultPlan(
        stalls=[StallSpec(rank=case["stall_rank"], time=case["stall_time"],
                          duration=case["stall_duration"])],
        adaptive=True,  # arm heartbeats with no partition in the plan
        seed=case["fault_seed"],
    )
    FaultInjector(world, plan).arm(0.1)
    world.run()
    det = world.failure_detector
    assert handle.done, f"stall case {idx} ({case}): incomplete schedule"
    assert det.failed == set() and det.suspected == set(), (
        f"stall case {idx}: a {case['stall_duration'] * 1e3:.1f} ms stall "
        f"was mistaken for a death: {det.suspicions}"
    )
    assert det.ever_confirmed == set()
    assert det.false_kills == 0
    check_oracle(case, handle, data)


# -- retraction ordering: alive after failed ---------------------------------
#
# A confirmed-then-retracted failure is the partition-tolerance ordering
# every collective must survive: rank_failed fans out, survivors repair or
# restart, then the "dead" rank acks again and rank_alive fans out. The
# collective acknowledges without re-integrating; nothing may crash or hang.

#: In-place repair keeps the original handle, so its per-rank states hear
#: the retraction and record it; restart-mode collectives (the reduce
#: family, gather) re-launch and the stale epoch's states never see it.
_RETRACTION_RECORDERS = {"bcast", "scatter", "barrier", "alltoall"}

#: Launched directly (degraded mode, no recovery stack), every collective
#: hears the failure through ``launch_ranks`` -- allreduce through its
#: reduce and broadcast phases -- and must record the retraction: the ones
#: that repair in place, and the ones whose repair abandons the launch
#: (gather, the rings), whose recovery mode restarts and so never reaches
#: their states' retraction hook above.
_DEGRADED_REPAIRERS = ("bcast", "reduce", "scatter", "barrier", "alltoall",
                       "gather", "allreduce", "allgather", "reduce_scatter")


@pytest.mark.parametrize("name,recover", [
    *(pytest.param(n, True, id=n) for n in ORDER),
    *(pytest.param(n, False, id=f"{n}-degraded") for n in _DEGRADED_REPAIRERS),
])
def test_retraction_after_failed_tolerated(name, recover):
    from repro.config import RuntimeConfig
    from repro.faults import FailureDetector
    from repro.recovery import launch_recover

    case = {
        "collective": name, "nranks": 8, "root": 0, "nbytes": 4096,
        "segment_size": 1024, "inflight_sends": 2, "posted_recvs": 3,
        "tree": "binary", "op": "sum", "data_seed": 77,
    }
    victim = 5
    world = MpiWorld(small_test_machine(), 8, carry_data=True,
                     config=RuntimeConfig(reliable=False), sanitize=True)
    data = _payload(case)
    ctx = _context(case, world, data)
    if recover:
        handle = launch_recover(name, ctx)
    else:
        handle = COLLECTIVES[name][0](ctx)
    det = FailureDetector(world, detect_delay=1e-4)
    # Suspect mid-flight; the confirm fires 1e-4 later (no contrary
    # evidence); the retraction lands well after the membership round.
    world.engine.call_after(1e-4, det.suspect, victim)
    world.engine.call_after(2.5e-3, det.observe_alive, victim)
    world.run()
    assert handle.done, f"{name}: survivors never completed"
    assert victim in det.ever_confirmed, f"{name}: the confirm never fired"
    assert victim not in det.failed, f"{name}: the retraction never fired"
    assert det.false_kills == 1
    report = handle.report
    if not recover:
        # Degraded mode: the repair stands, and the retraction is recorded.
        assert report.degraded
        assert report.failed_ranks == {victim}
        assert victim in handle.excused
        assert report.retractions == {victim}, (
            f"{name}: the collective never acknowledged the rank_alive"
        )
        return
    # The committed epoch stands: retraction does not re-admit.
    assert world.membership.view.epoch >= 1
    assert victim in world.membership.view.failed
    if name in _RETRACTION_RECORDERS:
        assert victim in report.retractions, (
            f"{name}: the collective never acknowledged the rank_alive"
        )


# -- compiled-topology conformance sweep --------------------------------------
#
# Every ADAPT collective, on a small instance of every compiled topology
# family (repro.topo): bit-exact against the same numpy oracle, and
# lint-clean with zero sync edges — the structural claim holds when routing
# runs over a compiled fat-tree / dragonfly / rail-pod link list instead of
# the flat fabric. Case shapes derive from --fuzz-seed like the main sweep.

TOPO_FAMILIES = ("fattree", "dragonfly", "railpod")


def make_topo_case(seed: int, family: str, name: str, nranks: int) -> dict:
    # Stable derivation (never hash(): it varies with PYTHONHASHSEED).
    fam_ix = TOPO_FAMILIES.index(family)
    rng = random.Random((seed << 22) ^ (fam_ix * 1000003) ^ (ORDER.index(name) * 7919))
    regime = rng.choice(["tiny", "segments", "big"])
    if regime == "tiny":
        nbytes = rng.randint(nranks, 256)
    elif regime == "segments":
        nbytes = rng.randint(257, 8 * 1024)
    else:
        nbytes = rng.randint(8 * 1024 + 1, 32 * 1024)
    return {
        "collective": name,
        "nranks": nranks,
        "root": rng.randrange(nranks),
        "nbytes": nbytes,
        "segment_size": rng.choice([512, 1024, 2048, 4096]),
        "inflight_sends": rng.randint(1, 3),
        "posted_recvs": rng.randint(1, 4),
        "tree": rng.choice(list(TREES)),
        "op": rng.choice(["sum", "max"]),
        "data_seed": rng.randrange(2**31),
    }


@pytest.mark.parametrize("family", TOPO_FAMILIES)
@pytest.mark.parametrize("name", ORDER)
def test_topo_conformance(fuzz_seed, family, name):
    from repro.topo import small_family_machine

    machine = small_family_machine(family)
    nranks = machine.compiled.ranks
    case = make_topo_case(fuzz_seed, family, name, nranks)
    algo = COLLECTIVES[name][0]

    # Data mode over the compiled link list: bit-exact vs the oracle.
    world = MpiWorld(machine, nranks, carry_data=True, sanitize=True)
    assert world.gpu_bound == machine.compiled.gpu_bound
    data = _payload(case)
    handle = algo(_context(case, world, data))
    world.run()
    assert handle.done, f"{family}/{name} ({case}): incomplete schedule"
    check_oracle(case, handle, data)
    # The schedule actually crossed the compiled fabric: at least one
    # compiled link (family-prefixed name) carried bytes. Barrier is exempt
    # — its zero-payload tokens ride the latency-only control plane, which
    # routes over the compiled path but creates no flows.
    if name != "barrier":
        prefix = {"fattree": "ft:", "dragonfly": "df:", "railpod": "rp:"}[family]
        carried = [
            link for lname, link in world.fabric.links().items()
            if lname.startswith(prefix) and link.bytes_carried > 0
        ]
        assert carried, f"{family}/{name}: no compiled link carried traffic"

    # Analyzer mode: zero sync edges and a clean lint over the same grid
    # (reduce_scatter's callback-order exemption as in the main sweep).
    rec_world = MpiWorld(machine, nranks)
    graph = record(rec_world, lambda: algo(_context(case, rec_world, None)),
                   meta={"topo_family": family})
    sync = graph.sync_edges()
    if name == "reduce_scatter":
        sync = [e for e in sync if e.via != "callback-order"]
    assert sync == [], f"{family}/{name} ({case}): sync edges"
    report = lint(graph)
    assert report.ok, f"{family}/{name} ({case}): {report.render()}"


# -- quorum sweep: relaxed collectives under straggler/kill grids -------------
#
# The bounded-staleness family (DESIGN.md S25) fuzzes against a *restricted*
# oracle: completion is bit-exact over exactly ``report.contributed_ranks``
# (SUM mod 256 — associative and commutative, so any contribution subset has
# one right answer), and the frontier's double-entry ledger must balance —
# every opened contribution ends merged-on-time, merged-late, or
# explicitly-discarded, with only dead ranks' entries allowed to stay open.
# Each case also re-runs from scratch and must reproduce byte-identically.

N_QUORUM_CASES = 42

QUORUM_OPS = ("bcast_quorum", "reduce_quorum", "allreduce_quorum")


def make_quorum_case(seed: int, idx: int) -> dict:
    rng = random.Random((seed << 24) ^ (idx * 2246822519))
    name = QUORUM_OPS[idx % len(QUORUM_OPS)]
    nranks = rng.randint(4, 10)
    root = rng.randrange(nranks)
    regime = rng.choice(["tiny", "segments", "big"])
    if regime == "tiny":
        nbytes = rng.randint(nranks, 256)
    elif regime == "segments":
        nbytes = rng.randint(257, 8 * 1024)
    else:
        nbytes = rng.randint(8 * 1024 + 1, 24 * 1024)
    scenario = ("clean", "stall", "kill")[idx % 3]
    victim = rng.choice([r for r in range(nranks) if r != root])
    return {
        "collective": name,
        "nranks": nranks,
        "root": root,
        "nbytes": nbytes,
        "segment_size": rng.choice([512, 1024, 2048, 4096]),
        "inflight_sends": rng.randint(1, 3),
        "posted_recvs": rng.randint(1, 4),
        "quorum": rng.choice([0.5, 0.75, 1.0, max(2, nranks - 2)]),
        "staleness_window": rng.randint(0, 2),
        "data_seed": rng.randrange(2**31),
        "scenario": scenario,
        "victim": victim,
        # Stalls stay below the ~18.4 ms phi crossing (no false kills).
        "stall_time": rng.uniform(5e-5, 4e-4),
        "stall_duration": rng.uniform(2e-3, 1.4e-2),
        "kill_time": rng.uniform(5e-5, 6e-4),
        "fault_seed": rng.randrange(2**31),
    }


def _quorum_payload(case: dict):
    rng = np.random.default_rng(case["data_seed"])
    nranks, nbytes = case["nranks"], case["nbytes"]
    if case["collective"] == "bcast_quorum":
        return rng.integers(0, 256, nbytes, dtype=np.uint8)
    return {r: rng.integers(0, 256, nbytes, dtype=np.uint8)
            for r in range(nranks)}


def _run_quorum_case(case: dict):
    """Build a world, run the case to completion, return (world, handle)."""
    from repro.config import RuntimeConfig
    from repro.faults import FaultInjector, FaultPlan, KillSpec, StallSpec
    from repro.harness.runner import _drive
    from repro.libraries.presets import library_by_name, prepare_operation
    from repro.relaxed import QuorumPolicy

    plan = None
    if case["scenario"] == "stall":
        plan = FaultPlan(
            stalls=[StallSpec(rank=case["victim"], time=case["stall_time"],
                              duration=case["stall_duration"])],
            seed=case["fault_seed"],
        )
    elif case["scenario"] == "kill":
        plan = FaultPlan(
            kills=[KillSpec(rank=case["victim"], time=case["kill_time"])],
            seed=case["fault_seed"],
        )
    world = MpiWorld(
        small_test_machine(), case["nranks"], carry_data=True,
        config=RuntimeConfig(reliable=case["scenario"] != "kill"),
        # A fail-stop strands the victim's wreckage mid-schedule; the
        # ledger check below still certifies contribution conservation.
        sanitize=case["scenario"] != "kill",
    )
    comm = Communicator(world)
    cfg = CollectiveConfig(
        segment_size=case["segment_size"],
        inflight_sends=case["inflight_sends"],
        posted_recvs=case["posted_recvs"],
    )
    policy = QuorumPolicy(quorum=case["quorum"],
                          staleness_window=case["staleness_window"])
    prep = prepare_operation(
        library_by_name("OMPI-adapt"), case["collective"], policy=policy)
    ctx = prep(comm, case["root"], case["nbytes"], cfg,
               data=_quorum_payload(case))
    handle = ctx.launch()
    injectors = [FaultInjector(world, plan)] if plan is not None else []
    _drive(world, injectors, lambda: handle.done, world.engine.now + 1.0)
    world.run()
    return world, handle


def _quorum_signature(world, handle) -> tuple:
    """Everything observable about a run, hashable — the determinism key."""
    led = world.staleness_frontier.ledger
    return (
        sorted(handle.done_time.items()),
        sorted(handle.report.contributed_ranks),
        sorted(handle.report.late_merges),
        sorted((r, out.tobytes()) for r, out in handle.output.items()),
        (led.opened, led.on_time, led.late, led.discarded),
    )


def check_quorum_oracle(case: dict, handle, data) -> None:
    """Bit-exact over exactly the contributed set."""
    contrib = sorted(handle.report.contributed_ranks)
    assert contrib, f"{case}: empty quorum"
    if case["collective"] == "bcast_quorum":
        for r in handle.done_time:
            np.testing.assert_array_equal(
                _out(handle, r), data, err_msg=f"bcast_quorum rank {r}")
        return
    expected = _fold({r: data[r] for r in contrib}, SUM)
    if case["collective"] == "reduce_quorum":
        outputs = [case["root"]] if case["root"] in handle.done_time else []
    else:
        outputs = list(handle.done_time)
    for r in outputs:
        np.testing.assert_array_equal(
            _out(handle, r), expected,
            err_msg=f"{case['collective']} rank {r} "
                    f"(contributed={contrib})")


@pytest.mark.parametrize("idx", range(N_QUORUM_CASES))
def test_quorum_fuzz_case(fuzz_seed, idx):
    case = make_quorum_case(fuzz_seed, idx)
    world, handle = _run_quorum_case(case)
    assert handle.done, f"quorum case {idx} ({case}): incomplete schedule"
    assert handle.report.staleness_epoch >= 1
    check_quorum_oracle(case, handle, _quorum_payload(case))

    # Conservation: the double-entry ledger balances, and the only entries
    # still open at drain belong to the dead (their contribution never
    # arrives; the failure detector explains why).
    frontier = world.staleness_frontier
    frontier.flush_pending()
    led = frontier.ledger
    still_open = led.open_entries()
    assert led.opened == led.on_time + led.late + led.discarded + len(still_open)
    dead = {case["victim"]} if case["scenario"] == "kill" else set()
    assert {r for _, r in still_open} <= dead, (
        f"quorum case {idx}: live contributions leaked: {still_open}"
    )
    # Every non-contributor's fate is on the record (late-merge tuples) or
    # excused by death — never silent.
    accounted = {m[0] for m in handle.report.late_merges}
    missing = (
        set(range(case["nranks"]))
        - set(handle.report.contributed_ranks) - accounted - dead
    )
    assert not missing, f"quorum case {idx}: unaccounted ranks {missing}"

    # Byte-determinism: an identical world replays the identical outcome.
    world2, handle2 = _run_quorum_case(case)
    world2.staleness_frontier.flush_pending()
    assert _quorum_signature(world, handle) == _quorum_signature(world2, handle2), (
        f"quorum case {idx} ({case}): nondeterministic replay"
    )


class TestQuorumSweepDeterminism:
    def test_cases_reproducible_from_seed(self):
        a = [make_quorum_case(99, i) for i in range(N_QUORUM_CASES)]
        assert a == [make_quorum_case(99, i) for i in range(N_QUORUM_CASES)]

    def test_grid_covers_ops_and_scenarios(self):
        cases = [make_quorum_case(99, i) for i in range(N_QUORUM_CASES)]
        assert {c["collective"] for c in cases} == set(QUORUM_OPS)
        assert {c["scenario"] for c in cases} == {"clean", "stall", "kill"}


class TestSweepDeterminism:
    def test_cases_reproducible_from_seed(self):
        a = [make_case(1234, i) for i in range(N_CASES)]
        b = [make_case(1234, i) for i in range(N_CASES)]
        assert a == b

    def test_seed_changes_the_grid(self):
        a = [make_case(1, i) for i in range(20)]
        b = [make_case(2, i) for i in range(20)]
        assert a != b

    def test_every_collective_appears(self):
        names = {make_case(1234, i)["collective"] for i in range(N_CASES)}
        assert names == set(COLLECTIVES)
