"""Canonical schedules the analyzer knows how to build and record.

Maps CLI/test-friendly names (``bcast-adapt``, ``reduce-blocking``, ...) to
launchable collective schedules on a fresh recording world, plus the
intentionally broken schedules used to exercise the linter: a classic
swapped-send deadlock and a tag-mismatch orphan.

Recording worlds carry no payload data (structure is independent of bytes)
and run on the small test machine — extraction is about the dependency
shape, not timing, so any transport cost model yields the same graph.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from repro.analysis.depgraph import DepGraph, record
from repro.collectives import (
    bcast_blocking,
    bcast_nonblocking,
    reduce_blocking,
    reduce_nonblocking,
)
from repro.collectives.base import CollectiveContext
from repro.collectives.models import ADAPT_COLLECTIVES
from repro.config import CollectiveConfig, RuntimeConfig
from repro.machine import small_test_machine
from repro.mpi.communicator import Communicator
from repro.mpi.proclet import ProcletDriver
from repro.mpi.runtime import MpiWorld
from repro.trees import binary_tree, binomial_tree, chain_tree, flat_tree
from repro.trees.base import Tree

SCHEDULES: dict[str, Callable[..., Any]] = {
    "bcast-blocking": bcast_blocking,
    "bcast-nonblocking": bcast_nonblocking,
    "reduce-blocking": reduce_blocking,
    "reduce-nonblocking": reduce_nonblocking,
    **{c.schedule: c.launch for c in ADAPT_COLLECTIVES.values()},
}

TREES: dict[str, Callable[[int], Tree]] = {
    "chain": chain_tree,
    "binary": binary_tree,
    "binomial": binomial_tree,
    "flat": flat_tree,
}

# Schedule names the CLI accepts beyond the real collectives.
DEMO_SCHEDULES = (
    "deadlock-demo", "tag-mismatch-demo", "recovery-demo", "race-demo",
)


def recording_world(
    nranks: int,
    config: Optional[RuntimeConfig] = None,
) -> MpiWorld:
    nodes = max(1, -(-nranks // 8))  # 8 cores/node on the test machine
    spec = small_test_machine(nodes=nodes)
    return MpiWorld(spec, nranks, config=config or RuntimeConfig())


def recording_context(
    nranks: int,
    tree: str,
    root: int,
    nbytes: int,
    config: CollectiveConfig,
    runtime_config: Optional[RuntimeConfig] = None,
    tag_floor: int = 0,
) -> CollectiveContext:
    """A collective context on a fresh recording world: every rank in one
    communicator, the named tree shape rerooted at ``root``. A nonzero
    ``tag_floor`` reserves that many tags first, so the context's tags
    start above them."""
    try:
        tree_builder = TREES[tree]
    except KeyError:
        raise ValueError(f"unknown tree {tree!r}; choose from {sorted(TREES)}") from None
    world = recording_world(nranks, config=runtime_config)
    if tag_floor:
        world.allocate_tags(tag_floor)
    shape = tree_builder(nranks).reroot_relabelled(root)
    return CollectiveContext(Communicator(world), root, nbytes, config, tree=shape)


def analyze_schedule(
    name: str,
    nranks: int = 8,
    tree: str = "binary",
    nbytes: int = 512 * 1024,
    config: Optional[CollectiveConfig] = None,
    runtime_config: Optional[RuntimeConfig] = None,
    root: int = 0,
) -> DepGraph:
    """Record one collective schedule and return its dependency graph."""
    if name in DEMO_SCHEDULES:
        return analyze_demo(name, nranks=nranks, nbytes=nbytes)
    try:
        algo = SCHEDULES[name]
    except KeyError:
        raise ValueError(
            f"unknown schedule {name!r}; choose from "
            f"{sorted(SCHEDULES) + list(DEMO_SCHEDULES)}"
        ) from None
    config = config or CollectiveConfig(segment_size=64 * 1024)
    runtime_config = runtime_config or RuntimeConfig()
    ctx = recording_context(nranks, tree, root, nbytes, config, runtime_config)
    graph = record(
        ctx.world,
        lambda: algo(ctx),
        meta={
            "schedule": name,
            "tree": tree,
            "nranks": nranks,
            "nbytes": nbytes,
            "segments": len(config.segments_for(nbytes)),
            "root": root,
            "eager_threshold": runtime_config.eager_threshold,
        },
    )
    graph.stats.posted_recvs_window = config.posted_recvs
    graph.stats.inflight_sends_window = config.inflight_sends
    return graph


def analyze_demo(name: str, nranks: int = 2, nbytes: int = 256 * 1024) -> DepGraph:
    """Record one of the intentionally broken demo schedules."""
    if name == "deadlock-demo":
        return deadlock_demo(nranks=max(2, nranks), nbytes=nbytes)
    if name == "tag-mismatch-demo":
        # Keep the message eager-sized: the demo's point is the *orphaned*
        # completed send, not a rendezvous deadlock.
        return tag_mismatch_demo(nbytes=min(nbytes, 4 * 1024))
    if name == "recovery-demo":
        return recovery_demo(nranks=max(4, nranks), nbytes=nbytes)
    if name == "race-demo":
        return race_demo(nbytes=min(nbytes, 4 * 1024))
    raise ValueError(f"unknown demo schedule {name!r}")


def deadlock_demo(nranks: int = 2, nbytes: int = 256 * 1024) -> DepGraph:
    """The classic head-to-head blocking-send deadlock.

    Every rank in the ring does a *blocking* send to its neighbour before
    posting its receive. With rendezvous-sized messages the send cannot
    complete until the peer posts the matching recv — and every peer is
    itself stuck in its send. The schedule quiesces with all ranks blocked
    in a waits-for cycle, which the linter must flag.
    """
    # Force rendezvous so the sends truly block (eager sends buffer locally).
    rcfg = RuntimeConfig(eager_threshold=min(1024, nbytes - 1))
    world = recording_world(nranks, config=rcfg)

    def program(rank: int, peer: int) -> Iterator[Any]:
        rt = world.ranks[rank]
        yield rt.isend(peer, tag=rank, nbytes=nbytes)       # blocks forever
        yield rt.irecv(peer, tag=peer, nbytes=nbytes)       # never reached

    def launch() -> None:
        for rank in range(nranks):
            peer = (rank + 1) % nranks
            ProcletDriver(world.ranks[rank], program(rank, peer))

    return record(
        world, launch,
        meta={
            "schedule": "deadlock-demo", "nranks": nranks, "nbytes": nbytes,
            "eager_threshold": rcfg.eager_threshold,
        },
    )


def recovery_demo(nranks: int = 8, nbytes: int = 256 * 1024) -> DepGraph:
    """A mid-flight fail-stop with live recovery armed.

    A broadcast loses an interior rank while segments are in flight; the
    membership protocol agrees on the death and the tree re-grafts around
    it. The recorded graph carries ``meta["failed_ranks"]``, so the linter
    excuses the dead rank's stranded edges — and must find **no**
    ``stranded-survivor``: the proof that recovery schedules stay
    deadlock-free (the property the CI lint job asserts).
    """
    from repro.faults import FaultInjector, FaultPlan
    from repro.recovery import launch_recover
    from repro.trees import topology_aware_tree

    world = recording_world(nranks)
    comm = Communicator(world)
    config = CollectiveConfig(segment_size=16 * 1024)
    tree = topology_aware_tree(world.topology, list(comm.ranks), 0)
    ctx = CollectiveContext(comm, 0, nbytes, config, tree=tree)
    victim = min(nranks - 1, 2)
    plan = FaultPlan.single_kill(victim, 2e-4, detect_delay=2e-4)

    def launch() -> None:
        launch_recover("bcast", ctx)
        FaultInjector(world, plan).arm(0.05)

    return record(
        world, launch,
        meta={
            "schedule": "recovery-demo", "nranks": nranks, "nbytes": nbytes,
            "victim": victim,
            "eager_threshold": world.config.eager_threshold,
        },
    )


def tag_mismatch_demo(nbytes: int = 4 * 1024) -> DepGraph:
    """Sender and receiver disagree on the tag: both sides orphan."""
    world = recording_world(2)

    def sender() -> Iterator[Any]:
        yield world.ranks[0].isend(1, tag=7, nbytes=nbytes)  # eager: completes

    def receiver() -> Iterator[Any]:
        yield world.ranks[1].irecv(0, tag=8, nbytes=nbytes)  # never matched

    def launch() -> None:
        ProcletDriver(world.ranks[0], sender())
        ProcletDriver(world.ranks[1], receiver())

    return record(
        world, launch,
        meta={
            "schedule": "tag-mismatch-demo", "nranks": 2, "nbytes": nbytes,
            "eager_threshold": world.config.eager_threshold,
        },
    )


def race_demo(nbytes: int = 4 * 1024) -> DepGraph:
    """Two same-key messages in flight at once: a message race.

    Rank 0 fires two eager sends to rank 1 on the *same* tag back to back;
    rank 1 posts two recvs for that tag. The simulator's in-order fabric
    happens to deliver them in post order, so the run completes and the
    single-interleaving linter sees nothing wrong — but a reordering
    network may swap the payloads. Only exhaustive interleaving exploration
    (``repro verify``) catches this: at some reachable state both sends are
    simultaneously unmatched, so the recv's match is arrival-order-dependent
    and the schedule is not deterministic.
    """
    world = recording_world(2)
    tag = 5

    def sender() -> None:
        rt = world.ranks[0]
        first = rt.isend(1, tag=tag, nbytes=nbytes)
        # Eager: completes locally at once, so the second same-tag send is
        # in flight while the first may still be crossing the fabric.
        first.add_callback(lambda _r: rt.isend(1, tag=tag, nbytes=nbytes))

    def receiver() -> None:
        rt = world.ranks[1]
        rt.irecv(0, tag=tag, nbytes=nbytes)
        rt.irecv(0, tag=tag, nbytes=nbytes)

    def launch() -> None:
        world.ranks[0].cpu.when_available(sender)
        world.ranks[1].cpu.when_available(receiver)

    return record(
        world, launch,
        meta={
            "schedule": "race-demo", "nranks": 2, "nbytes": nbytes,
            "eager_threshold": world.config.eager_threshold,
        },
    )
