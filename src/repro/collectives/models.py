"""The collective table and the model checker's schedule contracts.

:data:`COLLECTIVES` registers each of the twelve collectives once: its
launcher, whether it runs on the topology-aware tree, whether it folds
payloads with ``ctx.op``, and how it survives a fail-stop (DESIGN.md S20,
S25). The library presets, the live-recovery front door, the analyzer, the
model checker, the CLI and the recovery figures all read it; nothing else
lists the operations. :data:`ADAPT_COLLECTIVES` is its nine exact rows;
the three ``*_quorum`` rows complete around missing ranks instead.

``repro.verify`` treats a collective as a transition system extracted from
a recorded run. That extraction is only sound for schedules whose *posting
structure* is data-oblivious — which operations get posted, and what gates
them, must not depend on payload bytes (ADAPT's state machines branch on
segment arrival, never on segment content; the baselines are straight-line
proclets). :data:`VERIFY_MODELS` names every schedule the checker accepts
and its family; the ADAPT rows come from the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.collectives.adapt import bcast_adapt, reduce_adapt
from repro.collectives.base import CollectiveContext, CollectiveHandle
from repro.collectives.extensions import (
    allreduce_adapt,
    barrier_adapt,
    gather_adapt,
    scatter_adapt,
)
from repro.collectives.extensions_allgather import (
    allgather_adapt,
    reduce_scatter_adapt,
)
from repro.collectives.extensions_alltoall import alltoall_adapt
from repro.collectives.quorum import (
    allreduce_quorum,
    bcast_quorum,
    reduce_quorum,
)


@dataclass(frozen=True)
class AdaptCollective:
    """One row of the collective table, as every consumer sees it."""

    #: Operation name (``"reduce_scatter"``): the CLI/harness key.
    name: str
    launch: Callable[..., CollectiveHandle]
    #: Runs on the topology-aware tree (else tree-free: ring, pairwise or
    #: star).
    #: Tree collectives funnel through ``ctx.root``, so a restart cannot
    #: survive the root's death.
    tree: bool
    #: Folds payloads with ``ctx.op``.
    folds: bool
    #: "in-place" (repaired inside the running state machine) | "restart"
    #: (relaunched among the survivors at each membership epoch) | "quorum"
    #: (completes around missing ranks under a ``QuorumPolicy``; never
    #: combines with live recovery).
    recovery: str

    @property
    def relaxed(self) -> bool:
        """A quorum operation: its launcher takes a ``QuorumPolicy``."""
        return self.recovery == "quorum"

    @property
    def schedule(self) -> str:
        """The analyzer/checker name: ``reduce-scatter-adapt``."""
        return f"{self.name.replace('_', '-')}-adapt"

    @property
    def recover_name(self) -> str:
        """The handle name of a recovering launch."""
        return f"{self.schedule}-recover"

    def relaunch(
        self, ctx: CollectiveContext, members: list[int]
    ) -> CollectiveHandle:
        """An epoch-restart attempt among the survivor ``members``: a tree
        collective launches them on the re-grafted tree in ``ctx``; a ring
        collective rings over them."""
        if self.tree:
            return self.launch(ctx, ranks=members)
        return self.launch(ctx, members=members)


#: Every collective, in figure-row order: the nine exact ADAPT collectives,
#: then the three quorum collectives. ``allreduce_quorum`` is flat: its
#: ingest is a star, and its down phase builds its own star.
COLLECTIVES: dict[str, AdaptCollective] = {
    c.name: c
    for c in (
        #               name, launch, tree, folds, recovery
        AdaptCollective("bcast", bcast_adapt, True, False, "in-place"),
        AdaptCollective("reduce", reduce_adapt, True, True, "restart"),
        AdaptCollective("scatter", scatter_adapt, True, False, "in-place"),
        AdaptCollective("gather", gather_adapt, True, False, "restart"),
        AdaptCollective("allreduce", allreduce_adapt, True, True, "restart"),
        AdaptCollective("allgather", allgather_adapt, False, False, "restart"),
        AdaptCollective("reduce_scatter", reduce_scatter_adapt, False, True,
                        "restart"),
        AdaptCollective("alltoall", alltoall_adapt, False, False, "in-place"),
        AdaptCollective("barrier", barrier_adapt, True, False, "in-place"),
        AdaptCollective("bcast_quorum", bcast_quorum, True, False, "quorum"),
        AdaptCollective("reduce_quorum", reduce_quorum, False, True, "quorum"),
        AdaptCollective("allreduce_quorum", allreduce_quorum, False, True,
                        "quorum"),
    )
}

#: The nine exact ADAPT collectives: what recovery, the analyzer and the
#: checker read.
ADAPT_COLLECTIVES: dict[str, AdaptCollective] = {
    name: c for name, c in COLLECTIVES.items() if not c.relaxed
}


@dataclass(frozen=True)
class VerifySpec:
    """One schedule's contract with the model checker."""

    schedule: str
    #: "adapt" | "blocking" | "nonblocking" | "demo"
    family: str
    #: The violation kind the checker is *expected* to report (demos only).
    expect: Optional[str] = None
    #: The table entry of an ADAPT collective (its fault-sweep repair path).
    adapt: Optional[AdaptCollective] = None


VERIFY_MODELS: dict[str, VerifySpec] = {
    spec.schedule: spec
    for spec in (
        # ADAPT event-based schedules: deadlock-free and race-free in every
        # ordering; each carries its DESIGN.md S20 recovery path.
        *(VerifySpec(c.schedule, "adapt", adapt=c)
          for c in ADAPT_COLLECTIVES.values()),
        # Baselines: models extract fine; the checker documents the orderings
        # they survive (the paper's Figure 2 argument, machine-checked).
        VerifySpec("bcast-blocking", "blocking"),
        VerifySpec("reduce-blocking", "blocking"),
        VerifySpec("bcast-nonblocking", "nonblocking"),
        VerifySpec("reduce-nonblocking", "nonblocking"),
        # Intentionally broken demos: the checker must produce the violation.
        VerifySpec("deadlock-demo", "demo", expect="deadlock"),
        VerifySpec("tag-mismatch-demo", "demo", expect="deadlock"),
        VerifySpec("race-demo", "demo", expect="race"),
    )
}
