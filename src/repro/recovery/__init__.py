"""Live recovery for ADAPT collectives (DESIGN.md S20).

Three pillars, layered on the PR-2 fault stack:

1. **membership** — ULFM-style agreement: suspicions from the failure
   detector are coalesced, agreed over a survivor ring (a silent hop is
   itself declared failed), and committed as numbered
   :class:`~repro.recovery.membership.SurvivorView` epochs.
2. **repair** — every ADAPT collective completes under mid-flight
   fail-stop, by the recovery mode its
   :data:`~repro.collectives.models.ADAPT_COLLECTIVES` entry declares:
   ``in-place`` collectives repair inside the running state machine (tree
   re-grafting / peer excusal); ``restart`` collectives rerun among the
   survivors at each committed epoch
   (:class:`~repro.recovery.restart.EpochRestart`).
3. **integrity** — per-segment checksums with NACK-triggered retransmit
   live in the transport (:mod:`repro.mpi.runtime`); the ``corrupt`` fault
   kind exercises them.

:func:`launch_recover` is the front door: it arms the membership service
and launches the named collective in its recovering configuration.
"""

from __future__ import annotations

from repro.collectives.base import CollectiveContext, CollectiveHandle
from repro.collectives.models import ADAPT_COLLECTIVES
from repro.recovery.membership import (
    MembershipService,
    SurvivorView,
    agreed_view,
    ensure_membership,
    merge_suspicions,
    ring_walk,
)
from repro.recovery.restart import EpochRestart, book_view

__all__ = [
    "MembershipService",
    "SurvivorView",
    "agreed_view",
    "merge_suspicions",
    "ring_walk",
    "ensure_membership",
    "EpochRestart",
    "launch_recover",
]


def launch_recover(name: str, ctx: CollectiveContext) -> CollectiveHandle:
    """Launch collective ``name`` with live recovery armed.

    The fault-free path is byte-identical to the plain launch (attempt 0 is
    the unmodified algorithm; the membership service only acts on
    suspicions). Under fail-stop, in-place collectives keep running through
    the repair and the membership commit back-fills
    ``report.agreed_failed``/``epoch``; restart collectives relaunch among
    the survivors at each committed epoch.
    """
    op = ADAPT_COLLECTIVES.get(name)
    if op is None:
        raise ValueError(
            f"unknown collective {name!r}; known: {sorted(ADAPT_COLLECTIVES)}"
        )
    if op.recovery == "restart":
        return EpochRestart(
            ctx, op.recover_name, op.launch, op.relaunch, root_required=op.tree
        ).handle
    ms = ensure_membership(ctx.world)
    handle = op.launch(ctx)
    ms.subscribe(lambda view: book_view(handle, ctx.comm, view))
    return handle

