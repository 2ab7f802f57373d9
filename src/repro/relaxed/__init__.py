"""Bounded-staleness quorum policy and accounting (DESIGN.md S25).

What the relaxed collectives share with their consumers: the
:class:`QuorumPolicy` a quorum operation completes under, and the
per-world staleness frontier with its double-entry contribution ledger,
enforced by the sanitizer's conservation rule. The three launchers live
beside the other collectives, in :mod:`repro.collectives.quorum`; nothing
here imports :mod:`repro.collectives`.
"""

from repro.relaxed.frontier import (
    DISCARDED,
    LATE,
    ON_TIME,
    OPEN,
    ContributionLedger,
    StalenessFrontier,
    ensure_frontier,
)
from repro.relaxed.policy import QuorumPolicy

__all__ = [
    "DISCARDED",
    "LATE",
    "ON_TIME",
    "OPEN",
    "ContributionLedger",
    "QuorumPolicy",
    "StalenessFrontier",
    "ensure_frontier",
]
