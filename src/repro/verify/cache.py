"""Explored-state caching: skip re-exploration of unchanged models.

The sweep result cache (:class:`repro.parallel.ResultCache`) is
duck-typed — it only ever calls ``job.cache_key()`` — so a tiny shim keyed
by the *model fingerprint* (content hash of every op, guard, and the eager
threshold) plugs verification results into the same content-addressed
store the sweep executor uses. The store mixes in a hash of the package
source, so a re-verify of unchanged code is a warm hit, while any source
edit, or any change to the exploration mode or budget, misses cleanly
and re-explores.

Cached is the exploration *summary* (state counts, verdict, violation
digests), never the per-state sets — enough to certify on a warm run and
to re-print the report, while a caller who needs the states themselves
(the fault sweep) always explores live.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Optional

from repro.verify.checker import Exploration, MatchEvent, Violation
from repro.verify.model import ScheduleModel


@dataclass(frozen=True)
class VerifyKey:
    """Shim satisfying the cache's job protocol for one verification run."""

    fingerprint: str
    mode: str
    max_states: int

    def cache_key(self) -> str:
        blob = json.dumps(
            {
                "fingerprint": self.fingerprint,
                "mode": self.mode,
                "max_states": self.max_states,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()


def exploration_to_summary(e: Exploration) -> dict[str, Any]:
    return {
        "fingerprint": e.model.fingerprint(),
        "mode": e.mode,
        "states_explored": e.states_explored,
        "transitions_fired": e.transitions_fired,
        "maximal_states": e.maximal_states,
        "complete": e.complete,
        "violations": [
            {
                "kind": v.kind,
                "detail": v.detail,
                "pending": list(v.pending),
                "events": [[ev.send, ev.recv] for ev in v.trace],
            }
            for v in e.violations
        ],
    }


def summary_to_exploration(
    model: ScheduleModel, summary: dict[str, Any]
) -> Optional[Exploration]:
    """Rehydrate a cached summary against a freshly built model.

    Returns None (a miss) when the summary was computed for a different
    transition system — the fingerprint check makes a stale cache
    impossible to certify from.
    """
    if summary.get("fingerprint") != model.fingerprint():
        return None
    e = Exploration(
        model=model,
        mode=str(summary["mode"]),
        states_explored=int(summary["states_explored"]),
        transitions_fired=int(summary["transitions_fired"]),
        maximal_states=int(summary["maximal_states"]),
        complete=bool(summary["complete"]),
    )
    for v in summary.get("violations", []):
        e.violations.append(Violation(
            kind=str(v["kind"]),
            trace=tuple(
                MatchEvent(int(s), int(r)) for s, r in v.get("events", [])
            ),
            pending=tuple(v.get("pending", [])),
            detail=str(v.get("detail", "")),
        ))
    return e
