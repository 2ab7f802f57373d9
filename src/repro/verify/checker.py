"""Exhaustive interleaving exploration with dynamic partial-order reduction.

State abstraction
-----------------
A state is the *set of matched ops* (frozenset of op ids). Posting is a
deterministic monotone closure over that set (``_closure``), so the matched
set determines everything else — which ops are posted, completed, and which
matches are enabled. Two interleavings reaching the same matched set are
Mazurkiewicz-equivalent for every property checked here, which is what
makes memoized search sound.

Transitions
-----------
A transition *fires one match*: an in-flight send and an open recv with the
same wire key ``(src, dst, tag)`` pair up; both complete (an eager send
already completed locally at post — the match consumes its message). The
set of enabled matches at a state is exactly the runtime matcher's
candidate enumeration (``repro.mpi.matching.candidate_matches``).

Partial-order reduction
-----------------------
Two matches conflict iff they share an endpoint — impossible when every
wire key has at most one send and one recv in the whole model
(``ScheduleModel.key_unique``). In that case all enabled matches commute,
enabledness is monotone, the reachable maximal state is unique, and the
persistent set at every state collapses to a single representative match:
DPOR explores one linear path of ``#matches + 1`` states where naive
enumeration walks every down-set of the match order. All thirteen real
schedules are key-unique (their segment tags guarantee it — asserted by
tests); models with ambiguous keys fall back to full memoized enumeration,
which is sound unconditionally and still detects every race.

Verdicts
--------
* **deadlock** — some maximal state (no match enabled) leaves an op
  unposted, an open recv unmatched, or a rendezvous send undrained.
* **race** — at some reachable state two in-flight sends share a wire key
  (arrival order picks the winner: the schedule is not deterministic).
* **unmatched-send** — every rank completes but an eager message is never
  consumed (stranded in the unexpected queue).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.mpi.matching import MatchKey, candidate_matches
from repro.verify.model import ModelOp, ScheduleModel

DEADLOCK = "deadlock"
RACE = "race"
UNMATCHED_SEND = "unmatched-send"


@dataclass(frozen=True)
class MatchEvent:
    """One fired transition: send ``send`` delivered into recv ``recv``."""

    send: int
    recv: int


@dataclass(frozen=True)
class Violation:
    """One property failure with its witnessing interleaving."""

    kind: str  # DEADLOCK | RACE | UNMATCHED_SEND
    trace: tuple[MatchEvent, ...]
    #: Human-readable op descriptions: stuck obligations (deadlock) or the
    #: simultaneously-in-flight candidates (race).
    pending: tuple[str, ...] = ()
    detail: str = ""


@dataclass
class Exploration:
    """The result of exploring one model's state space."""

    model: ScheduleModel
    mode: str  # "dpor" | "naive"
    states_explored: int = 0
    transitions_fired: int = 0
    maximal_states: int = 0
    violations: list[Violation] = field(default_factory=list)
    #: False when the state or time budget stopped the search early.
    complete: bool = True
    elapsed: float = 0.0
    #: Every distinct matched-set reached (the fault sweep iterates these).
    states: list[frozenset[int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.complete and not self.violations

    @property
    def deadlock_free(self) -> bool:
        return not any(v.kind == DEADLOCK for v in self.violations)

    @property
    def race_free(self) -> bool:
        return not any(v.kind == RACE for v in self.violations)

    def first(self, kind: str) -> Optional[Violation]:
        return next((v for v in self.violations if v.kind == kind), None)

    def verdict(self) -> str:
        if not self.complete:
            return "UNKNOWN (budget exhausted)"
        if not self.violations:
            return "VERIFIED deadlock-free and race-free in all orderings"
        kinds = sorted({v.kind for v in self.violations})
        return f"VIOLATED: {', '.join(kinds)}"


def _closure(
    model: ScheduleModel, matched: frozenset[int]
) -> tuple[set[int], set[int]]:
    """(posted, completed) implied by the matched set — the deterministic
    part of execution, folded to a fixpoint with a worklist."""
    ops = model.ops
    dependents = model.dependents
    remaining = {oid: len(op.guards) for oid, op in ops.items()}
    posted: set[int] = set()
    completed: set[int] = set()
    stack: list[int] = []

    def post(oid: int) -> None:
        posted.add(oid)
        op = ops[oid]
        done = (
            op.kind == "local"
            or (op.kind == "send" and op.eager)
            or oid in matched
        )
        if done:
            stack.append(oid)

    for oid, op in ops.items():
        # Count only guards that are real ops; a guard dropped from the
        # model (cancelled) is vacuously satisfied.
        rem = sum(1 for g in op.guards if g in ops)
        remaining[oid] = rem
        if rem == 0:
            post(oid)
    while stack:
        done_oid = stack.pop()
        if done_oid in completed:
            continue
        completed.add(done_oid)
        for dep in dependents.get(done_oid, ()):
            remaining[dep] -= 1
            if remaining[dep] == 0:
                post(dep)
    return posted, completed


def _enabled(
    model: ScheduleModel, posted: set[int], matched: frozenset[int]
) -> tuple[list[MatchEvent], dict[MatchKey, list[int]]]:
    """Enabled matches at a state, plus keys with racing in-flight sends."""
    flight = [
        s for s in model.sends if s.oid in posted and s.oid not in matched
    ]
    open_recvs = [
        r for r in model.recvs if r.oid in posted and r.oid not in matched
    ]
    cands = candidate_matches(
        ((s.oid, *s.key) for s in flight),
        ((r.oid, *r.key) for r in open_recvs),
    )
    events = [
        MatchEvent(s, r)
        for key in sorted(cands)
        for s in cands[key][0]
        for r in cands[key][1]
    ]
    races = {
        key: ss
        for key, (ss, _) in cands.items()
        if len(ss) >= 2 and model.key_census[key][1]
    }
    return events, races


def _stuck(
    model: ScheduleModel, posted: set[int], completed: set[int],
    matched: frozenset[int],
) -> tuple[list[ModelOp], list[ModelOp]]:
    """(incomplete obligations, unconsumed eager sends) at a maximal state."""
    stuck = [
        op for oid, op in sorted(model.ops.items()) if oid not in completed
    ]
    # Open recvs count as stuck even though `completed` covers them: a recv
    # completes only via a match, so it is already in the first list.
    unconsumed = [
        s for s in model.sends
        if s.eager and s.oid in posted and s.oid not in matched
    ]
    return stuck, unconsumed


def _describe_stuck(
    model: ScheduleModel, op: ModelOp, posted: set[int], completed: set[int]
) -> str:
    if op.oid not in posted:
        waiting = sorted(
            g for g in op.guards if g in model.ops and g not in completed
        )
        gates = ", ".join(model.describe(g) for g in waiting[:3])
        more = "" if len(waiting) <= 3 else f" (+{len(waiting) - 3} more)"
        return f"{op.label} never posted: waiting on {gates}{more}"
    if op.kind == "recv":
        return f"{op.label} posted but no matching send ever in flight"
    return f"{op.label} posted but never drained (rendezvous, no recv)"


def explore(
    model: ScheduleModel,
    mode: str = "auto",
    max_states: int = 200_000,
    budget_seconds: Optional[float] = None,
    keep_states: bool = True,
) -> Exploration:
    """Explore every inequivalent interleaving of ``model``.

    ``mode``: ``"auto"`` picks DPOR when the model is key-unique and full
    enumeration otherwise; ``"naive"`` forces full enumeration (the
    comparison baseline the CLI reports); ``"dpor"`` asserts key-uniqueness.
    """
    t0 = time.monotonic()
    if mode == "auto":
        mode = "dpor" if model.key_unique else "naive"
    elif mode == "dpor" and not model.key_unique:
        raise ValueError(
            "DPOR's singleton persistent set is only sound for key-unique "
            "models; this model has ambiguous wire keys (use mode='naive')"
        )
    elif mode not in ("dpor", "naive"):
        raise ValueError(f"unknown exploration mode {mode!r}")

    out = Exploration(model=model, mode=mode)
    visited: set[frozenset[int]] = set()
    raced_keys: set[MatchKey] = set()
    #: DFS over (matched-set, path); path reconstructs the counterexample.
    frontier: list[tuple[frozenset[int], tuple[MatchEvent, ...]]] = [
        (frozenset(), ())
    ]
    while frontier:
        if len(visited) >= max_states or (
            budget_seconds is not None
            and time.monotonic() - t0 > budget_seconds
        ):
            out.complete = False
            break
        state, path = frontier.pop()
        if state in visited:
            continue
        visited.add(state)
        if keep_states:
            out.states.append(state)
        posted, completed = _closure(model, state)
        events, races = _enabled(model, posted, state)
        for key in sorted(races):
            if key in raced_keys:
                continue
            raced_keys.add(key)
            src, dst, tag = key
            labels = tuple(
                model.describe(s) for s in races[key]
            ) + tuple(
                f"open {model.describe(r)}"
                for r in model.key_census[key][1]
            )
            out.violations.append(Violation(
                kind=RACE,
                trace=path,
                pending=labels,
                detail=(
                    f"{len(races[key])} sends simultaneously in flight on "
                    f"key (src={src}, dst={dst}, tag={tag}): the recv's "
                    "match depends on arrival order"
                ),
            ))
        if not events:
            out.maximal_states += 1
            stuck, unconsumed = _stuck(model, posted, completed, state)
            if stuck:
                pending = tuple(
                    _describe_stuck(model, op, posted, completed)
                    for op in stuck[:16]
                )
                ranks = sorted({op.rank for op in stuck})
                out.violations.append(Violation(
                    kind=DEADLOCK,
                    trace=path,
                    pending=pending,
                    detail=(
                        f"maximal execution after {len(path)} matches leaves "
                        f"{len(stuck)} operation(s) incomplete on rank(s) "
                        f"{ranks}"
                    ),
                ))
            elif unconsumed:
                out.violations.append(Violation(
                    kind=UNMATCHED_SEND,
                    trace=path,
                    pending=tuple(op.label for op in unconsumed[:16]),
                    detail=(
                        f"{len(unconsumed)} eager message(s) never consumed "
                        "by any recv (stranded in the unexpected queue)"
                    ),
                ))
            continue
        if mode == "dpor":
            # Key-unique: every enabled match is independent of every other
            # and stays enabled until fired — one representative suffices.
            chosen = [min(events, key=lambda e: (e.send, e.recv))]
        else:
            chosen = events
        for ev in chosen:
            out.transitions_fired += 1
            nxt = state | {ev.send, ev.recv}
            if nxt not in visited:
                frontier.append((nxt, path + (ev,)))
    out.states_explored = len(visited)
    out.elapsed = time.monotonic() - t0
    return out
