"""Transition-model extraction: a recorded schedule as a transition system.

The recording runtime (``repro.analysis.depgraph``) already captures every
operation a schedule posts and the completions that gated each posting. This
module re-reads that graph as an executable model:

* an **op** is a send, recv, or local step (reduction / compute), carrying
  its *guard* — the set of ops whose completion triggered its posting in
  the recorded run (callback gates, wait/waitall barriers, window refills);
* an op **posts** as soon as its whole guard has completed (posting is a
  deterministic, monotone closure — local ops and eager sends complete at
  post, so guard chains collapse without scheduling choices);
* the only nondeterminism is **message matching**: which in-flight send an
  open recv pairs with, the arrival-order freedom a real network has.

Soundness rests on the data-oblivious-schedule contract declared per
schedule in ``repro.collectives.models.VERIFY_MODELS``: what gets posted
(and what gates it) must not depend on payload bytes. Under that contract,
the guards observed in one recorded run are the guards of *every* run, and
exploring all match orders covers all network behaviours (the classic
dynamic-verification argument of ISP/DAMPI). Guards are an
over-approximation of true enabling in one direction only — an op recorded
as gated by the *last* of several sufficient triggers gets the superset —
which can delay posting in the model, never invent it; completions are
monotone, so this cannot mask a deadlock (DESIGN.md S21).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional

from repro.analysis.depgraph import DepGraph
from repro.config import DEFAULT_RUNTIME
from repro.mpi.matching import MatchKey, candidate_matches, match_key

#: Dependency-edge provenances that are *not* posting guards: match edges
#: pair a recv with its send after the fact, and provenance edges are
#: recovered data-flow, not the trigger that posted the op.
_NON_GUARD_VIA = ("match", "provenance")

#: Graph node kinds that become local (zero-latency) model steps.
_LOCAL_KINDS = ("reduce", "compute")


@dataclass(frozen=True)
class ModelOp:
    """One operation of the transition system."""

    oid: int
    kind: str  # "send" | "recv" | "local"
    rank: int
    peer: Optional[int]
    tag: Optional[int]
    nbytes: int
    #: Sends only: completes locally at post (below the eager threshold).
    eager: bool
    #: Ops whose completion posts this one (empty = posted at launch).
    guards: frozenset[int]
    label: str

    @property
    def key(self) -> MatchKey:
        """The wire matching key; send/recv ops only."""
        assert self.kind in ("send", "recv") and self.peer is not None
        assert self.tag is not None
        return match_key(self.kind, self.rank, self.peer, self.tag)


@dataclass
class ScheduleModel:
    """An extracted schedule as ops + guards, ready to explore."""

    ops: dict[int, ModelOp]
    meta: dict[str, Any] = field(default_factory=dict)
    eager_threshold: int = DEFAULT_RUNTIME.eager_threshold

    @cached_property
    def sends(self) -> tuple[ModelOp, ...]:
        return tuple(
            op for _, op in sorted(self.ops.items()) if op.kind == "send"
        )

    @cached_property
    def recvs(self) -> tuple[ModelOp, ...]:
        return tuple(
            op for _, op in sorted(self.ops.items()) if op.kind == "recv"
        )

    @cached_property
    def dependents(self) -> dict[int, tuple[int, ...]]:
        """guard oid -> ops it helps post (the closure's worklist edges)."""
        out: dict[int, list[int]] = {}
        for oid, op in sorted(self.ops.items()):
            for g in op.guards:
                out.setdefault(g, []).append(oid)
        return {g: tuple(v) for g, v in out.items()}

    @cached_property
    def key_census(self) -> dict[MatchKey, tuple[list[int], list[int]]]:
        """Wire key -> (send oids, recv oids) over the whole model."""
        return candidate_matches(
            ((s.oid, *s.key) for s in self.sends),
            ((r.oid, *r.key) for r in self.recvs),
        )

    @cached_property
    def key_unique(self) -> bool:
        """True when every wire key has at most one send and one recv.

        Key-unique models have no match ambiguity anywhere: every enabled
        match commutes with every other, the reachable maximal state is
        unique (confluence), and the DPOR persistent set collapses to a
        single representative interleaving. All thirteen real schedules in
        this repository are key-unique — segment tags see to it.
        """
        return all(
            len(ss) <= 1 and len(rr) <= 1
            for ss, rr in self.key_census.values()
        )

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(sorted({op.rank for op in self.ops.values()}))

    def describe(self, oid: int) -> str:
        return self.ops[oid].label

    def fingerprint(self) -> str:
        """Content hash of the transition system (ops, guards, config).

        Two recordings of the same schedule at the same parameters produce
        the same fingerprint; any structural change gives a new one. A saved
        counterexample carries it, so a replay checks its embedded model.
        """
        payload = {
            "eager_threshold": self.eager_threshold,
            "ops": [
                [
                    op.oid, op.kind, op.rank, op.peer, op.tag, op.nbytes,
                    op.eager, sorted(op.guards),
                ]
                for _, op in sorted(self.ops.items())
            ],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def model_from_graph(
    graph: DepGraph, eager_threshold: Optional[int] = None
) -> ScheduleModel:
    """Re-read a recorded dependency graph as a transition system.

    Keeps send/recv/reduce/compute nodes (wait and callback nodes are
    recording scaffolding; their gating is already carried by the dep edges
    into the ops they posted). Cancelled requests were withdrawn, so they
    are neither obligations nor guards.
    """
    if eager_threshold is None:
        eager_threshold = int(
            graph.meta.get("eager_threshold", DEFAULT_RUNTIME.eager_threshold)
        )
    kept: dict[int, str] = {}
    for nid, node in sorted(graph.nodes.items()):
        if node.cancelled:
            continue
        if node.kind in ("send", "recv"):
            kept[nid] = node.kind
        elif node.kind in _LOCAL_KINDS:
            kept[nid] = "local"
    guards: dict[int, set[int]] = {nid: set() for nid in kept}
    for e in graph.dep_edges:
        if e.via in _NON_GUARD_VIA:
            continue
        if e.dst in kept and e.src in kept:
            guards[e.dst].add(e.src)
    ops: dict[int, ModelOp] = {}
    for nid, kind in kept.items():
        node = graph.nodes[nid]
        ops[nid] = ModelOp(
            oid=nid,
            kind=kind,
            rank=node.rank,
            peer=node.peer,
            tag=node.tag,
            nbytes=node.nbytes,
            eager=(kind == "send" and node.nbytes <= eager_threshold),
            guards=frozenset(guards[nid]),
            label=node.describe(),
        )
    return ScheduleModel(
        ops=ops, meta=dict(graph.meta), eager_threshold=eager_threshold
    )


def build_model(
    schedule: str,
    nranks: int = 8,
    tree: str = "binary",
    nbytes: int = 64 * 1024,
    segment_size: int = 16 * 1024,
    root: int = 0,
) -> ScheduleModel:
    """Record ``schedule`` on a fresh instrumented world and extract it.

    Recording is deterministic, so equal parameters yield byte-equal models
    (and therefore equal fingerprints) — counterexample replay depends on
    this.
    """
    from repro.analysis.schedules import DEMO_SCHEDULES, analyze_schedule
    from repro.config import CollectiveConfig

    if schedule in DEMO_SCHEDULES:
        graph = analyze_schedule(schedule, nranks=nranks, nbytes=nbytes)
    else:
        graph = analyze_schedule(
            schedule,
            nranks=nranks,
            tree=tree,
            nbytes=nbytes,
            config=CollectiveConfig(segment_size=segment_size),
            root=root,
        )
    return model_from_graph(graph)
