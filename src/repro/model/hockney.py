"""Hockney's cost model (paper Section 5.2.1).

The paper analyzes its pipelined collectives with Hockney's model [16]: a
message of ``m`` bytes between two processes costs ``T = alpha + beta*m``
(+ ``gamma*m`` of reduction arithmetic), and the pipelined chain over P
processes with ns segments costs

    T_chain = (P + ns - 2) * (alpha + beta*m_seg)        (Pjesivac-Grbovic [29])

which, for enough segments, is ~ ``ns * (alpha + beta*m_seg)`` — independent
of P, the paper's explanation for ADAPT's flat strong-scaling curves
(Figures 10/11b).

These functions give the analytic predictions; the tests drive the simulator
on the same configurations and check the two agree — the simulator is the
measurement, the model is the paper's theory, and their agreement is what
makes the strong-scaling claims interpretable rather than coincidental.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Optional

from repro.config import CollectiveConfig
from repro.machine.spec import CommLevel, MachineSpec
from repro.trees.base import Tree


@dataclass(frozen=True)
class HockneyParams:
    """alpha/beta(/gamma) of one communication level."""

    alpha: float
    beta: float            # seconds per byte (1 / bandwidth)
    gamma: float = 0.0     # seconds per byte of reduction arithmetic

    @staticmethod
    def of(spec: MachineSpec, level: CommLevel, reduce_: bool = False) -> "HockneyParams":
        lp = spec.level_params(level)
        gamma = 1.0 / spec.cpu_reduce_bandwidth if reduce_ else 0.0
        return HockneyParams(lp.alpha, 1.0 / lp.bandwidth, gamma)


def point_to_point_time(p: HockneyParams, nbytes: int) -> float:
    """T = alpha + beta m (+ gamma m)."""
    return p.alpha + (p.beta + p.gamma) * nbytes


def chain_pipeline_time(p: HockneyParams, nbytes: int, nproc: int, nseg: int) -> float:
    """Pipelined chain: (P + ns - 2)(alpha + beta m_seg) (paper, after [29])."""
    if nproc < 1 or nseg < 1:
        raise ValueError("need at least one process and one segment")
    m_seg = ceil(nbytes / nseg)
    per_hop = point_to_point_time(p, m_seg)
    return (nproc + nseg - 2) * per_hop


def tree_pipeline_time(
    spec: MachineSpec,
    tree: Tree,
    level_of_edge,
    nbytes: int,
    config: CollectiveConfig,
    reduce_: bool = False,
) -> float:
    """Generalize the chain formula to any tree whose edges have levels.

    The pipelined completion time is governed by the deepest root-to-leaf
    path: fill time (sum of per-hop costs along the path, each hop also
    serializing over the fanout of its parent) plus (ns - 1) drains of the
    slowest hop on that path.
    """
    sizes = config.segments_for(nbytes)
    nseg = len(sizes)
    m_seg = sizes[0]

    def hop_cost(a: int, b: int) -> float:
        p = HockneyParams.of(spec, level_of_edge(a, b), reduce_)
        return point_to_point_time(p, m_seg)

    worst = 0.0
    for leaf in range(tree.size):
        if tree.children[leaf]:
            continue
        # Walk up to the root accumulating fill; track the slowest hop.
        fill = 0.0
        slowest = 0.0
        r = leaf
        while tree.parent[r] is not None:
            parent = tree.parent[r]
            cost = hop_cost(parent, r)
            fill += cost
            slowest = max(slowest, cost)
            r = parent
        total = fill + (nseg - 1) * slowest
        worst = max(worst, total)
    return worst


def predict_adapt_bcast(
    spec: MachineSpec,
    tree: Tree,
    level_of_edge,
    nbytes: int,
    config: Optional[CollectiveConfig] = None,
) -> float:
    """Analytic prediction of ADAPT's pipelined topology-aware broadcast."""
    return tree_pipeline_time(
        spec, tree, level_of_edge, nbytes, config or CollectiveConfig(), reduce_=False
    )
