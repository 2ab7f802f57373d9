"""Staleness-tolerant data-parallel SGD (DESIGN.md S25's consumer).

The relaxed collectives exist to serve algorithms that *tolerate* partial
participation; synchronous data-parallel SGD with gradient averaging is the
canonical one (SSP-style bounded staleness). Each epoch every rank computes
a gradient for ``compute_per_epoch`` seconds, then the gradients are
averaged with an allreduce — exact ADAPT (``quorum=None``) or
:func:`~repro.collectives.quorum.allreduce_quorum` under a
:class:`~repro.relaxed.QuorumPolicy`. A straggler whose gradient misses the
quorum merges it into a later epoch (within the staleness window) or loses
it to an accounted discard.

Two entry points, mirroring :mod:`repro.apps.asp`:

* :func:`run_sgd` — the timed experiment: epochs run through the harness's
  per-rank chain; the run's *provenance* (which rank contributed to
  which epoch, which gradients merged late and where) then drives a real
  numpy replay of the optimization, so the reported ``excess_loss`` is the
  genuine numerical cost of the staleness the schedule produced. The model
  problem is a per-rank quadratic ``f_r(x) = ||x - t_r||^2 / 2`` (gradient
  ``x - t_r``), whose exact optimum is the mean of the seeded targets —
  excess loss has a closed form to compare against.
* :func:`sgd_reference` — the replay itself, usable directly by tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Sequence, Union

import numpy as np

from repro.config import DEFAULT_COLLECTIVE, CollectiveConfig
from repro.faults.plan import FaultPlan
from repro.harness.runner import _build_world, _chain
from repro.libraries.presets import library_by_name, prepare_operation
from repro.machine.spec import MachineSpec
from repro.relaxed.policy import QuorumPolicy

#: Model-problem dimensionality: small enough that the replay is free, large
#: enough that seeded targets are in general position.
_DIM = 64


@dataclass
class SgdResult:
    """One SGD run: simulated timing + replayed optimization quality."""

    nranks: int
    epochs: int
    grad_bytes: int
    quorum: Optional[Union[int, float]]
    min_quorum: int
    staleness_window: int
    noise_percent: float
    seed: int
    total_runtime: float = 0.0
    epoch_times: list = field(default_factory=list)
    # The numerical cost of staleness: f(x_final) - f(x*) on the replayed
    # quadratic (0 = converged exactly as a fault-free synchronous run).
    excess_loss: float = 0.0
    # Provenance accounting across all epochs.
    on_time_fraction: float = 1.0
    late_merged: int = 0
    discarded: int = 0
    degraded: bool = False
    completed: bool = True

    def to_dict(self) -> dict:
        """JSON-able form (the parallel executor's wire/cache format)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "SgdResult":
        return cls(**d)


def sgd_reference(
    nranks: int,
    provenance: list,
    *,
    seed: int = 0,
    lr: float = 0.1,
    dim: int = _DIM,
) -> tuple[np.ndarray, float]:
    """Replay an SGD schedule's provenance as a real optimization.

    ``provenance`` is one entry per epoch: ``(on_time_ranks, late)`` where
    ``late`` lists ``(rank, from_epoch_index)`` gradients merged into this
    epoch but *computed against the iterate that epoch started from* — the
    SSP staleness semantics. Returns ``(x_final, excess_loss)``.
    """
    rng = np.random.default_rng(seed)
    targets = rng.standard_normal((nranks, dim))
    xs = [np.zeros(dim)]
    for on_time, late in provenance:
        x = xs[-1]
        grads = [x - targets[r] for r in sorted(on_time)]
        grads += [
            xs[from_idx] - targets[r]
            for r, from_idx in sorted(late)
        ]
        if grads:
            x = x - lr * np.mean(grads, axis=0)
        xs.append(x)
    x_star = targets.mean(axis=0)

    def f(x: np.ndarray) -> float:
        return float(0.5 * np.mean(np.sum((x[None, :] - targets) ** 2, axis=1)))

    return xs[-1], f(xs[-1]) - f(x_star)


def run_sgd(
    spec: MachineSpec,
    nranks: int,
    *,
    epochs: int = 8,
    grad_bytes: int = 1 << 20,
    compute_per_epoch: float = 1e-3,
    quorum: Optional[QuorumPolicy] = None,
    noise_percent: float = 0.0,
    noise_ranks: Union[str, Sequence[int]] = "per-node",
    noise_frequency: float = 10.0,
    seed: int = 0,
    fault_plan: Optional[FaultPlan] = None,
    sanitize: bool = False,
    time_limit: Optional[float] = None,
    lr: float = 0.1,
    config: CollectiveConfig = DEFAULT_COLLECTIVE,
) -> SgdResult:
    """Run data-parallel SGD through the simulator and replay its numerics.

    ``quorum=None`` runs the exact ADAPT allreduce (the synchronous
    comparator); a policy relaxes the gradient averaging with
    :func:`~repro.collectives.quorum.allreduce_quorum` under it.
    """
    world, comm, injectors, deadline = _build_world(
        spec, nranks, fault_plan=fault_plan, time_limit=time_limit,
        noise_percent=noise_percent, noise_ranks=noise_ranks,
        noise_frequency=noise_frequency, seed=seed, sanitize=sanitize,
    )
    prepare = prepare_operation(
        library_by_name("OMPI-adapt"),
        "allreduce" if quorum is None else "allreduce_quorum", policy=quorum,
    )

    # Every rank computes its first gradient, then enters epoch 0.
    start = world.engine.now
    handles, epoch_times = _chain(
        world, comm, lambda _k: prepare(comm, 0, grad_bytes, config), epochs,
        injectors, deadline, gap=compute_per_epoch, lead=True,
    )
    policy = quorum or QuorumPolicy()
    result = SgdResult(
        nranks=nranks, epochs=epochs, grad_bytes=grad_bytes,
        quorum=None if quorum is None else policy.quorum,
        min_quorum=policy.min_quorum,
        staleness_window=policy.staleness_window,
        noise_percent=noise_percent, seed=seed, epoch_times=epoch_times,
    )
    result.completed = handles[-1] is not None and handles[-1].done
    # Completion is measured from the handles, not ``engine.now`` — the
    # drive loop runs in coarse horizons and the world keeps draining
    # detector timers long after the last epoch seals.
    ends = [max(h.done_time.values()) for h in handles
            if h is not None and h.done and h.done_time]
    result.total_runtime = (
        max(ends) if result.completed else world.engine.now
    ) - start
    live = [h for h in handles if h is not None]
    result.degraded = any(h.report.degraded for h in live)

    # -- provenance -> numpy replay ------------------------------------------
    frontier = getattr(world, "staleness_frontier", None)
    if frontier is not None:
        frontier.flush_pending()
    by_epoch = {
        h.report.staleness_epoch: i
        for i, h in enumerate(handles)
        if h is not None and h.report.staleness_epoch
    }
    provenance: list = []
    for h in handles:
        if h is None:
            provenance.append((set(), []))
        elif h.report.staleness_epoch:
            provenance.append((set(h.report.contributed_ranks), []))
        else:
            provenance.append((set(h.done_time), []))
    on_time_total = 0
    for i, h in enumerate(handles):
        if h is None:
            continue
        on_time_total += len(provenance[i][0])
        for rank, from_e, into_e in h.report.late_merges:
            if into_e >= 0 and into_e in by_epoch and from_e in by_epoch:
                provenance[by_epoch[into_e]][1].append(
                    (rank, by_epoch[from_e])
                )
                result.late_merged += 1
            else:
                result.discarded += 1
    result.on_time_fraction = (
        on_time_total / float(epochs * nranks) if epochs and nranks else 1.0
    )
    _, result.excess_loss = sgd_reference(
        nranks, provenance, seed=seed, lr=lr
    )
    return result
