"""Collective benchmark runner (the IMB stand-in).

One *measurement* = a fresh simulated world, an optional armed noise
injector, and ``iterations`` launches of the collective.

Two iteration modes, matching how real benchmarks behave:

* ``mode="imb"`` (default, the paper's methodology): iterations run
  back-to-back **per rank** — a rank enters iteration i+1 the moment its own
  part of iteration i returns, with no global barrier, exactly like the
  ``for (i..) MPI_Bcast(...)`` timing loop of the Intel MPI Benchmark. Ranks
  drift, successive iterations pipeline, and noise can be *absorbed* by that
  slack — the effect the paper measures. Reported times are the per-iteration
  completion intervals (total/iterations on average).
* ``mode="sequential"``: a global barrier between iterations (every iteration
  starts only after the previous fully completed). Pessimistic for noise;
  useful for isolating single-shot latency.

The world builder (``_build_world``) and the IMB loop (``_chain``) also run
the applications in :mod:`repro.apps`: ASP and SGD add a per-rank compute
gap between iterations and own no loop of their own. Each of the three
runners pauses the cyclic collector for its run (``_collector_paused``).
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, ParamSpec, Sequence, TypeVar, Union

from repro.config import DEFAULT_COLLECTIVE, CollectiveConfig, RuntimeConfig
from repro.faults.plan import FaultPlan
from repro.libraries.presets import (
    LibraryModel,
    PreparedCollective,
    library_by_name,
    prepare_operation,
)
from repro.machine.spec import MachineSpec
from repro.mpi.communicator import Communicator
from repro.mpi.ops import SUM, ReduceOp
from repro.mpi.runtime import MpiWorld
from repro.relaxed.policy import QuorumPolicy


def _pairwise_sum(values: Sequence[float], lo: int, n: int) -> float:
    """Sum of ``values[lo:lo + n]`` in numpy's float64 summation order: a
    plain loop under 8 items, 8 running sums up to 128, else halves split
    at a multiple of 8."""
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += values[i]
        return res
    if n <= 128:
        r = list(values[lo:lo + 8])
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            for j in range(8):
                r[j] += values[i + j]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, lo + n):
            res += values[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, half) + _pairwise_sum(values, lo + half, n - half)


def outcome_of(completed: bool, degraded: bool) -> str:
    """What a run delivered (DESIGN.md S17): ``complete`` or ``degraded``
    when every iteration time is finite, else ``unrecoverable`` when a
    failure was heard or ``hung`` when none was (a Waitall hang)."""
    if completed:
        return "degraded" if degraded else "complete"
    return "unrecoverable" if degraded else "hung"


@dataclass
class RunResult:
    """Timings of one measurement."""

    library: str
    operation: str
    machine: str
    nranks: int
    nbytes: int
    noise_percent: float
    times: list[float] = field(default_factory=list)
    seed: int = 0
    # Fault runs (repro.faults): transport counters, degraded completions,
    # and whether every iteration actually finished (a dead rank leaves
    # blocking schedules incomplete — their times become inf).
    transport: dict = field(default_factory=dict)
    degraded: bool = False
    completed: bool = True
    # Observability (repro.obs): per-run metrics (observe="metrics"/"trace"),
    # the full span dump (observe="trace" only), and whether the span
    # buffer hit its cap and dropped the tail.
    metrics: Optional[dict] = None
    obs: Optional[dict] = None
    trace_truncated: bool = False
    # Live recovery (repro.recovery): the membership protocol's agreed
    # failed set (world ranks) and its worst suspect-to-commit latency.
    failed_ranks: list = field(default_factory=list)
    time_to_repair: Optional[float] = None
    # Partition tolerance (repro.faults.detector): ranks the adaptive
    # detector confirmed failed and later retracted (false kills), and
    # how many membership rounds parked awaiting quorum.
    false_kills: int = 0
    quorum_parks: int = 0
    # Engine counters at the end of the run (events processed, pending,
    # cancelled-parked); the bench scale leg derives events/sec from these.
    engine_stats: dict = field(default_factory=dict)
    # Relaxed quorum collectives (repro.relaxed, DESIGN.md S25): the union
    # of contributing ranks across iterations (result provenance), the last
    # staleness-frontier epoch (0 = exact operations only), and every
    # straggler's fate as [rank, from_epoch, into_epoch] (into -1 =
    # discarded).
    contributed_ranks: list = field(default_factory=list)
    staleness_epoch: int = 0
    late_merges: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-able form (the parallel executor's wire/cache format)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "RunResult":
        return cls(**d)

    @property
    def mean_time(self) -> float:
        # np.mean's pairwise sum, which can differ from sum/len in the last
        # digit of a golden.
        if not self.times:
            return float("nan")
        return _pairwise_sum(self.times, 0, len(self.times)) / len(self.times)

    @property
    def outcome(self) -> str:
        return outcome_of(self.completed, self.degraded)

    def __str__(self) -> str:
        line = (
            f"{self.library:<20} {self.operation:<8} P={self.nranks:<5} "
            f"{self.nbytes:>9}B noise={self.noise_percent:>4.1f}% "
            f"mean={self.mean_time * 1e3:8.3f} ms seed={self.seed}"
        )
        if self.transport:
            line += (
                f" [drops={self.transport.get('dropped', 0)}"
                f" retransmits={self.transport.get('retransmits', 0)}"
            )
            if self.degraded:
                line += " degraded"
            if not self.completed:
                line += " INCOMPLETE"
            line += "]"
        return line


_P = ParamSpec("_P")
_R = TypeVar("_R")


def _collector_paused(run: Callable[_P, _R]) -> Callable[_P, _R]:
    """Run ``run`` with the cyclic collector paused, then free its world.

    A world is a large graph of cyclic containers that lives exactly as
    long as the run. With the collector on, every full collection during
    the run re-walks all of it. Paused, the collector leaves every
    container the run allocates in the young generation, so one young
    collection after ``run`` returns frees the whole world without
    walking the rest of the heap. That holds because the runner builds
    its world inside the call. A caller that already paused the collector
    keeps its own policy: nested runs do nothing extra.
    """

    @functools.wraps(run)
    def paused(*args: _P.args, **kwargs: _P.kwargs) -> _R:
        if not gc.isenabled():
            return run(*args, **kwargs)
        gc.disable()
        try:
            result = run(*args, **kwargs)
        finally:
            gc.enable()
        gc.collect(0)
        return result

    return paused


def iteration_end(handle) -> float:
    """When an iteration delivered its result, the one rule every runner's
    times come from (DESIGN.md S17): its last finished rank's completion
    time, or ``inf`` if it was never launched, was not done by the deadline
    (hung), no rank finished, or a failure abandoned it (unrecoverable)."""
    if (handle is None or not handle.done or not handle.done_time
            or handle.report.unrecoverable):
        return float("inf")
    return max(handle.done_time.values())


def _drive(world: MpiWorld, injectors: list, done, deadline: Optional[float] = None) -> None:
    """Run the world until ``done()``, keeping noise/fault injectors armed.

    Stops early at ``deadline`` (simulated seconds): a blocking schedule
    whose peer fail-stopped never finishes, and a plan with kills or
    partitions always brings a deadline (:func:`_build_world`).
    """
    if not injectors and deadline is None:
        world.run()
        return
    horizon = 0.05
    while not done():
        for inj in injectors:
            inj.arm(horizon)
        world.run(until=world.engine.now + horizon)
        if deadline is not None and world.engine.now >= deadline:
            break
        horizon = min(horizon * 2, 5.0)


def _build_world(
    spec: MachineSpec,
    nranks: int,
    *,
    runtime_config: Optional[RuntimeConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
    time_limit: Optional[float] = None,
    noise_percent: float = 0.0,
    noise_ranks: Union[str, Sequence[int]] = "per-node",
    noise_frequency: float = 10.0,
    seed: int = 0,
    gpu: bool = False,
    sanitize: bool = False,
    observe: bool = False,
) -> tuple[MpiWorld, Communicator, list, Optional[float]]:
    """One fresh measurement world: ``(world, comm, injectors, deadline)``.

    The injectors are the fault injector, then the noise injector (the
    order ``_drive`` arms them in). A plan that loses, corrupts or severs
    messages implies the reliable transport unless ``runtime_config`` says
    otherwise; a plan with kills or partitions bounds the run at
    ``time_limit`` (default 10 simulated seconds), returned as an absolute
    ``deadline``. A world that gets no failure detector here never gets
    one, so its subscription buffer is closed.
    """
    if runtime_config is None:
        # Corruption needs the reliable transport too: a checksum-rejected
        # rendezvous on the raw transport is just a lost message.
        # Partitions need it likewise: severed traffic must be retried
        # (heal-before-deadline) or abandoned (confirmed failure), and the
        # raw transport can do neither.
        reliable = bool(
            fault_plan is not None
            and (fault_plan.losses or fault_plan.corrupts or fault_plan.partitions)
        )
        runtime_config = RuntimeConfig(reliable=reliable)
    if (
        fault_plan is not None
        and (fault_plan.kills or fault_plan.partitions)
        and time_limit is None
    ):
        time_limit = 10.0
    world = MpiWorld(
        spec,
        nranks,
        config=runtime_config,
        gpu_bound=gpu,
        carry_data=False,
        sanitize=sanitize,
        observe=observe,
    )
    comm = Communicator(world)
    injectors: list = []
    if fault_plan is not None:
        from repro.faults.injector import FaultInjector

        injectors.append(FaultInjector(world, fault_plan))
    if noise_percent > 0:
        from repro.noise.injector import NoiseInjector

        if noise_ranks == "per-node":
            # Kernel-level noise daemons steal one core per node (the
            # Beckman et al. [2] methodology the paper follows): the rank
            # sharing that core sees the noise, its node-mates do not.
            targets = sorted(
                {min(world.topology.ranks_on_node(n)) for n in range(spec.nodes)
                 if world.topology.ranks_on_node(n)}
            )
        else:
            targets = list(noise_ranks)  # type: ignore[arg-type]
        injectors.append(NoiseInjector(
            world, noise_percent, frequency_hz=noise_frequency, seed=seed,
            ranks=targets,
        ))
    if world.failure_detector is None:
        # Only a fault injector attaches a detector, and they are all built:
        # a subscription buffered now would only keep its launch alive.
        world.close_failure_subscriptions()
    deadline = (world.engine.now + time_limit) if time_limit is not None else None
    return world, comm, injectors, deadline


def _chain(
    world: MpiWorld,
    comm: Communicator,
    prepare: Callable[[int], PreparedCollective],
    iterations: int,
    injectors: list,
    deadline: Optional[float],
    *,
    gap: Optional[float] = None,
    lead: bool = False,
) -> tuple[list, list[float]]:
    """Run ``iterations`` per-rank chained launches: the IMB timing loop.

    ``prepare(i)`` builds iteration i. Iteration 0 starts on every rank at
    once; after that each rank enters i+1 the moment its own part of i
    returns. With a compute ``gap`` the rank first spends that long on its
    CPU — after every iteration, the last one too, so ``engine.now``
    covers the final compute — and ``lead`` puts one gap before iteration
    0 as well. The world is driven until the last iteration finishes or
    ``deadline`` passes, then drained.

    Returns the handles and the per-iteration completion intervals (the
    first includes pipeline fill; ``inf`` for an iteration that did not
    finish by the deadline).
    """
    preps: list[Optional[PreparedCollective]] = [None] * iterations
    handles: list = [None] * iterations

    def enter(local: int, i: int) -> None:
        if i == iterations:
            return  # the compute gap after the last iteration
        prep = preps[i]
        if prep is None:
            prep = preps[i] = prepare(i)
        # Ranks outside ``chain_ranks`` (hierarchical non-leaders) are
        # started from inside the operation; they only join its handle.
        if prep.chain_ranks is None or local in prep.chain_ranks:
            h = prep.launch(ranks=[local])
        else:
            h = prep.launch(ranks=[])
        if handles[i] is None:
            handles[i] = h
            hook(h, i)

    def hook(handle, i: int) -> None:
        def rank_done(local: int, _time: float) -> None:
            if gap is None:
                enter(local, i + 1)
            else:
                world.ranks[comm.world_rank(local)].cpu.execute(
                    gap, enter, local, i + 1
                )

        handle.on_rank_done.append(rank_done)
        for local, t in list(handle.done_time.items()):
            rank_done(local, t)

    start = world.engine.now
    if lead:
        assert gap is not None, "a lead compute needs a gap"
        for local in range(comm.size):
            world.ranks[comm.world_rank(local)].cpu.execute(gap, enter, local, 0)
    else:
        preps[0] = prepare(0)
        handles[0] = preps[0].launch()
        hook(handles[0], 0)

    _drive(world, injectors, lambda: handles[-1] is not None and handles[-1].done,
           deadline)
    times: list[float] = []
    prev = start
    for h in handles:
        e = iteration_end(h)
        times.append(max(e - prev, 0.0))
        if e < float("inf"):
            prev = max(prev, e)
    world.run()
    return handles, times


@_collector_paused
def run_collective(
    spec: MachineSpec,
    nranks: int,
    library: Union[LibraryModel, str],
    operation: str = "bcast",
    nbytes: int = 4 << 20,
    *,
    iterations: int = 3,
    mode: str = "imb",
    noise_percent: float = 0.0,
    noise_ranks: Union[str, Sequence[int]] = "per-node",
    noise_frequency: float = 10.0,
    seed: int = 0,
    gpu: bool = False,
    root: int = 0,
    op: ReduceOp = SUM,
    config: CollectiveConfig = DEFAULT_COLLECTIVE,
    runtime_config: Optional[RuntimeConfig] = None,
    custom_algorithm: Optional[Callable] = None,
    fault_plan: Optional[FaultPlan] = None,
    sanitize: bool = False,
    time_limit: Optional[float] = None,
    observe: Optional[str] = None,
    recover: bool = False,
    quorum: Optional[QuorumPolicy] = None,
) -> RunResult:
    """Measure one (library, operation, size, noise) point.

    ``custom_algorithm`` overrides the library's function — used by the
    Figure 8 sweeps, which iterate over Intel's per-algorithm variants.

    ``quorum`` is the :class:`~repro.relaxed.QuorumPolicy` a ``*_quorum``
    operation completes under (``None``: full participation);
    :func:`~repro.libraries.presets.prepare_operation` rejects it for an
    exact operation, and rejects ``recover`` for a quorum one.

    ``fault_plan`` arms a :class:`~repro.faults.FaultInjector` over the run;
    a plan with losses implies the reliable transport unless
    ``runtime_config`` says otherwise, and a plan with kills bounds the
    measurement at ``time_limit`` (default 10 simulated seconds) so hanging
    schedules report ``inf`` instead of looping forever.

    ``observe`` attaches a span recorder to the world (see :mod:`repro.obs`):
    ``"metrics"`` distills it into ``result.metrics``; ``"trace"``
    additionally ships the full span dump in ``result.obs`` (the Chrome
    exporter's input). Recording is retrospective and never perturbs the
    simulated timeline — an observed run reports the exact times an
    unobserved one does.
    """
    if isinstance(library, str):
        library = library_by_name(library)
    # Every operation/recover/quorum error comes before a world is built.
    prepare = prepare_operation(
        library, operation, recover=recover, policy=quorum
    )
    if custom_algorithm is not None:
        prepare = custom_algorithm
    if mode not in ("imb", "sequential"):
        raise ValueError(f"unknown mode {mode!r}")
    if observe not in (None, "metrics", "trace"):
        raise ValueError(f"unknown observe mode {observe!r}")
    if recover and mode == "imb":
        # Recovery launches every rank up front (the membership protocol
        # owns relaunch), so per-rank iteration chaining has nothing to
        # chain — run iterations back-to-back instead.
        mode = "sequential"
    world, comm, injectors, deadline = _build_world(
        spec, nranks, runtime_config=runtime_config, fault_plan=fault_plan,
        time_limit=time_limit, noise_percent=noise_percent,
        noise_ranks=noise_ranks, noise_frequency=noise_frequency, seed=seed,
        gpu=gpu, sanitize=sanitize, observe=observe is not None,
    )
    result = RunResult(
        library=library.name,
        operation=operation,
        machine=spec.name,
        nranks=nranks,
        nbytes=nbytes,
        noise_percent=noise_percent,
        seed=seed,
    )

    if mode == "sequential":
        handles: list = []
        for _ in range(iterations):
            start = world.engine.now
            prep: PreparedCollective = prepare(comm, root, nbytes, config, op=op)
            handle = prep.launch()
            handles.append(handle)
            _drive(world, injectors, lambda: handle.done, deadline)
            result.times.append(iteration_end(handle) - start)
            if result.times[-1] == float("inf"):
                break  # neither a hang nor the failure behind an abandon ends
        world.run()
    else:
        handles, result.times = _chain(
            world, comm, lambda _i: prepare(comm, root, nbytes, config, op=op),
            iterations, injectors, deadline,
        )
        # Under faults an incomplete run is a *result*: a hung schedule.
        last = handles[-1]
        if fault_plan is None and (last is None or not last.done):  # pragma: no cover
            raise RuntimeError(
                f"{library.name} {operation}: iterations did not complete"
            )
    result.engine_stats = world.engine.stats()
    if fault_plan is not None:
        result.transport = world.transport_stats()
        faults = world.fabric.faults
        if faults is not None:
            result.transport["dropped"] = faults._injector.dropped
            result.transport["duplicated"] = faults._injector.duplicated
            result.transport["severed"] = faults._injector.severed
            result.transport["severed_control"] = (
                faults._injector.severed_control
            )
    live = [h for h in handles if h is not None]
    result.degraded = any(h.report.degraded for h in live)
    result.completed = bool(result.times) and float("inf") not in result.times
    detector = world.failure_detector
    if detector is not None:
        result.false_kills = detector.false_kills
    membership = getattr(world, "membership", None)
    if membership is not None:
        result.failed_ranks = sorted(membership.view.failed)
        result.time_to_repair = membership.time_to_repair()
        result.quorum_parks = membership.quorum_parks
    elif live:
        agreed: set = set()
        for h in live:
            agreed |= h.report.failed_ranks
        result.failed_ranks = sorted(agreed)
    frontier = getattr(world, "staleness_frontier", None)
    if frontier is not None:
        # The run is over: parked stragglers resolve (into accounted
        # discards) so the reports below carry their final fate.
        frontier.flush_pending()
    contributed: set = set()
    for h in live:
        rep = h.report
        if rep.staleness_epoch:
            contributed |= rep.contributed_ranks
            result.staleness_epoch = max(
                result.staleness_epoch, rep.staleness_epoch
            )
            result.late_merges.extend(list(m) for m in rep.late_merges)
    if contributed:
        result.contributed_ranks = sorted(contributed)
    if observe is not None:
        from repro.obs.metrics import compute_metrics

        result.metrics = compute_metrics(world).to_dict()
        if observe == "trace":
            result.obs = world.obs.to_dict()
    if world.obs is not None and world.obs.truncated:
        result.trace_truncated = True
        import warnings

        warnings.warn(
            f"{library.name} {operation}: span buffer cap hit, tail "
            "spans dropped (raise max_spans for a full record)",
            RuntimeWarning,
            stacklevel=2,
        )
    return result
