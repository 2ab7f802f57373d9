"""The benchmark's workloads: cells generated from the workload seed.

An *op* is one simulated collective measurement: one ``run_collective``
call, or one ``SimJob`` of a sweep. A *pass* runs every op of a workload's
fixed cell list once, in order; the benchmark repeats passes until its
time budget is spent.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.faults.plan import FaultPlan, LossSpec
from repro.harness import runner
from repro.harness.experiments import fig09_msgsize
from repro.machine import for_ranks
from repro.parallel import run_jobs

KiB = 1024
MiB = 1024 * KiB


def digest(result: Any) -> str:
    """sha256 over the simulated outcome: times, completed, degraded.

    Engine event counts and host-side counters are left out on purpose, so
    a refactor that fuses events but keeps every timestamp still matches.
    """
    material = repr(([float(t) for t in result.times], result.completed, result.degraded))
    return hashlib.sha256(material.encode()).hexdigest()


@dataclass
class Cell:
    """One collective op: a label and the ``run_collective`` arguments."""

    label: str
    kwargs: dict
    fresh_deliveries: int | None = None  # reliable runs: messages delivered once


def _collective(nranks: int, operation: str, nbytes: int, **kw: Any) -> dict:
    return dict(
        spec=for_ranks("cori", nranks), nranks=nranks, library="OMPI-adapt",
        operation=operation, nbytes=nbytes, **kw,
    )


class Workload:
    """A workload built from a seed: ``warmup()`` then repeated ``run_pass()``."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def labels(self) -> list[str]:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run_pass(self, after_op: Callable[[], None] | None = None) -> list[tuple[float, Any]]:
        """Run every op once; return ``(host seconds, result)`` per op.

        ``after_op`` runs after each op, outside its timing.
        """
        raise NotImplementedError

    def check(self, label: str, result: Any) -> str | None:
        """Seed-independent output check; returns a failure reason or None."""
        if not result.completed or result.degraded:
            return "did not complete cleanly"
        if not result.times or not all(math.isfinite(t) and t > 0 for t in result.times):
            return f"non-finite or non-positive simulated times {result.times}"
        return None


class CollectiveWorkload(Workload):
    """Cells run one by one through ``runner.run_collective``."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cells = self.make_cells(random.Random(seed))
        self.warmup_cell = self.make_warmup()
        self._fresh = {c.label: c.fresh_deliveries for c in self.cells}

    def make_cells(self, rng: random.Random) -> list[Cell]:
        raise NotImplementedError

    def make_warmup(self) -> Cell:
        raise NotImplementedError

    def labels(self) -> list[str]:
        return [c.label for c in self.cells]

    def warmup(self) -> None:
        runner.run_collective(**self.warmup_cell.kwargs)

    def run_pass(self, after_op: Callable[[], None] | None = None) -> list[tuple[float, Any]]:
        out = []
        clock = time.perf_counter
        for cell in self.cells:
            t0 = clock()
            result = runner.run_collective(**cell.kwargs)
            out.append((clock() - t0, result))
            if after_op is not None:
                after_op()
        return out

    def check(self, label: str, result: Any) -> str | None:
        reason = super().check(label, result)
        want = self._fresh.get(label)
        if reason is None and want is not None:
            got = result.transport.get("fresh_deliveries")
            if got != want:
                reason = f"fresh deliveries {got} != {want}"
        return reason


class BcastLarge(CollectiveWorkload):
    name = "bcast-large"

    def make_cells(self, rng: random.Random) -> list[Cell]:
        # Fault- and noise-free: the cell has no random input to draw.
        return [Cell("bcast-4MiB-256r", _collective(256, "bcast", 4 * MiB, iterations=1))]

    def make_warmup(self) -> Cell:
        return Cell("warmup", _collective(16, "bcast", 4 * MiB, iterations=1))


class AllreduceNoisyLossy(CollectiveWorkload):
    name = "allreduce-noisy-lossy"
    CELLS = 4
    RANKS = 256
    ITERATIONS = 5

    def _cell(self, label: str, nranks: int, iterations: int,
              noise_seed: int, loss_seed: int) -> Cell:
        plan = FaultPlan(losses=(LossSpec(drop=0.01),), seed=loss_seed)
        kwargs = _collective(
            nranks, "allreduce", 8 * KiB, iterations=iterations,
            noise_percent=5.0, noise_frequency=10.0, seed=noise_seed, fault_plan=plan,
        )
        # Reduce up and bcast down a tree of P-1 edges, one segment each.
        return Cell(label, kwargs, fresh_deliveries=iterations * 2 * (nranks - 1))

    def make_cells(self, rng: random.Random) -> list[Cell]:
        cells = []
        for _ in range(self.CELLS):
            noise_seed, loss_seed = rng.randrange(1 << 31), rng.randrange(1 << 31)
            label = (f"allreduce-8KiB-{self.RANKS}r-{self.ITERATIONS}it"
                     f"-noise{noise_seed}-loss{loss_seed}")
            cells.append(self._cell(label, self.RANKS, self.ITERATIONS, noise_seed, loss_seed))
        return cells

    def make_warmup(self) -> Cell:
        return self._cell("warmup", 32, 2, self.seed, self.seed)


class AlltoallContended(CollectiveWorkload):
    name = "alltoall-contended"

    def make_cells(self, rng: random.Random) -> list[Cell]:
        # Fault- and noise-free: the cell has no random input to draw.
        return [Cell("alltoall-64KiB-32r", _collective(32, "alltoall", 64 * KiB, iterations=1))]

    def make_warmup(self) -> Cell:
        return Cell("warmup", _collective(8, "alltoall", 64 * KiB, iterations=1))


class Fig09Sweep(Workload):
    name = "fig09-sweep"

    def __init__(self, seed: int):
        super().__init__(seed)
        # The grid is the paper's figure: noise-free, so nothing to draw.
        self.jobs = fig09_msgsize.jobs("cori", "small", "bcast")

    def labels(self) -> list[str]:
        return [f"{j.library}-{j.nbytes}B" for j in self.jobs]

    def warmup(self) -> None:
        run_jobs(self.jobs[:1], n_jobs=1, cache=None)

    def run_pass(self, after_op: Callable[[], None] | None = None) -> list[tuple[float, Any]]:
        clock = time.perf_counter
        seconds: list[float] = []
        start = clock()

        def progress(done: int, total: int) -> None:
            nonlocal start
            seconds.append(clock() - start)
            if after_op is not None:
                after_op()
            start = clock()

        # Decoding the wire results after the last op belongs to no op.
        results = run_jobs(self.jobs, n_jobs=1, cache=None, progress=progress)
        return list(zip(seconds, results))


class Checker:
    """Per-op output check: clean completion, recorded digest, determinism.

    ``complete`` is set at the default seed: there every cell must have a
    recorded digest, so a renamed or added cell fails instead of passing
    unchecked.
    """

    def __init__(self, workload: Workload, recorded: dict[str, str], complete: bool):
        self.workload = workload
        self.recorded = recorded
        self.complete = complete
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []  # failed ops, one entry per op run
        self.problems: list[str] = []  # run-level check failures, not ops

    def __call__(self, label: str, result: Any) -> str:
        """Check one op's result; return its digest."""
        d = digest(result)
        self.attempted += 1
        reason = self.workload.check(label, result)
        want = self.recorded.get(label)
        if reason is None and want is None and self.complete:
            reason = "no digest recorded for this cell at the default seed"
        if reason is None and want is not None and want != d:
            reason = f"digest {d[:16]} != recorded {want[:16]}"
        if reason is None and self.seen.setdefault(label, d) != d:
            reason = f"digest {d[:16]} differs from an earlier run of the same cell"
        if reason is not None:
            self.failures.append(f"{label}: {reason}")
        return d

    @property
    def correct(self) -> bool:
        return not self.failures and not self.problems


def stop_before_overrun(elapsed: float, rounds: list[float], budget: float) -> bool:
    """True when one more round of median length would overrun the budget."""
    return elapsed + statistics.median(rounds) > budget


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    w.name: w for w in (BcastLarge, AllreduceNoisyLossy, AlltoallContended, Fig09Sweep)
}
