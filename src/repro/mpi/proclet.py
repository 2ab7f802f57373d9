"""Proclets: blocking-style MPI programs as generator coroutines.

A proclet is a Python generator running "on" a rank: it yields awaitables and
is resumed — on that rank's CPU, so noise delays the resumption — when they
complete. This is the layer the paper's baseline implementations live on:

* Algorithm 1 (blocking): ``yield isend(...)`` / ``yield irecv(...)`` after
  every post — each P2P fully completes before the next starts.
* Algorithm 2 (non-blocking + Waitall): post a batch, then
  ``yield WaitAll(reqs)`` — the synchronization whose noise behaviour
  Section 2.1.2 analyzes.

ADAPT itself (Algorithm 3) does not use proclets: it attaches callbacks
directly to requests and never waits.

Awaitables a proclet may yield:

* a :class:`~repro.mpi.request.Request` — wait for one operation,
* :class:`WaitAll` — wait for every request in a batch,
* :class:`WaitAny` — resumed with ``(index, request)`` of the first
  completion,
* :class:`Compute` — charge local computation time to the CPU,
* :class:`Sleep` — idle without occupying the CPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional, Sequence

from repro.mpi.request import Request


@dataclass(frozen=True)
class WaitAll:
    """Wait for all requests in the batch (MPI_Waitall)."""

    requests: tuple[Request, ...]

    def __init__(self, requests: Sequence[Request]):
        object.__setattr__(self, "requests", tuple(requests))


@dataclass(frozen=True)
class WaitAny:
    """Wait for the first completion; resumes with ``(index, request)``."""

    requests: tuple[Request, ...]

    def __init__(self, requests: Sequence[Request]):
        object.__setattr__(self, "requests", tuple(requests))


@dataclass(frozen=True)
class Compute:
    """Charge ``seconds`` of computation to the rank's CPU."""

    seconds: float


@dataclass(frozen=True)
class Sleep:
    """Advance time without occupying the CPU."""

    seconds: float


class ProcletDriver:
    """Runs one generator to completion on a rank's CPU.

    When a dependency recorder observes the world, the driver reports every
    wait it blocks on and resumes from, so the analyzer can attribute the
    operations posted after each resumption to the requests that gated them
    (the blocking-order and Waitall-barrier edges of paper Section 2.1) and
    detect proclets still blocked at quiescence (deadlock linting).
    """

    def __init__(
        self,
        runtime,
        gen: Generator,
        on_done: Optional[Callable[["ProcletDriver"], None]] = None,
    ):
        self.runtime = runtime
        # The hooks (``observer``, ``obs``) are read off the world at event
        # time: a recorder may attach after the driver is built.
        self._world = runtime.world
        self.gen = gen
        self.on_done = on_done
        self.done = False
        self.finish_time: Optional[float] = None
        self.result: Any = None
        # (via, gate items) of the await the next resumption returns from.
        self._gate: Optional[tuple[str, tuple]] = None
        # Begin time of the wait/sleep the proclet is currently blocked in
        # (observability: the resume closes the span). None when no span
        # recorder is attached or the proclet is not blocked.
        self._wait_begin: Optional[float] = None
        # Requests of the current WaitAll still to complete.
        self._remaining = 0
        # Kick off on the CPU (a noisy rank starts its program late).
        runtime.cpu.when_available(self._step, None)

    @staticmethod
    def _internal(fn):
        # Resumption callbacks are driver plumbing, not user callbacks: the
        # recorder must not wrap them in a callback context of their own.
        fn._depgraph_internal = True
        return fn

    def _dispatch(self, awaited: Any) -> None:
        world = self._world
        if world.obs is not None and not isinstance(awaited, Compute):
            self._wait_begin = self.runtime.engine.now
        obs = world.observer
        if isinstance(awaited, Request):
            self._gate = ("wait", (awaited,))
            if obs is not None:
                obs.proclet_waiting(self, self.runtime.rank, "wait", (awaited,))
            awaited.add_callback(self._step)
        elif isinstance(awaited, WaitAll):
            self._wait_all(awaited.requests)
        elif isinstance(awaited, WaitAny):
            self._wait_any(awaited.requests)
        elif isinstance(awaited, Compute):
            if obs is not None:
                nid = obs.compute_posted(self.runtime.rank)
                self._gate = ("compute", (nid,))
            else:
                self._gate = None
            self.runtime.cpu.execute(awaited.seconds, self._step, None)
        elif isinstance(awaited, Sleep):
            self._gate = ("sleep", ())
            self.runtime.engine.post_after(awaited.seconds, self._step, None)
        elif isinstance(awaited, (list, tuple)):
            self._wait_all(tuple(awaited))
        else:
            raise TypeError(f"proclet yielded unsupported awaitable {awaited!r}")

    def _wait_all(self, requests: tuple[Request, ...]) -> None:
        self._gate = ("waitall", requests)
        pending = [r for r in requests if not r.completed]
        if not pending:
            # Still resume via the CPU: Waitall is a call the process makes.
            self.runtime.cpu.when_available(self._step, None)
            return
        obs = self._world.observer
        if obs is not None:
            obs.proclet_waiting(self, self.runtime.rank, "waitall", requests)
        # One countdown per driver is enough: a proclet awaits one thing at
        # a time, and every callback of this WaitAll fires before it resumes.
        self._remaining = len(pending)
        one_done = self._one_done
        for r in pending:
            r.add_callback(one_done)

    def _one_done(self, _req: Request) -> None:
        self._remaining -= 1
        if not self._remaining:
            self._step(None)

    _one_done._depgraph_internal = True  # type: ignore[attr-defined]

    def _wait_any(self, requests: tuple[Request, ...]) -> None:
        self._gate = ("waitany", requests)
        for i, r in enumerate(requests):
            if r.completed:
                self.runtime.cpu.when_available(self._step, (i, r))
                return
        obs = self._world.observer
        if obs is not None:
            obs.proclet_waiting(self, self.runtime.rank, "waitany", requests)
        fired = False

        # Per-wait closures: the losing callbacks fire after the proclet has
        # moved on, so they cannot share state with the driver.
        def first_done(i: int, req: Request) -> None:
            nonlocal fired
            if fired:
                return
            fired = True
            self._step((i, req))

        for i, r in enumerate(requests):
            r.add_callback(self._internal(lambda req, i=i: first_done(i, req)))

    def _step(self, value: Any) -> None:
        """Resume the generator with ``value`` (runs in CPU/event context)."""
        world = self._world
        if self._wait_begin is not None and self._gate is not None:
            span_rec = world.obs
            if span_rec is not None:
                via = self._gate[0]
                span_rec.add(
                    "sleep" if via == "sleep" else "wait", via,
                    ("rank", self.runtime.rank),
                    self._wait_begin, self.runtime.engine.now,
                )
            self._wait_begin = None
        obs = world.observer
        token = None
        if obs is not None:
            obs.proclet_not_waiting(self)
            if self._gate is not None:
                via, items = self._gate
                if via == "waitany" and isinstance(value, tuple):
                    items = (value[1],)
                token = obs.proclet_resume(self.runtime.rank, via, items)
        self._gate = None
        try:
            awaited = self.gen.send(value)
        except StopIteration as stop:
            if token is not None:
                obs.proclet_pop(token)
            self._finish(stop.value)
            return
        # Dispatch inside the resumption context: a yielded Compute is gated
        # by the same requests that gated this resumption.
        try:
            self._dispatch(awaited)
        finally:
            if token is not None:
                obs.proclet_pop(token)

    # A blocking wait registers the bound ``_step`` itself; a bound method
    # reads attributes off its function, so the mark covers every driver.
    _step._depgraph_internal = True  # type: ignore[attr-defined]

    def _finish(self, result: Any) -> None:
        self.done = True
        self.result = result
        self.finish_time = self.runtime.engine.now
        if self.on_done is not None:
            self.on_done(self)
