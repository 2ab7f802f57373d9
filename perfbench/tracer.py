"""Layer-attributed host-time tracer, installed from outside the simulator.

Nothing under ``src/`` knows about this module. :meth:`Tracer.installed`
patches public entry points of the simulator's classes for the duration of
a ``with`` block and restores them on exit:

* the engine's scheduling calls (``post_at`` and ``call_at``, which
  ``post_after``/``call_after`` delegate to, and ``post_batch``),
  ``Cpu.execute``'s callback
  argument and ``Request.add_callback`` wrap each callback so its dispatch
  is timed and charged to the layer of the module that defined it;
* entry points (``isend``/``irecv``, ``Fabric.start_transfer``/
  ``start_control``, ``maxmin_rates``, ``PreparedCollective.launch``, the
  injectors, world construction, ``prepare_operation``, the sweep worker and
  its wire format) get a span of their own;
* ``Engine.run`` gets a span whose self time is the engine's dispatch loop:
  the run minus every callback it fired.

Spans nest on one stack of child-time accumulators, so every boundary has
an exact self time (its duration minus the spans it contains). Counts and
times accumulate per boundary; callers take :meth:`Tracer.snapshot`
differences around each op.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Iterator

_clock = time.perf_counter_ns

# Module prefix -> layer, longest prefix first.
_MODULE_LAYERS = (
    ("repro.sim.engine", "engine"),
    ("repro.sim.cpu", "cpu"),
    ("repro.mpi.proclet", "proclet"),
    ("repro.mpi", "mpi"),
    ("repro.network", "net"),
    ("repro.collectives", "coll"),
    ("repro.libraries", "coll"),
    ("repro.faults", "faults"),
    ("repro.noise", "noise"),
    ("repro.harness", "harness"),
    ("repro.parallel", "parallel"),
)


def layer_of_module(module: str | None) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module is not None and module.startswith(prefix):
            return layer
    return "other"


class Boundary:
    """Aggregated spans of one boundary: count, inclusive and self time.

    ``incl_ns`` counts only outermost spans, so a boundary re-entered
    through itself is not double-counted.
    """

    __slots__ = ("name", "layer", "count", "incl_ns", "self_ns", "depth")

    def __init__(self, name: str, layer: str):
        self.name = name
        self.layer = layer
        self.count = 0
        self.incl_ns = 0
        self.self_ns = 0
        self.depth = 0


class _Timed:
    """A callback wrapped so that its dispatch is one span."""

    __slots__ = ("fn", "boundary", "tracer")

    def __init__(self, fn: Callable, boundary: Boundary, tracer: "Tracer"):
        self.fn = fn
        self.boundary = boundary
        self.tracer = tracer

    def __call__(self, *args: Any) -> Any:
        return self.tracer.call(self.boundary, self.fn, args)


class Tracer:
    def __init__(self) -> None:
        self.boundaries: dict[str, Boundary] = {}
        self._stack = [0]  # child-time accumulators; [0] is the root
        self._module_boundary: dict[str | None, Boundary] = {}
        self.counts: dict[str, int] = {}
        self.solve_flows = 0
        self.worlds: list = []

    # -- spans ---------------------------------------------------------------

    def boundary(self, name: str, layer: str) -> Boundary:
        b = self.boundaries.get(name)
        if b is None:
            b = self.boundaries[name] = Boundary(name, layer)
        return b

    def call(self, b: Boundary, fn: Callable, args: tuple, kwargs: dict | None = None) -> Any:
        stack = self._stack
        stack.append(0)
        b.depth += 1
        t0 = _clock()
        try:
            if kwargs:
                return fn(*args, **kwargs)
            return fn(*args)
        finally:
            dt = _clock() - t0
            child = stack.pop()
            stack[-1] += dt
            b.count += 1
            b.self_ns += dt - child
            b.depth -= 1
            if not b.depth:
                b.incl_ns += dt

    def timed(self, fn: Callable) -> Callable:
        """``fn`` wrapped as a callback span charged to its module's layer."""
        if fn is None or type(fn) is _Timed:
            return fn
        module = getattr(fn, "__module__", None)
        if module is None:
            module = getattr(getattr(fn, "func", None), "__module__", None)
        b = self._module_boundary.get(module)
        if b is None:
            layer = layer_of_module(module)
            b = self._module_boundary[module] = self.boundary(f"callback.{layer}", layer)
        return _Timed(fn, b, self)

    def root_ns(self) -> int:
        """Host time of every outermost span so far."""
        return self._stack[0]

    def bump(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def snapshot(self) -> dict[str, tuple[int, int, int]]:
        out = {n: (b.count, b.incl_ns, b.self_ns) for n, b in self.boundaries.items()}
        for n, c in self.counts.items():
            out[f"count.{n}"] = (c, 0, 0)
        out["count.solve_flows"] = (self.solve_flows, 0, 0)
        return out

    # -- installation ----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        from repro.faults.injector import FabricFaults, FaultInjector
        from repro.harness import runner
        from repro.libraries.presets import PreparedCollective
        from repro.mpi.request import Request
        from repro.mpi.runtime import MpiWorld, RankRuntime
        from repro.network import fairshare
        from repro.network.fabric import Fabric
        from repro.noise.injector import NoiseInjector
        from repro.parallel import executor
        from repro.sim.cpu import Cpu
        from repro.sim.engine import Engine, EventHandle

        saved: list[tuple[Any, str, Any]] = []

        def patch(owner: Any, name: str, make: Callable[[Any], Any]) -> None:
            orig = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            saved.append((owner, name, orig))
            setattr(owner, name, make(orig))

        def span(owner: Any, name: str, boundary: str, layer: str,
                 count: str | None = None) -> None:
            b = self.boundary(boundary, layer)

            def make(orig: Callable) -> Callable:
                def wrapper(*args: Any, **kwargs: Any) -> Any:
                    if count is not None:
                        self.bump(count)
                    return self.call(b, orig, args, kwargs)

                return wrapper

            patch(owner, name, make)

        timed = self.timed

        # Engine scheduling: wrap the callback and count the schedule.
        # post_after/call_after delegate to post_at/call_at, so patching the
        # latter two covers all four calls exactly once.
        def sched(kind: str) -> Callable:
            def make(orig: Callable) -> Callable:
                def wrapper(engine: Any, when: float, fn: Callable, *args: Any) -> Any:
                    self.bump(kind)
                    return orig(engine, when, timed(fn), *args)

                return wrapper

            return make

        patch(Engine, "post_at", sched("posts"))
        patch(Engine, "call_at", sched("handles"))

        def make_batch(orig: Callable) -> Callable:
            def wrapper(engine: Any, when: float, fns: Any) -> None:
                wrapped = [timed(f) for f in fns]
                self.bump("posts", len(wrapped))
                orig(engine, when, wrapped)

            return wrapper

        patch(Engine, "post_batch", make_batch)

        def make_cancel(orig: Callable) -> Callable:
            def wrapper(handle: Any) -> None:
                if handle.fn is not None:
                    self.bump("cancelled")
                orig(handle)

            return wrapper

        patch(EventHandle, "cancel", make_cancel)
        span(Engine, "run", "engine.run", "engine")

        cpu_b = self.boundary("cpu.execute", "cpu")

        def make_execute(orig: Callable) -> Callable:
            def wrapper(cpu: Any, duration: float, fn: Any = None, *args: Any) -> float:
                self.bump("executes")
                return self.call(cpu_b, orig, (cpu, duration, timed(fn)) + args)

            return wrapper

        patch(Cpu, "execute", make_execute)

        def make_add_callback(orig: Callable) -> Callable:
            def wrapper(req: Any, fn: Callable) -> None:
                orig(req, timed(fn))

            return wrapper

        patch(Request, "add_callback", make_add_callback)

        isend_b = self.boundary("mpi.isend", "mpi")

        def make_isend(orig: Callable) -> Callable:
            def wrapper(rt: Any, *args: Any, **kw: Any) -> Any:
                self.bump("sends")
                nbytes = args[2] if len(args) > 2 else kw["nbytes"]
                if nbytes > rt.world.config.eager_threshold:
                    self.bump("rndv_sends")
                return self.call(isend_b, orig, (rt,) + args, kw)

            return wrapper

        patch(RankRuntime, "isend", make_isend)
        span(RankRuntime, "irecv", "mpi.irecv", "mpi")
        span(Fabric, "start_transfer", "net.start_transfer", "net")
        span(Fabric, "start_control", "net.start_control", "net", count="control_msgs")

        solve_b = self.boundary("net.maxmin_rates", "net.solve")
        heap_min, vec_min = fairshare._HEAP_THRESHOLD, fairshare._VEC_THRESHOLD

        def make_solve(orig: Callable) -> Callable:
            def wrapper(flows: Any, links: Any, *args: Any) -> Any:
                n = len(flows)
                self.solve_flows += n
                if n < heap_min:
                    self.bump("solves.scan")
                elif fairshare._np is not None and n >= vec_min:
                    self.bump("solves.vec")
                else:
                    self.bump("solves.heap")
                return self.call(solve_b, orig, (flows, links) + args)

            return wrapper

        patch(fairshare, "maxmin_rates", make_solve)
        span(PreparedCollective, "launch", "coll.launch", "coll", count="launches")
        span(FaultInjector, "arm", "faults.arm", "faults", count="fault_arms")
        span(FabricFaults, "intercept", "faults.intercept", "faults", count="intercepts")
        span(NoiseInjector, "arm", "noise.arm", "noise", count="noise_arms")

        world_b = self.boundary("setup.world", "setup.world")

        def make_world_init(orig: Callable) -> Callable:
            def wrapper(world: Any, *args: Any, **kw: Any) -> None:
                self.call(world_b, orig, (world,) + args, kw)
                self.worlds.append(world)

            return wrapper

        patch(MpiWorld, "__init__", make_world_init)

        prep_b = self.boundary("setup.prepare", "setup.prepare")

        def make_prepare_operation(orig: Callable) -> Callable:
            def wrapper(*args: Any, **kw: Any) -> Callable:
                prepare = self.call(prep_b, orig, args, kw)

                def timed_prepare(*pargs: Any, **pkw: Any) -> Any:
                    return self.call(prep_b, prepare, pargs, pkw)

                return timed_prepare

            return wrapper

        patch(runner, "prepare_operation", make_prepare_operation)
        span(runner, "run_collective", "harness.run_collective", "harness")
        # The sweep executor binds its worker functions by name at import.
        span(executor, "execute_job", "parallel.execute_job", "parallel", count="jobs")
        span(executor, "result_from_dict", "parallel.result_from_dict", "parallel.wire")
        span(runner.RunResult, "to_dict", "parallel.to_dict", "parallel.wire")
        try:
            yield self
        finally:
            for owner, name, orig in reversed(saved):
                setattr(owner, name, orig)
