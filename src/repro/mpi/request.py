"""Requests: handles to in-flight non-blocking operations.

A :class:`Request` completes exactly once; completion callbacks added with
:meth:`Request.add_callback` run on the owning rank's CPU — this is the hook
ADAPT's ``set_Isend_cb`` / ``set_Irecv_cb`` (paper Figure 4) attach to, and
also what the proclet layer's ``Wait``/``Waitall`` suspend on.
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class Request:
    """Handle to one non-blocking send or recv."""

    __slots__ = (
        "kind",
        "rank",
        "peer",
        "tag",
        "nbytes",
        "completed",
        "cancelled",
        "completion_time",
        "post_time",
        "data",
        "_callbacks",
        "_runtime",
        "_world",
    )

    def __init__(self, runtime, kind: str, rank: int, peer: int, tag: int, nbytes: int):
        self.kind = kind        # "send" | "recv"
        self.rank = rank        # owning rank
        self.peer = peer        # other side
        self.tag = tag
        self.nbytes = nbytes
        self.completed = False
        self.cancelled = False
        self.completion_time: Optional[float] = None
        self.post_time: float = runtime.engine.now if runtime is not None else 0.0
        self.data: Any = None   # payload, set on recv completion in data mode
        self._callbacks: list[Callable[["Request"], None]] = []
        self._runtime = runtime
        # Resolved once; its hooks are still read at event time, since a
        # recorder may attach to the world after the request is posted.
        self._world = getattr(runtime, "world", None)

    def add_callback(self, fn: Callable[["Request"], None]) -> None:
        """Run ``fn(request)`` on the owning rank's CPU at completion.

        If the request already completed, the callback is scheduled
        immediately (still via the CPU, so noise delays it).
        """
        if self.completed:
            self._dispatch_callback(fn)
        else:
            self._callbacks.append(fn)

    def _dispatch_callback(self, fn: Callable[["Request"], None]) -> None:
        """Schedule one completion callback on the owning rank's CPU.

        When a dependency recorder observes the world, user callbacks run
        inside a recorded context so operations they post are attributed to
        this request; proclet-internal resumption callbacks are marked
        ``_depgraph_internal`` and stay on the plain path (the proclet
        driver records its own wait context).
        """
        world = self._world
        observer = world.observer if world is not None else None
        if observer is not None and not getattr(fn, "_depgraph_internal", False):
            self._runtime.cpu.execute(0.0, observer.run_callback, self, fn)
        else:
            self._runtime.cpu.execute(0.0, fn, self)

    def _complete(self, now: float, data: Any = None) -> None:
        """Mark complete and dispatch callbacks (runtime-internal)."""
        if self.completed:
            raise RuntimeError(f"request completed twice: {self!r}")
        self.completed = True
        self.completion_time = now
        if data is not None:
            self.data = data
        world = self._world
        if world is not None:
            if world.observer is not None:
                world.observer.op_completed(self)
            if world.sanitizer is not None:
                world.sanitizer.on_complete(self)
            if world.obs is not None:
                arrow = "->" if self.kind == "send" else "<-"
                world.obs.add(
                    self.kind, f"{self.kind} {arrow} {self.peer}",
                    ("rank", self.rank), self.post_time, now,
                    {"tag": self.tag, "nbytes": self.nbytes, "peer": self.peer},
                )
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self._dispatch_callback(fn)

    def cancel(self) -> None:
        """Abandon an in-flight operation (fault tolerance, MPI_Cancel-like).

        The request resolves without having happened: completion callbacks
        are dropped — they must not mistake a cancellation for a delivery —
        and the sanitizer is told the request is accounted for. Idempotent;
        a no-op on an already-completed request.
        """
        if self.completed:
            return
        self.completed = True
        self.cancelled = True
        self._callbacks = []
        world = self._world
        if world is not None:
            self.completion_time = world.engine.now
            observer = world.observer
            if observer is not None:
                # The recorder tracks requests by identity; without this
                # notification a cancelled request's node stays forever
                # "incomplete" and the linter misreads it as leaked.
                observer.op_cancelled(self)
            if world.sanitizer is not None:
                world.sanitizer.on_cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("done" if self.completed else "pending")
        return (
            f"<Request {self.kind} rank={self.rank} peer={self.peer} "
            f"tag={self.tag} {self.nbytes}B {state}>"
        )
