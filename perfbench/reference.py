"""The reference loop: a fixed piece of pure-Python work that gauges host speed.

The host's speed drifts by 20-50% over seconds to minutes (see README.md),
and a simulator op slows down with it. ``run.py`` runs this loop between
ops (and between cold set-ups) and scales each op's host seconds by
``NOMINAL_S`` over the loop's time around it, so the end-to-end times read
as seconds on a host that runs the loop in ``NOMINAL_S``.

The loop is a small discrete-event run: a heap of timestamped events whose
callbacks update a dict, the same kind of work as the simulator's engine.
It uses only the standard library, so a change to the simulator does not
change it. Its inputs are fixed: it does the same work every time.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

NOMINAL_S = 0.07
EVENTS = 25_000
QUEUED = 2_000


class _Event:
    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg: int):
        self.fn = fn
        self.arg = arg


def _loop() -> dict[int, int]:
    rng = random.Random(1)
    state: dict[int, int] = {}

    def callback(arg: int) -> None:
        key = arg % 4096
        state[key] = state.get(key, 0) + 1

    queue = [(rng.random(), i, _Event(callback, i)) for i in range(QUEUED)]
    heapq.heapify(queue)
    for k in range(EVENTS):
        t, _, event = heapq.heappop(queue)
        event.fn(event.arg)
        heapq.heappush(queue, (t + rng.random(), QUEUED + k, _Event(callback, event.arg * 31 + k)))
    return state


def seconds() -> float:
    """Host seconds of one run of the loop.

    The cyclic collector is off while it runs: a collection started by the
    loop's allocations would scan the simulator's heap and charge the loop
    for it. The loop frees what it allocates, so it leaves no collection
    owed to the next op.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(host_s: float, before: float, after: float) -> float:
    """``host_s`` at nominal speed, from the loop's runs just before and after."""
    return host_s * NOMINAL_S / ((before + after) / 2)
