"""Discrete-event engine with epoch-based batch draining.

The schedule is a two-level structure (DESIGN.md §23): a binary heap of
*distinct timestamps* plus a bucket (list) of entries per timestamp. All
events sharing an instant — an *epoch* — drain in one loop over their
bucket, so the per-event cost at a crowded timestamp is a list append on
the way in and one dispatch on the way out, with no heap traffic. Large
collective simulations are exactly that regime: the deterministic Hockney
model lands whole waves of completions on bit-identical timestamps.

All simulated time is in **seconds** (float). Determinism: events scheduled
for the same instant fire in scheduling order (buckets are append-only and
drained front to back), so a fixed seed yields an identical timeline on
every run — the exact tie-break rule of the earlier ``(time, seq)`` heap.

Three entry kinds share a bucket, distinguished by ``type``:

* ``list``  — ``[fn, args]``, a cancellable event: an
  :class:`EventHandle`'s (``cancel`` blanks ``fn`` in place), or one a
  client keeps itself (:meth:`Engine.post_entry`, or spliced at a wake)
  and withdraws with :meth:`Engine.discard`. An *owned* entry,
  ``[fn, args, owner]``, is one its client never keeps: it withdraws all
  of them at once with :meth:`Engine.discard_owned` (a CPU's completions
  at a fail-stop);
* ``tuple`` — ``(fn, args)``, a fire-and-forget post with arguments;
* anything else is a bare zero-argument callable (the cheapest kind —
  :meth:`Engine.post_batch` extends a bucket with thousands of them in one
  C-level call).

Cancellation is lazy; a compaction pass drops buckets whose entries are all
cancelled once cancelled entries outnumber live ones.

Deferred entries (DESIGN.md §23, "Flow completions as data"): a client that
reschedules an event many times before it fires keeps its due time as data
instead. Each reschedule takes a position token (:meth:`Engine.mark`, or
:meth:`Engine.marks` for many) — the bucket at the due time and its length
at that moment — and a wake hook
(:meth:`Engine.wake_at`) hands the entries back when the epoch starts. The
engine splices them into the bucket at their recorded positions before its
first entry fires, so they fire exactly where an eager ``call_at`` at the
last reschedule would have put them. For the recorded positions to stay
valid, buckets only ever grow: compaction drops fully dead buckets but never
shrinks a partly live one. A due time the client gives when no other
client work can come between it and the post (the fair-share network's
reschedule with no settle pending) needs no token: the client posts the
entry at once with :meth:`Engine.post_entry`, which *is* that eager
``call_at``, and withdraws it with :meth:`Engine.discard` if it moves.

A client that takes its tokens late, after callbacks that may have posted
to the due times, opens the *post journal* (:meth:`Engine.journal`) when
it defers the tokens. While the journal is open, every post records the
token :meth:`Engine.mark` would have given its time just before it, and
``marks(times, since=position)`` returns the tokens as they stood when
the journal held ``position`` entries.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Any, Callable, Iterable, Optional, Sequence

#: Compaction trigger: at least this many cancelled entries *and* more
#: cancelled than live. Small schedules never pay the rebuild.
_COMPACT_MIN = 512

_NEVER = float("inf")

#: The token :meth:`Engine.mark` gives a time with no bucket yet.
_UNMARKED = (None, 0)


class SimulationError(RuntimeError):
    """Raised for invalid engine usage (e.g. scheduling in the past)."""


class EventHandle:
    """Handle to a cancellable scheduled event; supports O(1) cancellation.

    Cancellation is lazy: the bucket entry stays in place (blanked) and is
    discarded when its epoch drains or a compaction pass rewrites the
    bucket. ``fn`` is dropped on cancel so captured state can be collected.
    """

    __slots__ = ("cancelled", "_entry", "_engine")

    def __init__(self, engine: "Engine", entry: list):
        self._engine = engine
        self._entry = entry
        self.cancelled = False

    @property
    def fn(self) -> Optional[Callable[..., Any]]:
        """The pending callback, or None once fired or cancelled."""
        return self._entry[0]

    def cancel(self) -> None:
        """Cancel the event. Idempotent; safe after the event has fired."""
        self.cancelled = True
        self._engine.discard(self._entry)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else (
            "pending" if self._entry[0] is not None else "fired"
        )
        return f"<EventHandle {state}>"


class Engine:
    """Epoch-draining discrete-event scheduler.

    Usage::

        eng = Engine()
        eng.call_at(1e-6, callback, arg)
        eng.run()

    ``call_at``/``call_after`` return a cancellable :class:`EventHandle`;
    ``post_at``/``post_after``/``post_batch`` are the handle-free fast path
    for events that are never cancelled (protocol steps), skipping the
    handle allocation entirely; ``post_entry`` posts a cancellable entry
    the caller keeps instead of a handle, or an owned one that
    ``discard_owned`` withdraws with all its owner's others.
    ``mark``/``wake_at`` defer an entry's materialisation to its epoch (see
    the module docstring). ``now``, the current simulated time in seconds,
    is a plain attribute that :meth:`run` advances; only the engine writes
    it.
    """

    __slots__ = (
        "_times",
        "_buckets",
        "now",
        "_running",
        "_events_processed",
        "_live",
        "_cancelled",
        "_hook",
        "_hook_t",
        "_journal",
        "_draining",
    )

    def __init__(self) -> None:
        # Heap of bare floats (distinct scheduled timestamps; float
        # comparison runs in C) + dict time -> bucket list of entries.
        self._times: list[float] = []
        self._buckets: dict[float, list] = {}
        self.now = 0.0
        self._running = False
        self._events_processed = 0
        self._live = 0        # scheduled, not yet fired or cancelled
        self._cancelled = 0   # cancelled entries still parked in buckets
        self._hook: Optional[Callable] = None  # the deferred-entry client
        self._hook_t = _NEVER  # its pending wake; tested once per epoch
        # The post journal while a client defers tokens: per post, its
        # time and the bucket there and its length just before the post.
        self._journal: Optional[list] = None
        self._draining: Optional[list] = None  # the bucket run() is draining

    @property
    def running(self) -> bool:
        """Whether :meth:`run` is draining the schedule."""
        return self._running

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._events_processed

    # -- scheduling ---------------------------------------------------------

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        entry = [fn, args]
        self.post_entry(time, entry)
        return EventHandle(self, entry)

    def post_entry(self, time: float, entry: list) -> None:
        """Schedule a cancellable ``[fn, args]`` entry at ``time``, with no
        handle: withdraw it with :meth:`discard`.

        :meth:`call_at` is this plus an :class:`EventHandle`. A client that
        keeps the entry itself (the fair-share network's flow finishes)
        posts it here and skips the handle. So does a client that keeps
        none: it posts ``[fn, args, owner]`` and withdraws every entry of
        ``owner`` at once with :meth:`discard_owned` (a CPU's completions).
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        bucket = self._buckets.get(time)
        if self._journal is not None:
            self._journal.append((time, bucket, 0 if bucket is None else len(bucket)))
        if bucket is None:
            self._buckets[time] = [entry]
            heapq.heappush(self._times, time)
        else:
            bucket.append(entry)
        self._live += 1

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self.now + delay, fn, *args)

    def post_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at ``time`` with no cancellation handle.

        The hot-path variant of :meth:`call_at`: no :class:`EventHandle` is
        allocated, so the entry is a bare callable (no args) or one tuple.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        entry = (fn, args) if args else fn
        bucket = self._buckets.get(time)
        if self._journal is not None:
            self._journal.append((time, bucket, 0 if bucket is None else len(bucket)))
        if bucket is None:
            self._buckets[time] = [entry]
            heapq.heappush(self._times, time)
        else:
            bucket.append(entry)
        self._live += 1

    def post_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Handle-free :meth:`call_after`."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.post_at(self.now + delay, fn, *args)

    def post_batch(self, time: float, fns: Iterable[Callable[[], Any]]) -> None:
        """Schedule many zero-argument callables at one instant.

        One heap touch for the whole batch (the bucket is extended at C
        speed); the callables fire in iteration order within the epoch.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        bucket = self._buckets.get(time)
        if self._journal is not None:
            self._journal.append((time, bucket, 0 if bucket is None else len(bucket)))
        if bucket is None:
            bucket = list(fns)
            self._buckets[time] = bucket
            heapq.heappush(self._times, time)
            self._live += len(bucket)
        else:
            before = len(bucket)
            bucket.extend(fns)
            self._live += len(bucket) - before

    # -- deferred entries ---------------------------------------------------

    def mark(self, time: float, since: Optional[int] = None) -> tuple:
        """Position token for an entry deferred to ``time``.

        The token ``(bucket, index)`` records where ``call_at(time, ...)``
        would append right now: the bucket at ``time`` (None if there is
        none yet) and its current length. Hand it back from the
        :meth:`wake_at` hook to have the entry spliced there. With
        ``since``, the token is the one :meth:`mark` gave when the open post
        journal held ``since`` entries (see :meth:`marks`).
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        if since is not None and self._journal is not None:
            for t, b, n in islice(self._journal, since, None):
                if t == time:
                    return _UNMARKED if b is None else (b, n)
        bucket = self._buckets.get(time)
        return (bucket, 0 if bucket is None else len(bucket))

    def marks(
        self, times: Sequence[float], since: Optional[int] = None
    ) -> list[tuple]:
        """:meth:`mark` for each of ``times``, in one call.

        A time with no bucket gets the ``(None, 0)`` that :meth:`mark`
        returns for it; only times that hit a bucket build a token. With
        ``since``, a position in the open post journal, the tokens are
        those :meth:`mark` gave when the journal held ``since`` entries: a
        time posted to since then gets the token its first such post
        recorded.
        """
        if times and min(times) < self.now:
            raise SimulationError(
                f"cannot schedule event at t={min(times)} before now={self.now}"
            )
        buckets = self._buckets
        journal = self._journal
        if since is not None and journal is not None and since < len(journal):
            first: dict = {}
            for t, b, n in reversed(journal[since:]):
                first[t] = (b, n) if b is not None else _UNMARKED
            if not first.keys().isdisjoint(times):
                get = buckets.get
                return [
                    first[t] if t in first
                    else _UNMARKED if (b := get(t)) is None else (b, len(b))
                    for t in times
                ]
        if buckets.keys().isdisjoint(times):
            return [_UNMARKED] * len(times)
        get = buckets.get
        return [
            _UNMARKED if (b := get(t)) is None else (b, len(b)) for t in times
        ]

    def journal(self) -> int:
        """Open the post journal if it is closed; return its length, the
        position to pass to :meth:`marks` as ``since``."""
        if self._journal is None:
            self._journal = []
        return len(self._journal)

    def close_journal(self) -> None:
        """Close the post journal and drop its records."""
        self._journal = None

    def wake_at(
        self,
        time: float,
        hook: Callable[[float], Sequence[tuple[tuple, list]]],
    ) -> None:
        """Call ``hook(time)`` when ``time``'s epoch starts.

        The hook runs before the epoch's first entry fires and returns the
        deferred entries due then, as ``(token, entry)`` pairs in the order
        their tokens were taken, each ``entry`` a cancellable ``[fn, args]``
        list (withdraw it with :meth:`discard`). They are spliced at their
        tokens' positions and fire with the epoch. An engine serves one
        hook with one pending wake: a later call replaces the wake. A wake
        whose hook returns nothing fires no event and leaves ``now`` where
        it was.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot wake at t={time} before now={self.now}"
            )
        if self._hook is None:
            self._hook = hook
        elif hook != self._hook:
            raise SimulationError("engine already serves another wake hook")
        self._hook_t = time
        heapq.heappush(self._times, time)

    def discard(self, entry: list) -> None:
        """Withdraw a cancellable ``[fn, args]`` entry (a handle's, a
        :meth:`post_entry` one or a spliced one) before it fires.
        Idempotent."""
        if entry[0] is not None:
            entry[0] = None
            entry[1] = ()
            self._live -= 1
            self._cancelled += 1
            if self._cancelled > _COMPACT_MIN and self._cancelled > self._live:
                self._compact()

    def discard_owned(self, owner: Any) -> None:
        """Withdraw every unfired ``[fn, args, owner]`` entry.

        Scans every pending bucket and the one being drained, whose fired
        entries are already blanked. O(pending entries), for rare events
        (a fail-stop), so that owned entries cost nothing until then.
        """
        buckets = list(self._buckets.values())
        if self._draining is not None:
            buckets.append(self._draining)
        lst = list
        n = 0
        for bucket in buckets:
            for e in bucket:
                if type(e) is lst and len(e) == 3 and e[2] is owner and e[0] is not None:
                    e[0] = None
                    e[1] = ()
                    n += 1
        # Counted after the scan: a compaction rewrites the bucket dict.
        if n:
            self._live -= n
            self._cancelled += n
            if self._cancelled > _COMPACT_MIN and self._cancelled > self._live:
                self._compact()

    def _wake(self, t: float, bucket: Optional[list]) -> Optional[list]:
        """Run the hook woken at ``t``; return ``bucket`` with its entries
        spliced in (a fresh list if ``bucket`` is None)."""
        self._hook_t = _NEVER
        items = self._hook(t) if self._hook is not None else ()
        if not items:
            return bucket
        # A token taken on this very bucket points at its index; a token
        # taken while no bucket (or a since-dropped dead one) stood at ``t``
        # precedes everything in it. In token order these positions never
        # decrease, so one forward merge places every entry.
        merged: list = []
        i = 0
        for (at, index), entry in items:
            if at is bucket and index > i:
                merged.extend(bucket[i:index])
                i = index
            merged.append(entry)
        if bucket is not None:
            merged.extend(bucket[i:])
        self._live += len(items)
        return merged

    # -- introspection ------------------------------------------------------

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued. O(1).

        Entries posted with :meth:`post_entry` count from their post;
        deferred entries (:meth:`mark`) count once spliced into their epoch.
        """
        return self._live

    def stats(self) -> dict[str, float]:
        """Engine-level counters (the observability layer's engine hook)."""
        return {
            "now": self.now,
            "events_processed": float(self._events_processed),
            "pending": float(self._live),
            "cancelled_parked": float(self._cancelled),
        }

    # -- maintenance --------------------------------------------------------

    def _compact(self) -> None:
        """Drop buckets holding only cancelled entries; rebuild the heap.

        A partly live bucket is left as it is: its length is what a
        :meth:`mark` token recorded, so shrinking it would move deferred
        entries. Mutates the existing containers in place (``run`` holds
        local references to them).
        """
        buckets = self._buckets
        for t in list(buckets):
            for e in buckets[t]:
                if type(e) is not list or e[0] is not None:
                    break
            else:
                del buckets[t]
        times = self._times
        times[:] = buckets.keys()
        if self._hook_t != _NEVER:
            times.append(self._hook_t)
        heapq.heapify(times)
        # Cancelled entries left in live buckets (or the bucket being
        # drained) are not counted again; the drain loop's clamped
        # decrement makes the counter self-correct as they vanish.
        self._cancelled = 0

    # -- execution ----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue drains or ``until`` is reached.
        Returns the final simulated time."""
        if self._running:
            raise SimulationError("engine already running (reentrant run())")
        self._running = True
        # Hot loop: locals avoid repeated attribute/global lookups; the
        # container objects are stable (compaction mutates them in place).
        times = self._times
        heappop = heapq.heappop
        pop_bucket = self._buckets.pop
        tup = tuple
        lst = list
        processed = 0
        try:
            while times:
                t = times[0]
                if until is not None and t > until:
                    self.now = until
                    return until
                heappop(times)
                bucket = pop_bucket(t, None)
                if t == self._hook_t:
                    bucket = self._wake(t, bucket)
                if bucket is None:
                    continue  # stale heap entry (_compact, replaced wake)
                self.now = t
                self._draining = bucket
                # Epoch drain: everything at this instant in one loop. An
                # event scheduled *at* now mid-drain lands in a fresh bucket
                # for the same timestamp and drains immediately after — the
                # scheduling-order tie-break of the old (time, seq) heap.
                for e in bucket:
                    kind = type(e)
                    if kind is tup:
                        e[0](*e[1])
                        processed += 1
                    elif kind is lst:
                        fn = e[0]
                        if fn is None:
                            # Lazily-cancelled entry vanishing with its epoch.
                            if self._cancelled > 0:
                                self._cancelled -= 1
                            continue
                        e[0] = None
                        args = e[1]
                        e[1] = ()
                        fn(*args)
                        processed += 1
                    else:
                        e()
                        processed += 1
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._events_processed += processed
            self._live -= processed
            self._running = False
            self._draining = None
        return self.now
