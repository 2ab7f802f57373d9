"""Property-based tests on the discrete-event engine's core guarantees."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Engine


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=120, deadline=None)
def test_property_events_fire_in_nondecreasing_time_order(times):
    eng = Engine()
    fired = []
    for t in times:
        eng.call_at(t, lambda t=t: fired.append(eng.now))
    eng.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=2,
        max_size=40,
    ),
    cancel_idx=st.sets(st.integers(min_value=0, max_value=39)),
)
@settings(max_examples=80, deadline=None)
def test_property_cancelled_events_never_fire(times, cancel_idx):
    eng = Engine()
    fired = []
    handles = [eng.call_at(t, lambda i=i: fired.append(i)) for i, t in enumerate(times)]
    cancelled = {i for i in cancel_idx if i < len(handles)}
    for i in cancelled:
        handles[i].cancel()
    eng.run()
    assert set(fired) == set(range(len(times))) - cancelled


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_chained_scheduling_accumulates_time(delays):
    eng = Engine()
    remaining = list(delays)

    def step():
        if remaining:
            eng.call_after(remaining.pop(0), step)

    eng.call_at(0.0, step)
    eng.run()
    assert eng.now == sum(delays) or abs(eng.now - sum(delays)) < 1e-9 * max(sum(delays), 1)


@given(
    same_time=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    n=st.integers(min_value=2, max_value=50),
)
@settings(max_examples=50, deadline=None)
def test_property_fifo_among_simultaneous_events(same_time, n):
    eng = Engine()
    fired = []
    for i in range(n):
        eng.call_at(same_time, lambda i=i: fired.append(i))
    eng.run()
    assert fired == list(range(n))


@given(
    until=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    times=st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                   min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_property_run_until_is_a_clean_cut(until, times):
    eng = Engine()
    fired = []
    for t in times:
        eng.call_at(t, lambda t=t: fired.append(t))
    eng.run(until=until)
    assert all(t <= until for t in fired)
    eng.run()
    assert sorted(fired) == sorted(times)


class _Client:
    """Schedules keyed, movable events on one engine, eagerly or deferred.

    Eager: every (re)schedule is a ``call_at`` and the previous handle is
    cancelled — the order oracle. Deferred: a (re)schedule only takes a
    ``mark`` token; a ``wake_at`` hook hands the due entries back when
    their epoch starts, the way the fair-share network defers flow
    finishes.
    """

    def __init__(self, eng, deferred, fired):
        self.eng = eng
        self.deferred = deferred
        self.fired = fired
        self.handles = {}  # eager: key -> EventHandle
        self.queued = {}   # deferred: key -> (due, seq, token)
        self.seq = 0
        self.spliced = {}  # deferred: key -> engine entry awaiting its turn

    def defer(self, key, t):
        self.drop(key)
        if self.deferred:
            self.seq += 1
            self.queued[key] = (t, self.seq, self.eng.mark(t))
            self.rearm()
        else:
            self.handles[key] = self.eng.call_at(t, self.fired.append, ("key", key))

    def drop(self, key):
        h = self.handles.pop(key, None)
        if h is not None:
            h.cancel()
        self.queued.pop(key, None)
        entry = self.spliced.pop(key, None)
        if entry is not None:
            self.eng.discard(entry)
        self.rearm()

    def rearm(self):
        if self.queued:
            self.eng.wake_at(min(t for t, _, _ in self.queued.values()), self.hook)

    def hook(self, t):
        due = sorted(
            (seq, key, tok) for key, (d, seq, tok) in self.queued.items() if d == t
        )
        out = []
        for _, key, tok in due:
            del self.queued[key]
            entry = [self.fire_spliced, (key,)]
            self.spliced[key] = entry
            out.append((tok, entry))
        self.rearm()
        return out

    def fire_spliced(self, key):
        del self.spliced[key]
        self.fired.append(("key", key))


_TIMES = (0.0, 1.0, 2.0)
_KEYS = st.integers(0, 3)
_then = st.one_of(
    st.none(),
    st.tuples(st.just("post"), st.sampled_from((0.0, 1.0))),
    st.tuples(st.just("defer"), _KEYS, st.sampled_from((0.0, 1.0))),
    st.tuples(st.just("drop"), _KEYS),
)
_op = st.one_of(
    st.tuples(st.just("post"), st.sampled_from(_TIMES), _then),
    st.tuples(st.just("call"), st.sampled_from(_TIMES), _then),
    st.tuples(st.just("cancel"), st.integers(0, 7)),
    st.tuples(st.just("defer"), _KEYS, st.sampled_from(_TIMES)),
    st.tuples(st.just("drop"), _KEYS),
    st.just(("compact",)),
)


def _replay(ops, deferred, sliced=False):
    eng = Engine()
    fired = []
    client = _Client(eng, deferred, fired)
    handles = []

    def record(label, then):
        fired.append(label)
        if then is None:
            return
        if then[0] == "post":
            eng.post_at(eng.now + then[1], fired.append, ("late", then[1]))
        elif then[0] == "defer":
            client.defer(then[1], eng.now + then[2])
        else:
            client.drop(then[1])

    for i, op in enumerate(ops):
        kind = op[0]
        if kind == "post":
            eng.post_at(op[1], record, ("post", i), op[2])
        elif kind == "call":
            handles.append(eng.call_at(op[1], record, ("call", i), op[2]))
        elif kind == "cancel":
            if op[1] < len(handles):
                handles[op[1]].cancel()
        elif kind == "defer":
            client.defer(op[1], op[2])
        elif kind == "drop":
            client.drop(op[1])
        else:
            eng._compact()  # forced, between tokens and their epochs
    if sliced:
        # Cut the drain at every drawn time, as the harness's ``_drive``
        # cuts runs at its horizons, then drain the rest.
        drawn = {op[2] if op[0] == "defer" else op[1]
                 for op in ops if op[0] in ("post", "call", "defer")}
        for t in sorted(drawn):
            eng.run(until=t)
    eng.run()
    # ``now`` at quiescence is left out: the eager engine still visits the
    # bucket of a cancelled event, a moved deferred entry leaves none.
    return fired, eng.events_processed, eng.pending()


@given(ops=st.lists(_op, min_size=1, max_size=40))
@example(ops=[  # compaction between a token and its epoch must not shift it
    ("call", 1.0, None), ("defer", 0, 1.0), ("post", 1.0, None),
    ("cancel", 0), ("compact",),
])
@settings(max_examples=300, deadline=None)
def test_property_deferred_entries_fire_where_eager_call_at_would(ops):
    eager = _replay(ops, deferred=False)
    assert _replay(ops, deferred=True) == eager
    # ``run(until=t)`` cuts between epochs with deferred entries pending.
    assert _replay(ops, deferred=True, sliced=True) == eager
