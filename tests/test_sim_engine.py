"""Unit tests for the discrete-event engine and CPU model."""

import pytest

from repro.sim import Cpu, Engine, SimulationError


class TestEngine:
    def test_runs_in_time_order(self):
        eng = Engine()
        order = []
        eng.call_at(3e-6, order.append, "c")
        eng.call_at(1e-6, order.append, "a")
        eng.call_at(2e-6, order.append, "b")
        eng.run()
        assert order == ["a", "b", "c"]
        assert eng.now == pytest.approx(3e-6)

    def test_ties_fire_in_scheduling_order(self):
        eng = Engine()
        order = []
        for label in "abcde":
            eng.call_at(1e-6, order.append, label)
        eng.run()
        assert order == list("abcde")

    def test_call_after_relative(self):
        eng = Engine()
        seen = []
        eng.call_after(5e-6, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [pytest.approx(5e-6)]

    def test_cancellation(self):
        eng = Engine()
        fired = []
        h = eng.call_at(1e-6, fired.append, 1)
        eng.call_at(2e-6, fired.append, 2)
        h.cancel()
        eng.run()
        assert fired == [2]

    def test_cancel_idempotent(self):
        eng = Engine()
        h = eng.call_at(1e-6, lambda: None)
        h.cancel()
        h.cancel()
        eng.run()
        assert eng.events_processed == 0

    def test_events_can_schedule_events(self):
        eng = Engine()
        times = []

        def tick(n):
            times.append(eng.now)
            if n > 0:
                eng.call_after(1e-6, tick, n - 1)

        eng.call_at(0.0, tick, 3)
        eng.run()
        assert times == [pytest.approx(i * 1e-6) for i in range(4)]

    def test_run_until(self):
        eng = Engine()
        fired = []
        eng.call_at(1.0, fired.append, "late")
        eng.run(until=0.5)
        assert fired == []
        assert eng.now == pytest.approx(0.5)
        eng.run()
        assert fired == ["late"]

    def test_scheduling_in_past_rejected(self):
        eng = Engine()
        eng.call_at(1e-6, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.call_at(0.0, lambda: None)

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.call_after(-1.0, lambda: None)

    def test_pending_counts_live_events(self):
        eng = Engine()
        h1 = eng.call_at(1.0, lambda: None)
        eng.call_at(2.0, lambda: None)
        assert eng.pending() == 2
        h1.cancel()
        assert eng.pending() == 1

    def test_every_entry_point_rejects_the_past(self):
        eng = Engine()
        eng.call_at(1.0, lambda: None)
        eng.run()
        for post in (
            lambda: eng.post_at(0.5, lambda: None),
            lambda: eng.post_after(-1.0, lambda: None),
            lambda: eng.post_entry(0.5, [lambda: None, ()]),
            lambda: eng.post_batch(0.5, [lambda: None]),
            lambda: eng.marks([2.0, 0.5]),
            lambda: eng.wake_at(0.5, lambda t: ()),
        ):
            with pytest.raises(SimulationError, match="before now=1.0|negative delay"):
                post()
        assert eng.pending() == 0

    def test_post_batch_opens_a_new_instant(self):
        eng = Engine()
        order = []
        eng.post_batch(1.0, [lambda: order.append("a"), lambda: order.append("b")])
        eng.post_batch(1.0, [lambda: order.append("c")])
        assert eng.pending() == 3
        eng.run()
        assert order == ["a", "b", "c"] and eng.now == 1.0

    def test_run_is_not_reentrant(self):
        eng = Engine()
        caught = []

        def nested():
            with pytest.raises(SimulationError, match="reentrant"):
                eng.run()
            caught.append(eng.running)

        eng.call_at(1.0, nested)
        eng.run()
        assert caught == [True] and not eng.running

    def test_one_wake_hook_per_engine(self):
        eng = Engine()
        hook = lambda t: ()
        eng.wake_at(1.0, hook)
        eng.wake_at(2.0, hook)  # the same hook: the later wake replaces it
        with pytest.raises(SimulationError, match="another wake hook"):
            eng.wake_at(1.0, lambda t: ())
        assert eng.run() == 0.0  # a wake that splices nothing fires no event

    def test_discard_owned_compacts_once_cancelled_outnumber_live(self):
        eng = Engine()
        owner = object()
        for i in range(600):
            eng.post_entry(1.0 + i, [lambda i: None, (i,), owner])
        eng.call_at(1e3, lambda: None)
        withdrawn = eng.discard_owned(owner)
        assert [args for _, args in withdrawn] == [(i,) for i in range(600)]
        # Every owned bucket was all cancelled: the compaction dropped them.
        assert eng.pending() == 1 and list(eng._buckets) == [1e3]
        assert eng.stats()["cancelled_parked"] == 0.0
        eng.run()
        assert eng.events_processed == 1

    def test_handle_repr_names_its_state(self):
        eng = Engine()
        fired, cancelled = eng.call_at(1.0, lambda: None), eng.call_at(1.0, lambda: None)
        assert repr(fired) == "<EventHandle pending>"
        cancelled.cancel()
        eng.run()
        assert repr(fired) == "<EventHandle fired>"
        assert repr(cancelled) == "<EventHandle cancelled>"


class TestPostEntry:
    def test_posted_entry_fires_in_post_order(self):
        eng = Engine()
        order = []
        eng.post_at(1.0, order.append, "before")
        eng.post_entry(1.0, [order.append, ("entry",)])
        eng.post_at(1.0, order.append, "after")
        eng.run()
        assert order == ["before", "entry", "after"]

    def test_pending_counts_it_and_discard_withdraws_it(self):
        eng = Engine()
        fired = []
        entry = [fired.append, (1,)]
        eng.post_entry(1.0, entry)
        assert eng.pending() == 1
        eng.discard(entry)
        eng.discard(entry)  # idempotent
        assert eng.pending() == 0
        eng.run()
        assert fired == [] and eng.events_processed == 0

    def test_open_journal_records_it(self):
        eng = Engine()
        eng.post_at(1.0, lambda: None)
        at = eng.journal()
        eng.post_entry(1.0, [lambda: None, ()])
        eng.post_entry(2.0, [lambda: None, ()])
        one = eng._buckets[1.0]
        assert eng.journal() == 2
        assert eng.marks([1.0, 2.0], since=at) == [(one, 1), (None, 0)]
        eng.close_journal()

    def test_compaction_keeps_a_bucket_with_a_live_posted_entry(self):
        eng = Engine()
        fired = []
        live = [fired.append, ("live",)]
        dead = [fired.append, ("dead",)]
        eng.post_entry(1.0, dead)
        eng.post_entry(1.0, live)
        handles = [eng.call_at(2.0, fired.append, "x") for _ in range(3)]
        eng.discard(dead)
        for h in handles:
            h.cancel()
        eng._compact()
        assert list(eng._buckets) == [1.0] and len(eng._buckets[1.0]) == 2
        eng.run()
        assert fired == ["live"]


class TestPostJournal:
    def test_marks_since_give_the_tokens_as_they_stood(self):
        eng = Engine()
        eng.post_at(1.0, lambda: None)
        at = eng.journal()
        eng.post_at(1.0, lambda: None)
        eng.call_at(2.0, lambda: None)  # makes the bucket at 2.0
        eng.post_batch(1.0, [lambda: None])
        one, two = eng._buckets[1.0], eng._buckets[2.0]
        assert eng.marks([1.0, 2.0, 3.0], since=at) == [(one, 1), (None, 0), (None, 0)]
        assert eng.marks([1.0, 2.0]) == [(one, 3), (two, 1)]
        assert eng.marks([1.0], since=eng.journal()) == [(one, 3)]
        eng.close_journal()
        assert eng.marks([1.0], since=at) == [(one, 3)]  # closed: as they stand

    def test_posts_are_journaled_only_while_open(self):
        eng = Engine()
        eng.post_at(1.0, lambda: None)
        assert eng.journal() == 0
        eng.post_after(1.0, lambda: None)
        assert eng.journal() == 1
        eng.close_journal()
        eng.post_at(1.0, lambda: None)
        assert eng.journal() == 0


class TestCpu:
    def test_serial_execution(self):
        eng = Engine()
        cpu = Cpu(eng)
        done = []
        cpu.execute(1e-6, done.append, "a")
        cpu.execute(2e-6, done.append, "b")
        eng.run()
        assert done == ["a", "b"]
        assert eng.now == pytest.approx(3e-6)

    def test_noise_delays_subsequent_work(self):
        eng = Engine()
        cpu = Cpu(eng)
        times = []
        cpu.inject_noise(5e-3)
        cpu.execute(1e-6, lambda: times.append(eng.now))
        eng.run()
        assert times[0] == pytest.approx(5e-3 + 1e-6)
        assert cpu.noise_time == pytest.approx(5e-3)
        assert cpu.busy_time == pytest.approx(1e-6)

    def test_when_available(self):
        eng = Engine()
        cpu = Cpu(eng)
        times = []
        cpu.execute(2e-6, lambda: None)
        cpu.when_available(lambda: times.append(eng.now))
        eng.run()
        assert times == [pytest.approx(2e-6)]

    def test_idle_cpu_runs_immediately(self):
        eng = Engine()
        cpu = Cpu(eng)
        end = cpu.execute(1e-6)
        assert end == pytest.approx(1e-6)

    def test_negative_duration_rejected(self):
        eng = Engine()
        cpu = Cpu(eng)
        with pytest.raises(ValueError):
            cpu.execute(-1.0)
        with pytest.raises(ValueError):
            cpu.inject_noise(-1.0)


class TestCpuHalt:
    """A fail-stop withdraws the CPU's unfired completions from the engine."""

    def test_halt_mid_epoch_skips_the_later_completion_only(self):
        eng = Engine()
        a, b = Cpu(eng), Cpu(eng)
        fired = []

        def first():
            fired.append("a1")
            a.halt()

        a.execute(1e-6, first)
        b.execute(1e-6, fired.append, "b1")
        a.execute(0.0, fired.append, "a2")  # same instant, after b1
        eng.run()
        assert fired == ["a1", "b1"]
        assert eng.events_processed == 2 and eng.pending() == 0

    def test_pending_drops_by_the_withdrawn_count(self):
        eng = Engine()
        a, b = Cpu(eng), Cpu(eng)
        for d in (1e-6, 2e-6, 3e-6):
            a.execute(d, lambda: None)
        b.execute(1e-6, lambda: None)
        eng.call_at(5e-6, lambda: None)
        assert eng.pending() == 5
        a.halt()
        assert eng.pending() == 2
        assert eng.stats()["cancelled_parked"] == 3.0
        eng.run()
        assert eng.events_processed == 2 and eng.pending() == 0

    def test_halt_outside_run_withdraws_future_completions(self):
        eng = Engine()
        cpu = Cpu(eng)
        fired = []
        cpu.execute(1e-6, fired.append, 1)
        cpu.when_available(fired.append, 2)
        cpu.halt()
        assert eng.pending() == 0
        # New work is refused: it posts nothing and time stands still.
        assert cpu.execute(1e-6, fired.append, 3) == pytest.approx(1e-6)
        assert eng.pending() == 0
        eng.run()
        assert fired == [] and eng.events_processed == 0

    def test_halt_leaves_other_entries_at_the_instant(self):
        eng = Engine()
        cpu = Cpu(eng)
        fired = []
        cpu.execute(1e-6, fired.append, "cpu")
        eng.post_at(1e-6, fired.append, "post")
        h = eng.call_at(1e-6, fired.append, "handle")
        eng.post_entry(1e-6, [fired.append, ("entry",)])
        cpu.halt()
        eng.run()
        assert fired == ["post", "handle", "entry"]
        assert h.fn is None and not h.cancelled
