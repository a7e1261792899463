"""Differential tests: the calendar engine against a sorted-list reference.

The engine's contract is that of one list of events kept sorted by
``(time, seq)``: events fire in nondecreasing time order, events at one
instant fire in scheduling (seq) order, a cancelled event never fires and
stops counting in ``pending()``, ``peek_time()`` is the time of the first
live event, and ``run(until=T)`` dispatches exactly the events at or before
``T``. :class:`ReferenceEngine` below is that list and nothing more;
randomized scheduling programs run on both and every observable is
compared. The audit subsystem's golden digests cover the same contract
end-to-end on real experiments; these tests cover it at the kernel surface,
where shrinking a failure is cheap. Every ``calendar-*`` mutant in
``tests/mutants/`` must turn them red (``python tools/mutants.py``).

The calendar is one tier (a sorted active batch fed from time buckets), so
the programs also stop mid-run at ``run(until=...)`` horizons that fall
inside a bucket or behind one already made active, schedule from outside a
callback just past the clock (an earlier bucket than the one being
drained), and resume. ``run`` also retunes the garbage collector for its
own duration; the last class checks it always puts the thresholds back.

Also home to the watchdog stalled-purge regression test: the wall-clock
check must key on loop iterations, not executed events, or a
cancel-dominated calendar purges forever without ever consulting the clock.
"""

import gc
import random
from bisect import insort

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.calendar import RUN_GC_GEN0, CalendarSimulator
from repro.sim.events import EventHandle, RepeatingEvent

#: exercise bucket-boundary behavior: one tiny-bucket and one huge-bucket
#: calendar run alongside the default, against the same reference
CALENDAR_VARIANTS = [
    CalendarSimulator,
    lambda: CalendarSimulator(bucket_bits=2),
    lambda: CalendarSimulator(bucket_bits=30),
]


class ReferenceEngine:
    """The engine contract as one list sorted by ``(time, seq)``."""

    def __init__(self) -> None:
        self.now = 0
        self.events_run = 0
        self.aborted = False
        self._seq = 0
        self._events = []  # (time, seq, EventHandle), sorted

    def at(self, time, fn, *args):
        if time < self.now:
            raise ValueError("scheduled in the past")
        handle = EventHandle(time, self._seq, fn, args, self)
        insort(self._events, (time, self._seq, handle))
        self._seq += 1
        return handle

    def after(self, delay, fn, *args):
        if delay < 0:
            raise ValueError("negative delay")
        return self.at(self.now + delay, fn, *args)

    def post(self, delay, fn, arg=None):
        return self.after(delay, fn, arg)

    def post_at(self, time, fn, arg=None):
        return self.at(time, fn, arg)

    def every(self, period, fn, until=None):
        return RepeatingEvent(self, period, fn, until)

    def _note_cancel(self) -> None:
        pass

    def _live(self):
        return [e for e in self._events if not e[2].cancelled]

    def pending(self) -> int:
        return len(self._live())

    def peek_time(self):
        live = self._live()
        return live[0][0] if live else None

    def run(self, until=None, max_events=None) -> int:
        self.aborted = False
        executed = 0
        while self.peek_time() is not None:
            time, seq, handle = self._live()[0]
            if until is not None and time > until:
                break
            if max_events is not None and executed >= max_events:
                self.aborted = True
                break
            self._events.remove((time, seq, handle))
            self.now = time
            fn, args = handle.fn, handle.args
            handle.fn, handle.args = None, ()  # a fired event cannot cancel
            fn(*args)
            executed += 1
        self.events_run += executed
        if until is not None and self.now < until and not self.aborted:
            self.now = until
        return executed


def _run_program(make_sim, seed: int, n_roots: int, horizons=()):
    """Interpret one randomized scheduling program; return its full trace.

    The program's own random stream (``random.Random(seed)``) is consumed
    inside event callbacks, so any dispatch-order divergence between engines
    derails the stream and shows up as a trace mismatch immediately.

    Each entry of ``horizons`` is one ``run(until=now + h)`` segment. After
    it the program (sometimes) peeks, which makes the calendar engine turn
    the next bucket into the active batch, and schedules one more event
    within 3 us of the clock: with 4 ns or 1 us buckets that is an earlier
    bucket than the active one, with the 2**30 ns bucket it is the middle
    of the only one. The final ``run()`` drains the rest.
    """
    sim = make_sim()
    rnd = random.Random(seed)
    trace = []
    cancellable = []
    repeaters = []

    def make_cb(label: str, depth: int):
        def cb(*args):
            trace.append((label, sim.now, args))
            if depth >= 3:
                return
            choice = rnd.randrange(8)
            d = rnd.randrange(0, 60_000)
            if choice == 0:
                cancellable.append(
                    sim.after(d, make_cb(label + ".a", depth + 1)))
            elif choice == 1:
                sim.post(d, make_cb(label + ".p", depth + 1), label)
            elif choice == 2:
                sim.at(sim.now + d, make_cb(label + ".t", depth + 1))
            elif choice == 3:
                sim.post_at(sim.now + d, make_cb(label + ".q", depth + 1))
            elif choice == 4 and cancellable:
                cancellable.pop(rnd.randrange(len(cancellable))).cancel()
            elif choice == 5:
                period = rnd.randrange(1, 5_000)
                rep = sim.every(period, make_cb(label + ".r", 3),
                                until=sim.now + rnd.randrange(0, 20_000))
                repeaters.append(rep)
            elif choice == 6 and repeaters:
                repeaters.pop(rnd.randrange(len(repeaters))).cancel()
            else:
                trace.append(("obs", sim.peek_time(), sim.pending()))
        return cb

    for i in range(n_roots):
        d = rnd.randrange(0, 200_000)
        kind = rnd.randrange(3)
        if kind == 0:
            cancellable.append(sim.after(d, make_cb(f"r{i}", 0)))
        elif kind == 1:
            sim.post(d, make_cb(f"r{i}", 0))
        else:
            sim.at(d, make_cb(f"r{i}", 0))
    executed = 0
    for i, h in enumerate(horizons):
        executed += sim.run(until=sim.now + h)
        trace.append(("stop", sim.now, executed, sim.pending()))
        if rnd.randrange(2):
            trace.append(("peek", sim.peek_time()))
        d = rnd.randrange(0, 3_000)
        if rnd.randrange(2):
            sim.post(d, make_cb(f"s{i}", 1), i)
        else:
            cancellable.append(sim.at(sim.now + d, make_cb(f"s{i}", 1)))
    executed += sim.run()
    trace.append(("end", sim.now, executed, sim.pending(), sim.events_run))
    return trace


class TestDifferentialRandomPrograms:
    @given(seed=st.integers(0, 2**32 - 1), n_roots=st.integers(1, 25))
    @settings(max_examples=60, deadline=None)
    def test_full_drain_traces_identical(self, seed, n_roots):
        expected = _run_program(ReferenceEngine, seed, n_roots)
        for make_sim in CALENDAR_VARIANTS:
            assert _run_program(make_sim, seed, n_roots) == expected

    @given(seed=st.integers(0, 2**32 - 1), n_roots=st.integers(1, 25),
           horizons=st.lists(st.integers(0, 80_000), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_stop_schedule_resume_traces_identical(self, seed, n_roots,
                                                   horizons):
        expected = _run_program(ReferenceEngine, seed, n_roots, horizons)
        for make_sim in CALENDAR_VARIANTS:
            assert _run_program(make_sim, seed, n_roots, horizons) == expected

    @given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(0, 150_000))
    @settings(max_examples=40, deadline=None)
    def test_run_until_traces_identical(self, seed, horizon):
        def run(make_sim):
            sim = make_sim()
            rnd = random.Random(seed)
            trace = []
            for i in range(12):
                t = rnd.randrange(0, 200_000)
                sim.at(t, trace.append, (i, t))
            executed = sim.run(until=horizon)
            # Leftovers drain in a second call: the horizon must not have
            # perturbed ordering of what stayed behind.
            executed += sim.run()
            return trace, executed, sim.now
        expected = run(ReferenceEngine)
        for make_sim in CALENDAR_VARIANTS:
            assert run(make_sim) == expected

    @given(seed=st.integers(0, 2**32 - 1), max_events=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_max_events_watchdog_identical(self, seed, max_events):
        def run(make_sim):
            sim = make_sim()
            rnd = random.Random(seed)
            trace = []
            for i in range(30):
                sim.post(rnd.randrange(0, 100_000), trace.append, i)
            executed = sim.run(max_events=max_events)
            return trace, executed, sim.aborted, sim.pending()
        expected = run(ReferenceEngine)
        for make_sim in CALENDAR_VARIANTS:
            assert run(make_sim) == expected


class TestOrderingEdgeCases:
    @pytest.mark.parametrize("make_sim", CALENDAR_VARIANTS)
    def test_equal_instant_fifo_across_apis(self, make_sim):
        """Events landing on one instant from every scheduling API fire in
        scheduling (seq) order, matching the reference exactly."""
        def run(factory):
            sim = factory()
            trace = []
            sim.at(500, trace.append, "at-early")
            sim.after(500, trace.append, "after")
            sim.post(500, trace.append, "post")
            sim.post_at(500, trace.append, "post_at")
            sim.at(500, trace.append, "at-late")
            sim.at(499, trace.append, "sooner")
            sim.run()
            return trace
        assert run(make_sim) == run(ReferenceEngine) == [
            "sooner", "at-early", "after", "post", "post_at", "at-late"]

    @pytest.mark.parametrize("make_sim", [CalendarSimulator])
    def test_cancel_same_instant_later_seq(self, make_sim):
        """A callback cancelling a same-instant, later-seq event must win:
        the victim was scheduled but not yet dispatched."""
        sim = make_sim()
        fired = []
        victim = sim.at(100, fired.append, "victim")
        sim.at(100, victim.cancel)  # earlier seq than victim? No: later.
        sim.run()
        # ``victim`` has the earlier seq, so it fires before the canceller.
        assert fired == ["victim"]

        sim2 = make_sim()
        fired2 = []
        h = [None]
        def canceller():
            h[0].cancel()
        sim2.at(100, canceller)
        h[0] = sim2.at(100, fired2.append, "victim")
        sim2.run()
        assert fired2 == []

    @pytest.mark.parametrize("make_sim", CALENDAR_VARIANTS)
    def test_callback_scheduling_earlier_than_stored(self, make_sim):
        """A callback scheduling an event sooner than everything stored must
        see it fire next: it lands at the tail of the active batch, ahead of
        the batch's own entries and of every later bucket."""
        def run(factory):
            sim = factory()
            trace = []
            def wedge():
                sim.at(sim.now + 1, trace.append, ("wedged", sim.now + 1))
            sim.at(10, wedge)
            for t in (100_000, 200_000, 12):
                sim.at(t, trace.append, ("base", t))
            sim.run()
            return trace
        assert run(make_sim) == run(ReferenceEngine)

    @pytest.mark.parametrize("make_sim", CALENDAR_VARIANTS)
    def test_peek_inside_callback_consistent(self, make_sim):
        """peek_time() from inside a callback (which may force a bucket
        advance mid-drain) must agree with the reference."""
        def run(factory):
            sim = factory()
            trace = []
            def observer(label):
                trace.append((label, sim.peek_time(), sim.pending()))
            for t in (5, 70_000, 70_000, 140_000):
                sim.at(t, observer, t)
            sim.run()
            return trace
        assert run(make_sim) == run(ReferenceEngine)

    def test_iter_pending_covers_batch_and_buckets(self):
        sim = CalendarSimulator(bucket_bits=4)
        fn = lambda *a: None  # noqa: E731
        h1 = sim.at(1, fn)                  # first bucket
        sim.post(5, fn, ("x", 2))           # same bucket
        sim.at(10_000, fn)                  # future bucket
        h2 = sim.after(90_000, fn)          # far-future bucket
        h2.cancel()                         # cancelled entries included

        def check(expected_times, first_seq):
            entries = sorted(sim.iter_pending(), key=lambda e: e[:2])
            assert [t for t, _, _ in entries] == expected_times
            seqs = [s for _, s, _ in entries]
            assert seqs == list(range(first_seq, 4))
            return entries

        entries = check([1, 5, 10_000, 90_000], 0)
        # The public shape: a handle for at/after, (fn, args) for post,
        # whose one argument comes back as a 1-tuple.
        assert entries[0][2] is h1 and entries[3][2] is h2
        assert entries[1][2] == (fn, (("x", 2),))
        assert sim.pending() == 3
        assert h1.time == 1
        # Stop inside the first bucket: what it still holds sits in the
        # active batch, not in a bucket, and must be listed all the same.
        assert sim.run(until=3) == 1
        check([5, 10_000, 90_000], 1)
        assert sim.pending() == 2


class TestWatchdogStalledPurge:
    """Regression: the wall-clock watchdog must trip while purging a
    cancel-dominated calendar, even though no event executes (the old check
    keyed on ``executed`` and never fired)."""

    @pytest.mark.parametrize("make_sim", [CalendarSimulator])
    def test_purge_storm_trips_wall_clock(self, make_sim, monkeypatch):
        sim = make_sim()
        fired = []
        # 6000 cancelled entries ahead of 7000 live ones, ratio held below
        # the compaction trigger (6000 * 2 < 13000) so the purge loop really
        # walks every cancelled entry one iteration at a time.
        doomed = [sim.after(i, lambda: None) for i in range(6_000)]
        for i in range(7_000):
            sim.at(100_000 + i, fired.append, i)
        for h in doomed:
            h.cancel()
        assert sim.pending() == 7_000

        # Each monotonic() call advances 2s against a 1s budget: the very
        # first *check* is already past the deadline. With WALL_CHECK_INTERVAL
        # = 4096 < 6000 purge iterations, an iteration-keyed watchdog aborts
        # before any live event runs; the old executed-keyed check would have
        # sailed through the purge and executed thousands of events.
        clock = [1_000.0]
        def fake_monotonic():
            clock[0] += 2.0
            return clock[0]
        engine_mod = type(sim).__module__
        import importlib
        monkeypatch.setattr(importlib.import_module(engine_mod).time,
                            "monotonic", fake_monotonic)

        executed = sim.run(wall_clock_s=1.0)
        assert sim.aborted
        assert "wall-clock" in sim.abort_reason
        assert executed == 0
        assert fired == []
        # The abort left live events pending; a fresh run drains them.
        assert sim.pending() == 7_000

    @pytest.mark.parametrize("make_sim", [CalendarSimulator])
    def test_wall_clock_not_checked_when_unarmed(self, make_sim, monkeypatch):
        """Without wall_clock_s the guarded loop must never call the clock
        (max_events alone arms no deadline)."""
        sim = make_sim()
        for i in range(10):
            sim.post(i, lambda _: None)
        def boom():  # pragma: no cover - the assertion is that it never runs
            raise AssertionError("monotonic called without a wall budget")
        import importlib
        monkeypatch.setattr(
            importlib.import_module(type(sim).__module__).time,
            "monotonic", boom)
        assert sim.run(max_events=100) == 10


class TestRunRestoresCollector:
    """``run`` raises the collector's gen-0 threshold while it drains; every
    way out of it must put back exactly what it found."""

    @pytest.fixture(autouse=True)
    def _odd_thresholds(self):
        before = gc.get_threshold()
        gc.set_threshold(701, 11, 13)
        yield
        gc.set_threshold(*before)

    def test_raised_inside_restored_after(self):
        sim = CalendarSimulator()
        seen = []
        sim.post(5, lambda _: seen.append(gc.get_threshold()))
        sim.run()
        assert seen == [(RUN_GC_GEN0, 11, 13)]
        assert gc.get_threshold() == (701, 11, 13)

    def test_restored_when_a_callback_raises(self):
        sim = CalendarSimulator()

        def boom(_):
            raise KeyError("boom")

        sim.post(5, boom)
        sim.post(9, lambda _: None)
        with pytest.raises(KeyError):
            sim.run(until=100)
        assert gc.get_threshold() == (701, 11, 13)
        # The engine is usable again: not left marked as running.
        assert sim.run() == 1

    def test_restored_when_the_watchdog_aborts(self):
        sim = CalendarSimulator()

        def forever(_=None):
            sim.post(1, forever)

        sim.post(1, forever)
        sim.run(max_events=50)
        assert sim.aborted
        assert gc.get_threshold() == (701, 11, 13)

    def test_a_disabled_or_higher_threshold_is_left_alone(self):
        sim = CalendarSimulator()
        for mine in ((0, 11, 13), (10**7, 11, 13)):
            gc.set_threshold(*mine)
            seen = []
            sim.post(1, lambda _: seen.append(gc.get_threshold()))
            sim.run()
            assert seen == [mine] and gc.get_threshold() == mine
