"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import CalendarSimulator, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.at(30, order.append, "c")
    sim.at(10, order.append, "a")
    sim.at(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_fire_fifo():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.at(100, order.append, i)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_after_is_relative_to_now():
    sim = Simulator()
    seen = []

    def later():
        sim.after(5, lambda: seen.append(sim.now))

    sim.at(10, later)
    sim.run()
    assert seen == [15]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.at(10, fired.append, "no")
    sim.at(5, handle.cancel)
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.at(10, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()
    assert sim.events_run == 0


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.at(10, fired.append, 10)
    sim.at(50, fired.append, 50)
    sim.run(until=20)
    assert fired == [10]
    assert sim.now == 20  # clock advances to the horizon
    sim.run(until=60)
    assert fired == [10, 50]


def test_run_until_includes_events_at_horizon():
    sim = Simulator()
    fired = []
    sim.at(20, fired.append, 20)
    sim.at(21, fired.append, 21)
    sim.run(until=20)
    assert fired == [20]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.at(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(5, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.after(-1, lambda: None)


@pytest.mark.parametrize("make_sim", [CalendarSimulator])
def test_post_negative_delay_raises(make_sim):
    """Regression: ``post`` took a negative delay and filed the event in the
    past, so it ran with the clock rewound (``b`` below saw ``now == 50``
    after ``a`` ran at 100); ``after``, ``at`` and ``post_at`` all raised."""
    sim = make_sim()
    seen = []

    def a(_):
        seen.append(("a", sim.now))
        with pytest.raises(ValueError):
            sim.post(-50, seen.append, "b")

    sim.post(100, a)
    sim.run()
    assert seen == [("a", 100)]
    assert sim.now == 100 and sim.pending() == 0


def test_max_events_limits_execution():
    sim = Simulator()
    for i in range(10):
        sim.at(i, lambda: None)
    ran = sim.run(max_events=3)
    assert ran == 3
    assert sim.pending() == 7


def test_peek_time_skips_cancelled():
    sim = Simulator()
    h = sim.at(5, lambda: None)
    sim.at(9, lambda: None)
    h.cancel()
    assert sim.peek_time() == 9


def test_release_drops_the_calendar_and_the_wheel():
    """A released simulator holds no event: handles are emptied as
    dispatch empties them, every armed wheel timer drops its callback
    (one posted a hop short of its deadline, and one posted at it), and
    the coarse-timer wheel is let go."""
    from repro.sim.timerwheel import TimerWheel

    sim = Simulator()
    fired = []
    sim.run(until=5)
    handle = sim.at(10, fired.append, "at")
    sim.post(2_000_000, fired.append, "post")
    wheel = TimerWheel.for_sim(sim)
    far = wheel.arm(5_000_000, fired.append, "wheel")
    near = wheel.arm(100, fired.append, "wheel, within a hop")
    assert far.posted < far.deadline and near.posted == near.deadline
    sim.release()
    assert sim.pending() == 0 and sim.peek_time() is None
    assert handle.fn is None and handle.args == ()
    for timer in (far, near):
        assert timer.fn is None and timer.args == ()
    assert TimerWheel.for_sim(sim) is not wheel
    assert (sim.now, sim.events_run) == (5, 0)
    sim.run()
    assert fired == []


def test_events_can_schedule_more_events():
    sim = Simulator()
    ticks = []

    def tick(n):
        ticks.append(sim.now)
        if n > 0:
            sim.after(10, tick, n - 1)

    sim.at(0, tick, 3)
    sim.run()
    assert ticks == [0, 10, 20, 30]


class TestPendingAccounting:
    """pending() is O(1) now — a live counter, not a heap scan — so these
    pin the bookkeeping across schedule/cancel/run/compaction."""

    def test_pending_tracks_schedules_and_cancels(self):
        sim = Simulator()
        handles = [sim.at(i, lambda: None) for i in range(10)]
        assert sim.pending() == 10
        for h in handles[:4]:
            h.cancel()
        assert sim.pending() == 6
        handles[0].cancel()  # double-cancel must not double-count
        assert sim.pending() == 6
        sim.run()
        assert sim.pending() == 0
        assert sim.events_run == 6

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        h = sim.at(5, lambda: None)
        sim.at(10, lambda: None)
        sim.run()
        h.cancel()  # already fired: must not corrupt the live count
        assert sim.pending() == 0
        sim.at(20, lambda: None)
        assert sim.pending() == 1

    def test_cancel_from_within_event_mid_run(self):
        sim = Simulator()
        fired = []
        victim = sim.at(20, fired.append, "victim")
        sim.at(10, victim.cancel)
        sim.at(30, fired.append, "survivor")
        sim.run()
        assert fired == ["survivor"]
        assert sim.pending() == 0

    def test_compaction_shrinks_heap_and_preserves_order(self):
        sim = Simulator()
        keep = []
        handles = [sim.at(i, keep.append, i) for i in range(10_000)]
        for h in handles:
            if h.time % 10:  # cancel 90%
                h.cancel()
        # Cancel-heavy workloads must not pin the calendar: the lazy entries
        # get compacted away well before the run drains them.
        assert sum(1 for _ in sim.iter_pending()) < 5_000
        assert sim.pending() == 1_000
        sim.run()
        assert keep == [t for t in range(10_000) if t % 10 == 0]
        assert sim.pending() == 0

    def test_compaction_during_run_keeps_draining(self):
        """Compaction rebuilds the heap in place; a run loop holding a local
        alias must keep seeing the live events."""
        sim = Simulator()
        fired = []
        later = [sim.at(1000 + i, fired.append, 1000 + i) for i in range(2_000)]

        def mass_cancel():
            # 90% cancelled: enough for the in-run compaction to trigger
            # (cancelled entries outnumber live ones).
            for h in later[:1_800]:
                h.cancel()

        sim.at(0, mass_cancel)
        sim.run()
        assert fired == [1000 + i for i in range(1_800, 2_000)]


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
def test_property_arbitrary_schedules_fire_sorted(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.at(t, fired.append, t)
    sim.run()
    assert fired == sorted(times)
    assert sim.now == max(times)


@given(
    st.lists(
        st.tuples(st.integers(0, 1000), st.booleans()), min_size=1, max_size=100
    )
)
def test_property_cancellation_only_removes_cancelled(events):
    sim = Simulator()
    fired = []
    expected = []
    for t, keep in events:
        h = sim.at(t, fired.append, t)
        if keep:
            expected.append(t)
        else:
            h.cancel()
    sim.run()
    assert fired == sorted(expected)
