"""Coarse timers: one calendar entry each, moved later without engine traffic.

A coarse timer is one flow's watchdog: an RTO-class retransmission timer
(4 ms floor), Homa's regrant/announce retries, a credit-request timeout.
It is *re-armed constantly* (every ACK pushes the deadline out) but
almost never fires. Dense per-credit pacing never comes here: the pacers
``post`` it with generation guards (:mod:`repro.transports.crediting`).

Each coarse timer is one :class:`WheelTimer` with one handle-free
``post_at`` entry in the calendar, posted at ``min(deadline, now +
HOP_NS)``. When the entry fires, a cancelled timer is dropped, a timer
whose deadline has moved past it posts again by the same rule, and any
other fires at its *exact* deadline. So a :class:`CoarseTimer` re-armed no
earlier than its posted instant only writes the new deadline, and a
cancelled timer leaves one entry that dies within ``HOP_NS``, not at a
deadline milliseconds away.

Ordering caveat. Firing instants are exact, but a timer keeps the engine
sequence number of its last posted entry, not of its last re-arm, so a
same-nanosecond tie with other events may dispatch in another order. RTO
deadlines are estimator-derived, and no benchmark workload or golden cell
fires a timeout at all.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

#: the furthest ahead a timer's entry is posted: 2**19 ns = ~524 µs, so a
#: 4 ms RTO moved on every ACK costs about eight hops over its life
HOP_NS = 1 << 19


class WheelTimer:
    """One pending coarse timer. Cancel is a flag flip — no engine traffic."""

    __slots__ = ("deadline", "fn", "args", "cancelled", "posted")

    def __init__(self, deadline: int, fn: Callable[..., Any], args: tuple) -> None:
        self.deadline = deadline
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False
        #: the instant its calendar entry fires (never after ``deadline``)
        self.posted = deadline

    def cancel(self) -> None:
        """Prevent the timer from firing. Safe to call repeatedly and after
        the timer has fired (a no-op then)."""
        if self.cancelled or self.fn is None:
            return
        self.cancelled = True
        # Drop references so a cancelled timer doesn't pin its callback's
        # packets/flows alive until its entry fires.
        self.fn = None
        self.args = ()


class TimerWheel:
    """Posts a simulator's :class:`WheelTimer` entries and counts them."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.armed_total = 0
        self.fired_total = 0
        self.cancelled_total = 0

    @classmethod
    def for_sim(cls, sim) -> "TimerWheel":
        """The simulator's shared wheel (created on first use)."""
        wheel = getattr(sim, "_timer_wheel", None)
        if wheel is None:
            wheel = cls(sim)
            sim._timer_wheel = wheel
        return wheel

    def arm(self, delay: int, fn: Callable[..., Any], *args: Any) -> WheelTimer:
        """Schedule ``fn(*args)`` after ``delay`` ns; returns the timer."""
        if delay < 0:
            raise ValueError(f"delay must be nonnegative, got {delay}")
        timer = WheelTimer(self.sim._now + delay, fn, args)
        self.armed_total += 1
        self._post(timer)
        return timer

    def _post(self, timer: WheelTimer) -> None:
        at = min(timer.deadline, self.sim._now + HOP_NS)
        timer.posted = at
        self.sim.post_at(at, self._fire_one, timer)

    def _fire_one(self, timer: WheelTimer) -> None:
        fn = timer.fn
        if fn is None:  # cancelled after it was posted
            self.cancelled_total += 1
            return
        if timer.deadline > self.sim._now:  # moved later: hop on
            self._post(timer)
            return
        args = timer.args
        timer.fn = None
        timer.args = ()
        self.fired_total += 1
        fn(*args)


class CoarseTimer:
    """A single re-armable one-shot timer on the simulator's shared wheel.

    The pattern shared by retransmission, credit-request, announce and
    regrant timers: ``arm(delay, fn, *args)`` (re)starts, ``cancel()``
    stops, ``armed`` tells. A re-arm no earlier than the armed timer's
    posted instant moves its deadline in place; only an earlier one posts
    a new entry.

    The callback comes with each arm and lives only in the armed
    :class:`WheelTimer`, which drops it on firing or cancelling. So the
    timer never refers to its owner: while idle, the owner and its timer
    form no reference cycle, and a finished endpoint is freed by
    reference counting (DESIGN.md §5, "State lifetime").
    """

    __slots__ = ("_wheel", "_timer")

    def __init__(self, sim) -> None:
        self._wheel = TimerWheel.for_sim(sim)
        #: the last wheel timer armed; it holds a callback while armed
        self._timer: Optional[WheelTimer] = None

    @property
    def armed(self) -> bool:
        timer = self._timer
        return timer is not None and timer.fn is not None

    def arm(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """(Re)start the timer: ``fn(*args)`` runs ``delay`` ns from now."""
        timer = self._timer
        deadline = self._wheel.sim._now + delay
        if (timer is not None and timer.fn is not None
                and deadline >= timer.posted):
            timer.deadline = deadline
            timer.fn = fn
            timer.args = args
            return
        self.cancel()
        self._timer = self._wheel.arm(delay, fn, *args)

    def cancel(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
