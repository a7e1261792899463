"""Scheduled-event objects of the event engine.

:class:`EventHandle` is the cancellable calendar entry returned by
``Simulator.at``/``after``; :class:`RepeatingEvent` is the periodic wrapper
behind ``Simulator.every``. Both only touch the simulator through its
public scheduling surface plus its ``_note_cancel`` bookkeeping hook, so
the reference engine of the engine tests drives them too.
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class EventHandle:
    """A scheduled event that can be cancelled before it fires."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple,
                 sim) -> None:
        self.time = time
        self.seq = seq
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once,
        including after the event has already fired (a no-op then)."""
        if self.cancelled or self.fn is None:
            # Already cancelled, or already fired (the dispatcher clears
            # ``fn`` before invoking it) — nothing left to do.
            return
        self.cancelled = True
        # Drop references so cancelled timers don't pin packet objects alive
        # until the calendar entry is popped.
        self.fn = None
        self.args = ()
        self._sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} seq={self.seq} {state}>"


class RepeatingEvent:
    """A periodic callback rescheduled by the engine after every firing.

    Created via :meth:`Simulator.every`. The first tick fires one period
    after creation and ticks continue every ``period`` nanoseconds until
    :meth:`cancel` is called or the (inclusive) ``until`` horizon passes.
    Between firings exactly one calendar entry exists, so a cancelled
    repeater leaves at most one lazily-discarded calendar entry behind.
    """

    __slots__ = ("_sim", "period", "until", "_fn", "_handle", "cancelled")

    def __init__(self, sim, period: int,
                 fn: Callable[[], Any], until: Optional[int]) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._sim = sim
        self.period = period
        self.until = until
        self._fn = fn
        self._handle: Optional[EventHandle] = None
        self.cancelled = False
        self._schedule()

    def _schedule(self) -> None:
        t = self._sim.now + self.period
        if self.until is not None and t > self.until:
            return
        self._handle = self._sim.at(t, self._fire)

    def _fire(self) -> None:
        self._handle = None
        self._fn()
        # The callback may have cancelled us; only then skip rescheduling.
        if not self.cancelled:
            self._schedule()

    def cancel(self) -> None:
        """Stop ticking. Safe to call more than once, including from
        inside the callback itself."""
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
