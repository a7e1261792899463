"""The heap-engine oracle for the event-engine tests.

``HeapSimulator`` is the classic ``heapq`` tuple-heap calendar that
:class:`repro.sim.calendar.CalendarSimulator` replaced. It implements the
same surface (``at``/``after``/``call_soon``/``post``/``post_at``/``every``/
``run``/``peek_time``/``pending``/``iter_pending``) and is kept, whole, as
the reference that ``tests/test_sim_engine_calendar.py`` runs randomized
scheduling programs against; nothing under ``src/`` imports it.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.sim.events import EventHandle, RepeatingEvent


class HeapSimulator:
    """A discrete-event simulator with an integer-nanosecond clock, backed
    by a ``heapq`` tuple heap (the reference engine for differential tests)."""

    #: between wall-clock checks, this many loop iterations run
    #: uninstrumented (iterations, not executed events: a purge of lazily
    #: cancelled entries must also keep feeding the watchdog)
    WALL_CHECK_INTERVAL = 4096

    #: compaction fires only once this many cancelled entries are buried in
    #: the heap *and* they make up at least half of it
    COMPACT_MIN_CANCELLED = 256

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, EventHandle]] = []
        self._now: int = 0
        self._seq: int = 0
        self._events_run: int = 0
        self._cancelled: int = 0  # cancelled entries still buried in the heap
        self._running = False
        self.aborted = False
        self.abort_reason = ""

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_run(self) -> int:
        """Number of events executed so far (for diagnostics)."""
        return self._events_run

    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute time ``time``.

        Scheduling in the past is a logic error and raises ``ValueError``.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule at t={time} ns; clock is already at {self._now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, fn, args, self)
        heapq.heappush(self._heap, (time, seq, handle))
        return handle

    def after(self, delay: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise ValueError(f"delay must be nonnegative, got {delay}")
        # Inlined ``at`` body: this is the hottest scheduling entry point and
        # an extra Python frame per packet/timer is measurable.
        t = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(t, seq, fn, args, self)
        heapq.heappush(self._heap, (t, seq, handle))
        return handle

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at the current instant (after current event)."""
        return self.at(self._now, fn, *args)

    def post(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule a *fire-and-forget* event after ``delay`` nanoseconds.

        Like :meth:`after` but returns no handle and cannot be cancelled:
        the heap entry is a plain ``(fn, args)`` tuple instead of an
        :class:`EventHandle`, which skips one object allocation per event.
        Packet deliveries and port serve events — the bulk of all events in
        a packet-forwarding run — are never cancelled, so they take this
        path. Use :meth:`after` for anything a timer might cancel.
        """
        if delay < 0:
            raise ValueError(f"delay must be nonnegative, got {delay}")
        t = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (t, seq, (fn, args)))

    def post_at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Absolute-time variant of :meth:`post` (see :meth:`at`)."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at t={time} ns; clock is already at {self._now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, (fn, args)))

    def every(self, period: int, fn: Callable[[], Any],
              until: Optional[int] = None) -> RepeatingEvent:
        """Schedule ``fn()`` every ``period`` nanoseconds, starting one
        period from now. With ``until``, the last tick is the largest
        multiple of ``period`` from now that is ≤ ``until`` (inclusive).
        Returns a :class:`RepeatingEvent` whose ``cancel()`` stops the
        cycle. Used by periodic samplers and housekeeping loops; per-packet
        work should keep using :meth:`post`.
        """
        return RepeatingEvent(self, period, fn, until)

    def _note_cancel(self) -> None:
        """Bookkeeping for a live heap entry turning cancelled."""
        self._cancelled += 1
        heap = self._heap
        if (self._cancelled >= self.COMPACT_MIN_CANCELLED
                and self._cancelled * 2 >= len(heap)):
            # In-place compaction (slice assignment) so a ``run`` loop holding
            # a local alias of the heap keeps seeing the same list object.
            heap[:] = [entry for entry in heap
                       if type(entry[2]) is tuple or not entry[2].cancelled]
            heapq.heapify(heap)
            self._cancelled = 0

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None,
            wall_clock_s: Optional[float] = None) -> int:
        """Run events until the heap drains, ``until`` is reached, or a
        watchdog budget (``max_events`` executed, ``wall_clock_s`` seconds
        of real time) is exhausted.

        Returns the number of events executed by this call. When ``until`` is
        given, the clock is advanced to ``until`` even if the heap drained
        earlier, so back-to-back ``run`` calls see a monotonic clock.

        Hitting a watchdog budget while live events remain sets ``aborted``
        and ``abort_reason`` — the hook runaway simulations are detected
        with (a finished run, even one cut at ``until``, is not an abort).
        Each call resets the flags.
        """
        if self._running:
            raise RuntimeError("Simulator.run is not reentrant")
        self._running = True
        self.aborted = False
        self.abort_reason = ""
        if until is None and max_events is None and wall_clock_s is None:
            return self._run_fast()
        if max_events is None and wall_clock_s is None:
            return self._run_until(until)
        return self._run_guarded(until, max_events, wall_clock_s)

    def _run_fast(self) -> int:
        """Drain the heap with no horizon and no watchdog — the hot path."""
        heap = self._heap
        heappop = heapq.heappop
        executed = 0
        try:
            while heap:
                t, _, ev = heappop(heap)
                if type(ev) is tuple:  # handle-free event (``post``)
                    self._now = t
                    fn, args = ev
                    fn(*args)
                    executed += 1
                    continue
                fn = ev.fn
                if fn is None:  # lazily-cancelled entry
                    self._cancelled -= 1
                    continue
                self._now = t
                args = ev.args
                ev.fn = None
                ev.args = ()
                fn(*args)
                executed += 1
        finally:
            self._events_run += executed
            self._running = False
        return executed

    def _run_until(self, until: int) -> int:
        """Horizon-only run: like :meth:`_run_fast` plus a single time check
        per event, with none of the watchdog bookkeeping."""
        heap = self._heap
        heappop = heapq.heappop
        executed = 0
        try:
            while heap:
                t, _, ev = heap[0]
                if t > until:
                    break
                if type(ev) is tuple:  # handle-free event (``post``)
                    heappop(heap)
                    self._now = t
                    fn, args = ev
                    fn(*args)
                    executed += 1
                    continue
                fn = ev.fn
                if fn is None:  # lazily-cancelled entry
                    heappop(heap)
                    self._cancelled -= 1
                    continue
                heappop(heap)
                self._now = t
                args = ev.args
                ev.fn = None
                ev.args = ()
                fn(*args)
                executed += 1
        finally:
            self._events_run += executed
            self._running = False
        if self._now < until:
            self._now = until
        return executed

    def _run_guarded(self, until: Optional[int], max_events: Optional[int],
                     wall_clock_s: Optional[float]) -> int:
        executed = 0
        iters = 0
        deadline = (time.monotonic() + wall_clock_s
                    if wall_clock_s is not None else None)
        # Keyed on loop iterations, not executed events: a cancel-dominated
        # heap spends its time in the purge branch, which executes nothing —
        # an executed-keyed check would never fire and the run could stall
        # past its wall budget unnoticed.
        next_wall_check = self.WALL_CHECK_INTERVAL
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap:
                t, _, ev = heap[0]
                plain = type(ev) is tuple
                purge = not plain and ev.fn is None
                if not purge:
                    if until is not None and t > until:
                        break
                    if max_events is not None and executed >= max_events:
                        self.aborted = True
                        self.abort_reason = (
                            f"watchdog: {executed} events executed "
                            f"(max_events={max_events})"
                        )
                        break
                iters += 1
                if deadline is not None and iters >= next_wall_check:
                    next_wall_check = iters + self.WALL_CHECK_INTERVAL
                    if time.monotonic() >= deadline:
                        self.aborted = True
                        self.abort_reason = (
                            f"watchdog: wall-clock budget {wall_clock_s:.3g}s "
                            f"exhausted after {executed} events"
                        )
                        break
                if purge:
                    heappop(heap)
                    self._cancelled -= 1
                    continue
                heappop(heap)
                self._now = t
                if plain:
                    fn, args = ev
                else:
                    fn, args = ev.fn, ev.args
                    ev.fn = None
                    ev.args = ()
                fn(*args)
                executed += 1
        finally:
            self._events_run += executed
            self._running = False
        if until is not None and self._now < until and not self.aborted:
            self._now = until
        return executed

    def peek_time(self) -> Optional[int]:
        """Time of the next pending event, or ``None`` if the heap is empty."""
        heap = self._heap
        while heap:
            ev = heap[0][2]
            if type(ev) is tuple or not ev.cancelled:
                break
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued. O(1)."""
        return len(self._heap) - self._cancelled

    def iter_pending(self) -> Iterator[Tuple[int, int, Any]]:
        """Iterate stored ``(time, seq, event)`` entries, lazily-cancelled
        ones included. Dispatch order is NOT implied (heap order)."""
        return iter(self._heap)
