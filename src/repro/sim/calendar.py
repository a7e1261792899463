"""Calendar-queue event engine: the default discrete-event scheduler.

A ``heapq`` of events pays a sift of the whole calendar on every push and
pop. Credit-based transports are uniquely timer-heavy — ExpressPass-style
pacing schedules one credit event per MTU per flow, so thousands of entries
are always waiting — and that per-event ``heapq`` cost would dominate the hot
loop. This engine is a one-tier calendar:

* **future buckets** — fixed-width buckets (``2**bucket_bits`` ns) held in a
  dict keyed by bucket id, with a small heap of *bucket ids* (not events)
  deciding which bucket drains next. Scheduling into the future is an O(1)
  list append; a far-future timer costs one heap push of an int only when it
  opens a new bucket.
* **active batch** — the bucket being drained, sorted once per drain and
  popped from the end (entries are stored key-negated so ascending C-tuple
  order puts the soonest event last). One ``list.sort`` amortizes the
  ordering cost over the whole bucket instead of one sift per event. Events
  scheduled into the region already being drained are placed by
  ``bisect.insort`` — C code, and an append when they land at the batch tail.

Every entry is one flat tuple, ``(-t, -seq, fn, arg)`` for a fire-and-forget
event or ``(-t, -seq, None, handle)`` for a cancellable one, so ``post``
allocates a single tuple and dispatch is ``pop`` then ``fn(arg)``: a posted
event carries one argument (the packet of a delivery) or ``None``, never an
argument tuple, which cancellable events keep in their handle. There is
no next-event slot in front of the batch: with thousands of entries stored
the next event is already the batch's tail, and a slot costs three attribute
writes per dispatch and a compare per schedule to keep up (DESIGN.md §6h has
the numbers).

The ordering guarantees are those of one event list kept sorted by
``(time, seq)``, and are enforced by a differential property test against
exactly that list (the reference engine of
``tests/test_sim_engine_calendar.py``, itself held by the ``calendar-*``
mutants of ``tests/mutants/``) plus the audit subsystem's replay-digest
matrix:

* events fire in nondecreasing time order;
* events scheduled for the same instant fire in FIFO scheduling order
  (a monotonically increasing sequence number breaks ties).

Cancellation is lazy (a cancelled handle is skipped at dispatch), with one
compaction rule: when cancelled entries reach
``COMPACT_MIN_CANCELLED`` and at least half of everything stored, the batch
and the buckets are filtered in place so cancel-heavy timer workloads cannot
grow the calendar unboundedly.

``run`` raises the garbage collector's gen-0 threshold to ``RUN_GC_GEN0`` for
its own duration. Calendar entries are container tuples that by design
outlive a young collection, so at the default threshold the collector
re-scans the live calendar every 700 allocations and frees nothing.
"""

from __future__ import annotations

import gc
import time
from bisect import insort
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.sim.events import EventHandle, RepeatingEvent

#: allocate EventHandle without the ``__init__`` frame — the handle fields
#: are stored inline at the (hot) scheduling sites instead.
_new_handle = EventHandle.__new__

#: gen-0 threshold (container allocations between young collections) while
#: ``run`` drains the calendar; the interpreter default is 700
RUN_GC_GEN0 = 50_000

#: negated horizon of a run without ``until``: no entry's ``-t`` is below it
_NO_HORIZON = float("-inf")

#: ``(-t, -seq, fn, arg)``, or ``(-t, -seq, None, EventHandle)``
_Entry = Tuple[int, int, Optional[Callable[..., Any]], Any]


class CalendarSimulator:
    """A discrete-event simulator with an integer-nanosecond clock, backed
    by a calendar queue (bucketed batches + a heap of bucket ids)."""

    #: between wall-clock checks, this many loop iterations run
    #: uninstrumented (iterations, not executed events: a purge of lazily
    #: cancelled entries must also keep feeding the watchdog)
    WALL_CHECK_INTERVAL = 4096

    #: compaction fires only once this many cancelled entries are buried in
    #: the calendar *and* they make up at least half of it
    COMPACT_MIN_CANCELLED = 256

    #: default bucket width exponent: 2**10 ns = ~1 us per bucket.
    #: Swept on the four benchmark workloads (DESIGN.md §6h). An event
    #: scheduled into the bucket being drained costs an ``insort`` whose
    #: memmove grows with the bucket, and at 192 hosts a 16 us bucket holds
    #: ~28k events; below ~1 us the per-bucket sort+advance overhead wins.
    BUCKET_BITS = 10

    def __init__(self, bucket_bits: Optional[int] = None) -> None:
        if bucket_bits is None:
            bucket_bits = self.BUCKET_BITS
        if bucket_bits < 0:
            raise ValueError(f"bucket_bits must be >= 0, got {bucket_bits}")
        self._bits = bucket_bits
        self._now: int = 0
        self._seq: int = 0
        self._events_run: int = 0
        self._cancelled: int = 0  # cancelled entries still stored
        self._running = False
        self.aborted = False
        self.abort_reason = ""
        #: the active batch, key-negated ascending (soonest last). The list
        #: is never rebound, so a run loop's local alias stays the live one.
        self._active: List[_Entry] = []
        #: future buckets + the id heap deciding drain order
        self._buckets: Dict[int, List[_Entry]] = {}
        self._bucket_ids: List[int] = []
        #: entries with bucket id <= _cur_b belong to the active batch
        self._cur_b: int = -1
        #: the shared coarse-timer wheel (``TimerWheel.for_sim`` makes it)
        self._timer_wheel = None

    # --------------------------------------------------------- properties

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_run(self) -> int:
        """Number of events executed so far (for diagnostics)."""
        return self._events_run

    # --------------------------------------------------------- scheduling

    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute time ``time``.

        Scheduling in the past is a logic error and raises ``ValueError``.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule at t={time} ns; clock is already at "
                f"{self._now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = _new_handle(EventHandle)
        handle.time = time
        handle.seq = seq
        handle.fn = fn
        handle.args = args
        handle.cancelled = False
        handle._sim = self
        # Filing, inlined at all four entry points (a shared helper costs a
        # Python frame per event). Bucket ids up to _cur_b are the region
        # being drained: keep the active batch sorted. Later ones append.
        b = time >> self._bits
        if b <= self._cur_b:
            insort(self._active, (-time, -seq, None, handle))
            return handle
        lst = self._buckets.get(b)
        if lst is None:
            self._buckets[b] = [(-time, -seq, None, handle)]
            heappush(self._bucket_ids, b)
        else:
            lst.append((-time, -seq, None, handle))
        return handle

    def after(self, delay: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise ValueError(f"delay must be nonnegative, got {delay}")
        t = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = _new_handle(EventHandle)
        handle.time = t
        handle.seq = seq
        handle.fn = fn
        handle.args = args
        handle.cancelled = False
        handle._sim = self
        b = t >> self._bits
        if b <= self._cur_b:
            insort(self._active, (-t, -seq, None, handle))
            return handle
        lst = self._buckets.get(b)
        if lst is None:
            self._buckets[b] = [(-t, -seq, None, handle)]
            heappush(self._bucket_ids, b)
        else:
            lst.append((-t, -seq, None, handle))
        return handle

    def post(self, delay: int, fn: Callable[[Any], Any], arg: Any = None) -> None:
        """Schedule a *fire-and-forget* ``fn(arg)`` after ``delay`` ns.

        Like :meth:`after` but returns no handle, cannot be cancelled and
        carries exactly one argument: the calendar entry holds ``fn`` and
        ``arg`` themselves instead of an :class:`EventHandle` or an
        argument tuple. Packet deliveries and port serve events — the bulk
        of all events in a packet-forwarding run — are never cancelled and
        take one argument (the packet) or none (``arg`` stays ``None`` and
        the callback ignores it), so they take this path. Use :meth:`after`
        for anything a timer might cancel or that needs more arguments.
        """
        if delay < 0:
            raise ValueError(f"delay must be nonnegative, got {delay}")
        t = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        b = t >> self._bits
        if b <= self._cur_b:
            insort(self._active, (-t, -seq, fn, arg))
            return
        lst = self._buckets.get(b)
        if lst is None:
            self._buckets[b] = [(-t, -seq, fn, arg)]
            heappush(self._bucket_ids, b)
        else:
            lst.append((-t, -seq, fn, arg))

    def post_at(self, time: int, fn: Callable[[Any], Any], arg: Any = None) -> None:
        """Absolute-time variant of :meth:`post` (see :meth:`at`)."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at t={time} ns; clock is already at "
                f"{self._now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        b = time >> self._bits
        if b <= self._cur_b:
            insort(self._active, (-time, -seq, fn, arg))
            return
        lst = self._buckets.get(b)
        if lst is None:
            self._buckets[b] = [(-time, -seq, fn, arg)]
            heappush(self._bucket_ids, b)
        else:
            lst.append((-time, -seq, fn, arg))

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

    def _advance(self) -> bool:
        """With the active batch empty: pop the next non-empty bucket, sort
        it into dispatch order and make it the batch. False when no bucket
        is left, i.e. the calendar is empty."""
        ids = self._bucket_ids
        buckets = self._buckets
        while ids:
            b = heappop(ids)
            lst = buckets.pop(b, None)
            if lst is None:
                continue  # stale id: the bucket was emptied by compaction
            self._cur_b = b
            lst.sort()
            self._active.extend(lst)
            return True
        return False

    # ------------------------------------------------------ cancellation

    def _note_cancel(self) -> None:
        """Bookkeeping for a stored entry turning cancelled."""
        self._cancelled += 1
        if self._cancelled < self.COMPACT_MIN_CANCELLED:
            return
        if self._cancelled * 2 < self._stored():
            return
        self._compact()

    def _stored(self) -> int:
        """Entries held in the batch and the buckets, cancelled included."""
        return len(self._active) + sum(map(len, self._buckets.values()))

    def _compact(self) -> None:
        """Drop cancelled entries from the batch and every bucket, in place
        (the active batch is never rebound)."""
        for lst in (self._active, *self._buckets.values()):
            lst[:] = [e for e in lst
                      if e[2] is not None or not e[3].cancelled]
        # Stale ids stay in the id heap; _advance skips them.
        self._buckets = {b: lst for b, lst in self._buckets.items() if lst}
        self._cancelled = 0

    # ------------------------------------------------------------- running

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None,
            wall_clock_s: Optional[float] = None) -> int:
        """Run events until the calendar drains, ``until`` is reached, or a
        watchdog budget (``max_events`` executed, ``wall_clock_s`` seconds
        of real time) is exhausted.

        Returns the number of events executed by this call. When ``until`` is
        given, the clock is advanced to ``until`` even if the calendar drained
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
        thresholds = gc.get_threshold()
        if 0 < thresholds[0] < RUN_GC_GEN0:  # 0 means the collector is off
            gc.set_threshold(RUN_GC_GEN0, *thresholds[1:])
        try:
            if max_events is None and wall_clock_s is None:
                return self._run_until(until)
            return self._run_guarded(until, max_events, wall_clock_s)
        finally:
            gc.set_threshold(*thresholds)
            self._running = False

    def _run_until(self, until: Optional[int]) -> int:
        """Drain up to the horizon (if any) with none of the watchdog
        bookkeeping — the hot path."""
        stop = _NO_HORIZON if until is None else -until
        active = self._active
        advance = self._advance
        executed = 0
        try:
            while active or advance():
                e = active.pop()
                if e[0] < stop:  # -t < -until: beyond the horizon
                    active.append(e)
                    break
                fn = e[2]
                if fn is not None:  # handle-free event (``post``)
                    self._now = -e[0]
                    fn(e[3])
                    executed += 1
                    continue
                ev = e[3]
                fn = ev.fn
                if fn is None:  # lazily-cancelled entry
                    self._cancelled -= 1
                    continue
                self._now = -e[0]
                args = ev.args
                ev.fn = None
                ev.args = ()
                fn(*args)
                executed += 1
        finally:
            self._events_run += executed
        if until is not None and self._now < until:
            self._now = until
        return executed

    def _run_guarded(self, until: Optional[int], max_events: Optional[int],
                     wall_clock_s: Optional[float]) -> int:
        executed = 0
        iters = 0
        deadline = (time.monotonic() + wall_clock_s
                    if wall_clock_s is not None else None)
        # Keyed on loop iterations, not executed events: a purge of lazily
        # cancelled entries executes nothing yet must still reach the
        # wall-clock check (TestWatchdogStalledPurge holds it).
        next_wall_check = self.WALL_CHECK_INTERVAL
        active = self._active
        try:
            while active or self._advance():
                e = active[-1]
                t = -e[0]
                fn = e[2]
                purge = fn is None and e[3].fn is None
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
                active.pop()
                if purge:
                    self._cancelled -= 1
                    continue
                self._now = t
                if fn is None:
                    ev = e[3]
                    fn, args = ev.fn, ev.args
                    ev.fn = None
                    ev.args = ()
                    fn(*args)
                else:
                    fn(e[3])
                executed += 1
        finally:
            self._events_run += executed
        if until is not None and self._now < until and not self.aborted:
            self._now = until
        return executed

    def release(self) -> None:
        """Drop every pending entry and the timer wheel, ending the run's
        calendar. Each handle's ``fn`` and ``args`` are cleared as dispatch
        clears them, and every armed wheel timer (each is one posted
        entry) is cancelled: an armed handle or timer and its owner (a
        port's wake, a sender's RTO) are a reference cycle. The clock and
        ``events_run`` stay readable."""
        wheel = self._timer_wheel
        fire_one = None if wheel is None else wheel._fire_one
        for lst in (self._active, *self._buckets.values()):
            for e in lst:
                if e[2] is None:
                    e[3].fn = None
                    e[3].args = ()
                elif e[2] == fire_one:
                    e[3].cancel()
        self._active.clear()
        self._buckets.clear()
        self._bucket_ids.clear()
        self._cancelled = 0
        self._timer_wheel = None  # the wheel refers back to this simulator

    # ------------------------------------------------------------ queries

    def peek_time(self) -> Optional[int]:
        """Time of the next pending event, or ``None`` if the calendar is
        empty. Cancelled entries at the front are purged on the way."""
        active = self._active
        while active or self._advance():
            e = active[-1]
            if e[2] is not None or not e[3].cancelled:
                return -e[0]
            active.pop()
            self._cancelled -= 1
        return None

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._stored() - self._cancelled

    def iter_pending(self) -> Iterator[Tuple[int, int, Any]]:
        """Iterate stored ``(time, seq, event)`` entries, ``event`` being an
        :class:`EventHandle` or a ``(fn, args)`` tuple (a posted entry's one
        argument as a 1-tuple); lazily-cancelled ones are included (callers
        skip them, exactly as they skipped cancelled heap entries).
        Dispatch order is NOT implied."""
        for lst in (self._active, *self._buckets.values()):
            for nt, nseq, fn, arg in lst:
                yield (-nt, -nseq, arg if fn is None else (fn, (arg,)))
