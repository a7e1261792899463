"""Calendar-queue event engine: the default discrete-event scheduler.

The heap engine (:class:`repro.sim.engine.HeapSimulator`) pays a sift of the
whole calendar on every push and pop. Credit-based transports are uniquely
timer-heavy — ExpressPass-style pacing schedules one credit event per MTU per
flow — so that per-event ``heapq`` cost dominates the hot loop. This engine
replaces it with a three-tier calendar, cheapest structure first:

* **next-event slot** — the single soonest pending event lives in three
  scalar fields. Scheduling compares against the slot once; dispatch reads
  it without touching any container. Chained workloads (each event schedules
  its successor) never leave this tier, and never pay a heap sift.
* **active batch** — the bucket currently being drained, sorted once per
  drain into a plain list popped from the end (entries are stored key-negated
  so ascending C-tuple order puts the soonest event last). One ``list.sort``
  amortizes the ordering cost over the whole bucket instead of one sift per
  event. Events scheduled into the region still being drained are placed by
  ``bisect.insort`` — C code, and an append when they land at the batch tail.
* **future buckets** — fixed-width buckets (``2**bucket_bits`` ns) held in a
  dict keyed by bucket id, with a small overflow heap of *bucket ids* (not
  events) deciding which bucket drains next. Scheduling into the future is an
  O(1) list append; a far-future timer costs one heap push of an int only
  when it opens a new bucket.

Ordering guarantees are identical to the heap engine, and are enforced by a
differential property test against it (``tests/test_sim_engine_calendar.py``)
plus the audit subsystem's replay-digest matrix:

* events fire in nondecreasing time order;
* events scheduled for the same instant fire in FIFO scheduling order
  (a monotonically increasing sequence number breaks ties).

Cancellation stays lazy (a cancelled handle is skipped at dispatch), with the
same compaction rule as the heap engine: when cancelled entries reach
``COMPACT_MIN_CANCELLED`` and at least half of everything stored, every tier
is filtered in place so cancel-heavy timer workloads cannot grow the calendar
unboundedly.
"""

from __future__ import annotations

import time
from bisect import insort
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.sim.events import EventHandle, RepeatingEvent

#: allocate EventHandle without the ``__init__`` frame — the handle fields
#: are stored inline at the (hot) scheduling sites instead.
_new_handle = EventHandle.__new__


class CalendarSimulator:
    """A discrete-event simulator with an integer-nanosecond clock, backed
    by a calendar queue (next-event slot + bucketed batches + id heap)."""

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
        # --- tier 1: the next-event slot (global minimum when non-empty)
        self._slot_t: Optional[int] = None
        self._slot_seq: int = 0
        self._slot_ev: Any = None
        # --- tier 2: the active batch, key-negated ascending (soonest last)
        self._active: List[Tuple[int, int, Any]] = []
        # --- tier 3: future buckets + the id heap deciding drain order
        self._buckets: Dict[int, List[Tuple[int, int, Any]]] = {}
        self._bucket_ids: List[int] = []
        #: entries with bucket id <= _cur_b belong to the active batch
        self._cur_b: int = -1

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
        st = self._slot_t
        if st is None:
            self._slot_t = time
            self._slot_seq = seq
            self._slot_ev = handle
        elif time < st:
            self._store(st, self._slot_seq, self._slot_ev)
            self._slot_t = time
            self._slot_seq = seq
            self._slot_ev = handle
        else:
            self._store(time, seq, handle)
        return handle

    def after(self, delay: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise ValueError(f"delay must be nonnegative, got {delay}")
        # Fully inlined: this is the hottest cancellable entry point and an
        # extra Python frame per timer is measurable.
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
        st = self._slot_t
        if st is None:
            self._slot_t = t
            self._slot_seq = seq
            self._slot_ev = handle
            return handle
        if t < st:
            self._store(st, self._slot_seq, self._slot_ev)
            self._slot_t = t
            self._slot_seq = seq
            self._slot_ev = handle
            return handle
        b = t >> self._bits
        if b <= self._cur_b:
            insort(self._active, (-t, -seq, handle))
            return handle
        lst = self._buckets.get(b)
        if lst is None:
            self._buckets[b] = [(-t, -seq, handle)]
            heappush(self._bucket_ids, b)
        else:
            lst.append((-t, -seq, handle))
        return handle

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at the current instant (after current event)."""
        return self.at(self._now, fn, *args)

    def post(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule a *fire-and-forget* event after ``delay`` nanoseconds.

        Like :meth:`after` but returns no handle and cannot be cancelled:
        the calendar entry is a plain ``(fn, args)`` tuple instead of an
        :class:`EventHandle`, which skips one object allocation per event.
        Packet deliveries and port serve events — the bulk of all events in
        a packet-forwarding run — are never cancelled, so they take this
        path. Use :meth:`after` for anything a timer might cancel.
        """
        t = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        st = self._slot_t
        if st is None:
            self._slot_t = t
            self._slot_seq = seq
            self._slot_ev = (fn, args)
            return
        if t < st:
            self._store(st, self._slot_seq, self._slot_ev)
            self._slot_t = t
            self._slot_seq = seq
            self._slot_ev = (fn, args)
            return
        b = t >> self._bits
        if b <= self._cur_b:
            insort(self._active, (-t, -seq, (fn, args)))
            return
        lst = self._buckets.get(b)
        if lst is None:
            self._buckets[b] = [(-t, -seq, (fn, args))]
            heappush(self._bucket_ids, b)
        else:
            lst.append((-t, -seq, (fn, args)))

    def post_at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Absolute-time variant of :meth:`post` (see :meth:`at`)."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at t={time} ns; clock is already at "
                f"{self._now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        st = self._slot_t
        if st is None:
            self._slot_t = time
            self._slot_seq = seq
            self._slot_ev = (fn, args)
        elif time < st:
            self._store(st, self._slot_seq, self._slot_ev)
            self._slot_t = time
            self._slot_seq = seq
            self._slot_ev = (fn, args)
        else:
            self._store(time, seq, (fn, args))

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

    def _store(self, t: int, seq: int, ev: Any) -> None:
        """File an entry that is *not* the global minimum into its tier."""
        b = t >> self._bits
        if b <= self._cur_b:
            # The bucket being drained (or an instant the drain region has
            # already reached): keep the active batch sorted.
            insort(self._active, (-t, -seq, ev))
            return
        lst = self._buckets.get(b)
        if lst is None:
            self._buckets[b] = [(-t, -seq, ev)]
            heappush(self._bucket_ids, b)
        else:
            lst.append((-t, -seq, ev))

    # ------------------------------------------------------------ refill

    def _advance_slot(self) -> None:
        """Refill the slot when the active batch is empty: pop the next
        non-empty bucket, sort it into dispatch order, make it active."""
        ids = self._bucket_ids
        buckets = self._buckets
        while ids:
            b = heappop(ids)
            lst = buckets.pop(b, None)
            if lst is None:
                continue  # stale id: the bucket was emptied by compaction
            self._cur_b = b
            if len(lst) > 1:
                lst.sort()
            e = lst.pop()
            self._active = lst
            self._slot_t = -e[0]
            self._slot_seq = -e[1]
            self._slot_ev = e[2]
            return
        self._slot_t = None
        self._slot_ev = None

    def _refill_slot(self) -> None:
        """Move the next pending entry (if any) into the slot."""
        active = self._active
        if active:
            e = active.pop()
            self._slot_t = -e[0]
            self._slot_seq = -e[1]
            self._slot_ev = e[2]
        else:
            self._advance_slot()

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
        """Entries held across all tiers, cancelled ones included."""
        n = len(self._active) + (self._slot_t is not None)
        buckets = self._buckets
        if buckets:
            n += sum(map(len, buckets.values()))
        return n

    def _compact(self) -> None:
        """Drop cancelled entries from every tier (the slot purges itself
        on dispatch). In-place slice assignment keeps a run loop's local
        alias of the active batch valid."""
        live = lambda e: type(e[2]) is tuple or not e[2].cancelled  # noqa: E731
        active = self._active
        active[:] = [e for e in active if live(e)]
        buckets = self._buckets
        for b in list(buckets):
            lst = buckets[b]
            lst[:] = [e for e in lst if live(e)]
            if not lst:
                # The stale id stays in the id heap; _advance_slot skips it.
                del buckets[b]
        ev = self._slot_ev
        self._cancelled = int(ev is not None and type(ev) is not tuple
                              and ev.cancelled)

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
        if until is None and max_events is None and wall_clock_s is None:
            return self._run_fast()
        if max_events is None and wall_clock_s is None:
            return self._run_until(until)
        return self._run_guarded(until, max_events, wall_clock_s)

    def _run_fast(self) -> int:
        """Drain the calendar with no horizon and no watchdog — the hot path."""
        executed = 0
        try:
            active = self._active
            while True:
                t = self._slot_t
                if t is None:
                    break
                ev = self._slot_ev
                # Inline slot refill (the method-call version costs ~15% on
                # chained workloads). The local alias can only go stale
                # empty: _advance_slot is the sole rebinder of _active and
                # runs only when the batch is drained, so a non-empty local
                # is always the live list.
                if active:
                    e = active.pop()
                    self._slot_t = -e[0]
                    self._slot_seq = -e[1]
                    self._slot_ev = e[2]
                else:
                    active = self._active  # resync a stale (empty) alias
                    if active:
                        e = active.pop()
                        self._slot_t = -e[0]
                        self._slot_seq = -e[1]
                        self._slot_ev = e[2]
                    elif self._bucket_ids:
                        self._advance_slot()
                        active = self._active
                    else:
                        self._slot_t = None
                        self._slot_ev = None
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
        executed = 0
        try:
            active = self._active
            while True:
                t = self._slot_t
                if t is None or t > until:
                    break
                ev = self._slot_ev
                if active:
                    e = active.pop()
                    self._slot_t = -e[0]
                    self._slot_seq = -e[1]
                    self._slot_ev = e[2]
                else:
                    active = self._active
                    if active:
                        e = active.pop()
                        self._slot_t = -e[0]
                        self._slot_seq = -e[1]
                        self._slot_ev = e[2]
                    elif self._bucket_ids:
                        self._advance_slot()
                        active = self._active
                    else:
                        self._slot_t = None
                        self._slot_ev = None
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
        if self._now < until:
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
        # wall-clock check (see the heap engine for the original bug).
        next_wall_check = self.WALL_CHECK_INTERVAL
        try:
            while True:
                t = self._slot_t
                if t is None:
                    break
                ev = self._slot_ev
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
                    self._cancelled -= 1
                    self._refill_slot()
                    continue
                self._refill_slot()
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

    # ------------------------------------------------------------ queries

    def peek_time(self) -> Optional[int]:
        """Time of the next pending event, or ``None`` if the calendar is
        empty. Cancelled entries at the front are purged on the way."""
        while True:
            t = self._slot_t
            if t is None:
                return None
            ev = self._slot_ev
            if type(ev) is tuple or not ev.cancelled:
                return t
            self._cancelled -= 1
            self._refill_slot()

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._stored() - self._cancelled

    def iter_pending(self) -> Iterator[Tuple[int, int, Any]]:
        """Iterate stored ``(time, seq, event)`` entries across all tiers,
        lazily-cancelled ones included (callers skip them, exactly as they
        skipped cancelled heap entries). Dispatch order is NOT implied."""
        if self._slot_t is not None:
            yield (self._slot_t, self._slot_seq, self._slot_ev)
        for e in self._active:
            yield (-e[0], -e[1], e[2])
        for lst in self._buckets.values():
            for e in lst:
                yield (-e[0], -e[1], e[2])
