"""Hierarchical timer wheel: O(1) arm/cancel for coarse, cancel-heavy timers.

Credit-based transports churn two very different timer populations through
the event engine:

* **dense short-period timers** — one credit/grant emission per MTU per flow
  (~8.4 µs at 40 Gbps). These are never cancelled in steady state; the
  pacers schedule them with handle-free ``Simulator.post`` and generation
  guards (:mod:`repro.transports.crediting`), not through this wheel.
* **coarse watchdog timers** — RTO-class retransmission timers (4 ms floor),
  Homa's regrant/announce retries, credit-request timeouts. These are
  *re-armed constantly* (every ACK pushes the retransmission deadline out)
  but almost never fire. Through ``Simulator.after`` each arm would cost an
  :class:`~repro.sim.events.EventHandle` allocation plus a calendar entry,
  and the lazily-cancelled entries would pressure the engine's compaction
  machinery.

The wheel absorbs the second population. Arming appends a
:class:`WheelTimer` to a bucket list (O(1)); cancelling flips a flag (O(1),
no engine traffic at all). The engine only hears about the wheel through
**one meta-event per non-empty wheel tick** (``post_at`` at the tick
boundary): when the meta-event fires it walks the due bucket, discards
cancelled timers, re-files survivors whose deadline lies past this tick
(the hierarchical cascade), and ``post_at``-schedules genuinely due timers
at their *exact* deadlines — wheel granularity never rounds a firing time.
A :class:`CoarseTimer` re-armed later only moves its filed deadline.

Ordering caveat. Firing instants are exact, but a timer takes its engine
sequence number at a tick meta-event, and one moved in place joins its new
bucket when re-filed, not when re-armed. So a same-nanosecond tie between
a re-filed timer and other events may dispatch in another order. RTO-class
timers fire at estimator-derived instants where such ties do not arise in
practice (no benchmark workload or golden cell fires a timeout at all).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional


class WheelTimer:
    """One pending wheel timer. Cancel is a flag flip — no engine traffic."""

    __slots__ = ("deadline", "fn", "args", "cancelled", "posted")

    def __init__(self, deadline: int, fn: Callable[..., Any], args: tuple) -> None:
        self.deadline = deadline
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False
        self.posted = False  # handed to the engine: deadline is final

    def cancel(self) -> None:
        """Prevent the timer from firing. Safe to call repeatedly and after
        the timer has fired (a no-op then)."""
        if self.cancelled or self.fn is None:
            return
        self.cancelled = True
        # Drop references so a cancelled timer doesn't pin its callback's
        # packets/flows alive until the bucket drains.
        self.fn = None
        self.args = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<WheelTimer deadline={self.deadline} {state}>"


class TimerWheel:
    """Hierarchical timer wheel slotted onto the event engine.

    Level ``L`` buckets deadlines by ``deadline >> (tick_bits + L*level_bits)``
    — level 0 ticks are ``2**tick_bits`` ns wide, each higher level is
    ``2**level_bits`` times coarser. A timer is filed at the coarsest level
    whose tick still *precedes* its deadline seen from now, so one cascade
    step per level refines it until level 0 fires it exactly. Buckets are
    plain dict-of-list (sparse: an idle wheel stores nothing and schedules
    nothing), and the engine carries exactly one ``post_at`` meta-event per
    non-empty tick, guarded by a time stamp so superseded meta-events fire
    as cheap no-ops (the engine's handle-free idiom).
    """

    #: level-0 tick width exponent: 2**16 ns = ~65.5 µs. Coarse enough that
    #: a 4 ms RTO sits ~61 ticks out (no meta-event churn), fine enough
    #: that a level-0 bucket holds only timers due within one tick.
    TICK_BITS = 16

    #: each level is 2**6 = 64x coarser; 3 levels span ~4.2 ms / ~268 ms /
    #: ~17 s per tick — RTO backoff up to the 1 s max lands in level 2.
    LEVEL_BITS = 6
    LEVELS = 3

    def __init__(self, sim, tick_bits: Optional[int] = None,
                 level_bits: Optional[int] = None,
                 levels: Optional[int] = None) -> None:
        self.sim = sim
        self._tick_bits = self.TICK_BITS if tick_bits is None else tick_bits
        self._level_bits = self.LEVEL_BITS if level_bits is None else level_bits
        self._levels = self.LEVELS if levels is None else levels
        if self._tick_bits < 0 or self._level_bits < 1 or self._levels < 1:
            raise ValueError("tick_bits >= 0, level_bits >= 1, levels >= 1")
        #: per-level shift: deadline >> shift = bucket id at that level
        self._shifts = [self._tick_bits + lvl * self._level_bits
                        for lvl in range(self._levels)]
        #: per-level bucket id -> timers (sparse)
        self._buckets: List[Dict[int, List[WheelTimer]]] = [
            {} for _ in range(self._levels)
        ]
        #: earliest meta-event currently scheduled (None = wheel idle)
        self._meta_at: Optional[int] = None
        self.armed_total = 0
        self.fired_total = 0
        self.cancelled_total = 0
        self.cascades = 0

    # ------------------------------------------------------------ registry

    @classmethod
    def for_sim(cls, sim) -> "TimerWheel":
        """The simulator's shared wheel (created on first use)."""
        wheel = getattr(sim, "_timer_wheel", None)
        if wheel is None:
            wheel = cls(sim)
            sim._timer_wheel = wheel
        return wheel

    # ----------------------------------------------------------------- API

    def arm(self, delay: int, fn: Callable[..., Any], *args: Any) -> WheelTimer:
        """Schedule ``fn(*args)`` after ``delay`` ns; returns the timer."""
        if delay < 0:
            raise ValueError(f"delay must be nonnegative, got {delay}")
        now = self.sim._now
        deadline = now + delay
        timer = WheelTimer(deadline, fn, args)
        self.armed_total += 1
        self._file(timer, now)
        return timer

    def release(self) -> None:
        """Cancel every filed timer and drop the buckets, ending the run's
        wheel. An armed timer's callback refers to its owner, which refers
        back to the timer, so cancelling (which drops the callback) is
        what lets reference counting free the owner."""
        for level in self._buckets:
            for lst in level.values():
                for timer in lst:
                    timer.cancel()
            level.clear()
        self._meta_at = None

    def pending(self) -> int:
        """Live (non-cancelled) timers still filed in the wheel."""
        return sum(
            sum(1 for t in lst if not t.cancelled)
            for level in self._buckets for lst in level.values()
        )

    # ------------------------------------------------------------ internal

    def _file(self, timer: WheelTimer, now: int) -> None:
        """File at the coarsest level whose current tick is still *before*
        the timer's tick — guaranteeing the bucket's meta-event precedes the
        deadline — falling back to the engine for same-tick deadlines."""
        deadline = timer.deadline
        for lvl in range(self._levels - 1, -1, -1):
            shift = self._shifts[lvl]
            if (deadline >> shift) > (now >> shift):
                break
        else:
            lvl = -1
        if lvl < 0:
            # Deadline inside the current level-0 tick: the wheel cannot
            # examine it in time, so hand it straight to the engine (its
            # exact-deadline firing path, skipping the bucket stage).
            timer.posted = True
            self.sim.post_at(deadline, self._fire_one, timer)
            return
        shift = self._shifts[lvl]
        b = deadline >> shift
        buckets = self._buckets[lvl]
        lst = buckets.get(b)
        if lst is None:
            buckets[b] = [timer]
            # The bucket's examination instant: its first covered nanosecond
            # (for level 0 every deadline in the bucket is >= it; for higher
            # levels it is the cascade point).
            self._ensure_meta(b << shift)
        else:
            lst.append(timer)

    def _ensure_meta(self, due: int) -> None:
        """Guarantee a meta-event at ``due`` (keeping only the earliest)."""
        meta = self._meta_at
        if meta is not None and meta <= due:
            return
        self._meta_at = due
        self.sim.post_at(due, self._on_meta, due)

    def _on_meta(self, stamp: int) -> None:
        if stamp != self._meta_at:
            return  # superseded by an earlier meta-event; cheap no-op
        self._meta_at = None
        now = self.sim._now
        sim_post_at = self.sim.post_at
        # Drain every bucket whose examination instant has been reached,
        # finest level first so cascaded timers can still make this tick.
        for lvl in range(self._levels):
            shift = self._shifts[lvl]
            buckets = self._buckets[lvl]
            if not buckets:
                continue
            cur = now >> shift
            due_ids = [b for b in buckets if b <= cur]
            for b in due_ids:
                for timer in buckets.pop(b):
                    if timer.cancelled:
                        self.cancelled_total += 1
                        continue
                    if (timer.deadline >> self._tick_bits) > (
                            now >> self._tick_bits):
                        # Far survivor or moved deadline: refile (picks the
                        # right level; never this bucket again since its
                        # tick id at this level is no longer ahead of now).
                        self.cascades += 1
                        self._file(timer, now)
                    else:
                        # Due this tick: fire at the exact deadline.
                        timer.posted = True
                        sim_post_at(timer.deadline, self._fire_one, timer)
        # Re-arm for the earliest remaining bucket across all levels.
        nxt: Optional[int] = None
        for lvl in range(self._levels):
            buckets = self._buckets[lvl]
            if buckets:
                shift = self._shifts[lvl]
                first = min(buckets) << shift
                if nxt is None or first < nxt:
                    nxt = first
        if nxt is not None:
            self._ensure_meta(max(nxt, now))

    def _fire_one(self, timer: WheelTimer) -> None:
        fn = timer.fn
        if fn is None:  # cancelled between filing and firing
            self.cancelled_total += 1
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
    stops, ``armed`` tells. No arm or cancel touches the engine; a later
    re-arm moves it.

    The callback comes with each arm and lives only in the armed
    :class:`WheelTimer`, which drops it on firing or cancelling. So the
    timer never refers to its owner: while idle, the owner and its timer
    form no reference cycle, and a finished endpoint is freed by
    reference counting (DESIGN.md §5, "State lifetime").
    """

    __slots__ = ("_wheel", "_timer")

    def __init__(self, sim) -> None:
        self._wheel = TimerWheel.for_sim(sim)
        #: the last wheel timer filed; it holds a callback while armed
        self._timer: Optional[WheelTimer] = None

    @property
    def armed(self) -> bool:
        timer = self._timer
        return timer is not None and timer.fn is not None

    def arm(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """(Re)start the timer: ``fn(*args)`` runs ``delay`` ns from now."""
        timer = self._timer
        deadline = self._wheel.sim._now + delay
        if (timer is not None and timer.fn is not None and not timer.posted
                and deadline >= timer.deadline):
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
