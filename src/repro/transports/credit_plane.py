"""Batched jitter draws for credit pacing.

At 40 Gbps a single flow emits a credit every ~8.4 µs, and a 192-host Clos
at full load runs thousands of concurrent pacers, so the credit pacers
churn the event engine harder than the data plane they authorize. Two
things keep each emission cheap:

* **batched jitter draws** — each flow's :class:`CreditTrain` pre-draws
  ``BATCH`` jitter factors per refill from the flow's own RNG, in the same
  order as one draw per credit would.
* **cached base interval** — the invariant
  ``CREDIT_WIRE_BYTES * 8 * SECONDS / rate_bps`` base is re-derived only
  when the feedback loop actually changes ``rate_bps`` (the division is
  deterministic, so the cached value is the recomputed value).

The pacer itself (:class:`repro.transports.crediting.CreditPacer`, the
one credit emitter) and Homa's grant pump schedule each emission's
successor with handle-free ``Simulator.post``; each coarse watchdog is a
:class:`~repro.sim.timerwheel.CoarseTimer`, one calendar entry that a
later re-arm moves in place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.packet import CREDIT_WIRE_BYTES
from repro.sim.units import SECONDS

if TYPE_CHECKING:  # pragma: no cover
    import random

__all__ = ["CreditTrain"]


class CreditTrain:
    """Precomputed jittered credit intervals for one flow.

    Jitter factors are drawn ``BATCH`` at a time from the flow's own RNG —
    the draw *sequence* is identical to drawing one factor per credit (the
    scalar oracle in ``tests/test_timerwheel.py``). The base interval is
    cached per rate; a rate change re-derives it, which also re-prices
    every not-yet-consumed draw (intervals are computed one emission
    ahead, so the remaining train always reflects the live rate).
    """

    __slots__ = ("_rng", "_draws", "_idx", "_base_ns", "_base_rate")

    #: jitter draws per RNG refill
    BATCH = 32

    def __init__(self, jitter_rng: "random.Random") -> None:
        self._rng = jitter_rng
        self._draws: list = []
        self._idx = 0
        self._base_ns = 0.0
        self._base_rate = 0.0

    def next_interval_ns(self, rate_bps: float) -> int:
        """The next jittered inter-credit gap at the current feedback rate."""
        if rate_bps != self._base_rate:
            self._base_rate = rate_bps
            self._base_ns = CREDIT_WIRE_BYTES * 8 * SECONDS / rate_bps
        idx = self._idx
        draws = self._draws
        if idx >= len(draws):
            uniform = self._rng.uniform
            draws = [uniform(0.5, 1.5) for _ in range(self.BATCH)]
            self._draws = draws
            idx = 0
        self._idx = idx + 1
        return max(1, int(self._base_ns * draws[idx]))
