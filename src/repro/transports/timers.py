"""RTT estimation and retransmission timers (RFC 6298 with a floor).

The paper sets RTO_min to 4 ms for kernel TCP / DCTCP in both testbed and
simulation; the reactive machinery here uses the same default.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.sim.timerwheel import CoarseTimer
from repro.sim.units import MILLIS, SECONDS

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class RttEstimator:
    """Jacobson/Karels smoothed RTT with a minimum RTO clamp."""

    __slots__ = ("srtt", "rttvar", "min_rto_ns", "max_rto_ns")

    def __init__(self, min_rto_ns: int = 4 * MILLIS, max_rto_ns: int = SECONDS) -> None:
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self.min_rto_ns = min_rto_ns
        self.max_rto_ns = max_rto_ns

    def update(self, sample_ns: int) -> None:
        if sample_ns <= 0:
            return
        if self.srtt is None:
            self.srtt = float(sample_ns)
            self.rttvar = sample_ns / 2.0
        else:
            delta = abs(self.srtt - sample_ns)
            self.rttvar = 0.75 * self.rttvar + 0.25 * delta
            self.srtt = 0.875 * self.srtt + 0.125 * sample_ns

    def rto_ns(self) -> int:
        if self.srtt is None:
            return self.min_rto_ns
        rto = self.srtt + max(4.0 * self.rttvar, 1000.0)
        return int(min(max(rto, self.min_rto_ns), self.max_rto_ns))


class RetransmitTimer:
    """Exponential backoff over one :class:`~repro.sim.timerwheel.CoarseTimer`.

    Re-armed on every ACK and almost never fired, this is the archetypal
    coarse timer: a re-arm moves its one calendar entry in place, and a
    cancel is a flag flip.
    Like the coarse timer under it, it takes its timeout callback with
    each arm and holds it only while armed.
    """

    __slots__ = ("_est", "_timer", "_backoff")

    def __init__(self, sim: "Simulator", estimator: RttEstimator) -> None:
        self._est = estimator
        self._timer = CoarseTimer(sim)
        self._backoff = 1

    @property
    def armed(self) -> bool:
        return self._timer.armed

    def arm(self, on_timeout: Callable[..., None], *args: Any) -> None:
        """(Re)start the timer at the current RTO; on expiry it backs off
        and calls ``on_timeout(*args)``."""
        self._timer.arm(
            min(self._est.rto_ns() * self._backoff, self._est.max_rto_ns),
            self._fire, on_timeout, args)

    def arm_if_idle(self, on_timeout: Callable[..., None], *args: Any) -> None:
        if not self._timer.armed:
            self.arm(on_timeout, *args)

    def cancel(self) -> None:
        self._timer.cancel()

    def on_progress(self, on_timeout: Callable[..., None], *args: Any) -> None:
        """Fresh ACK progress: reset backoff and restart."""
        self._backoff = 1
        # the RTO unscaled: rto_ns() is already within max_rto_ns
        self._timer.arm(self._est.rto_ns(), self._fire, on_timeout, args)

    def _fire(self, on_timeout: Callable[..., None], args: tuple) -> None:
        self._backoff = min(self._backoff * 2, 64)
        on_timeout(*args)
