"""ExpressPass credit feedback control [9].

The receiver paces credits; credits dropped at rate-limited credit queues
(or consumed by a sender with nothing to send) are *wasted*. Each data
packet echoes the sequence number of the credit that triggered it, so the
receiver can count dropped credits exactly from gaps in the echo stream —
the measurement is insensitive to the credit->data round-trip lag.

Per update period the controller computes the credit loss fraction and
adjusts the credit rate: probing upward with a growing step when loss is at
or below target, cutting proportionally when above. Knobs follow the
FlexPass evaluation settings (§6.2): aggressiveness factor ``alpha`` (step
growth per consecutive increase), minimum change ``s_min`` (one credit per
period by default), and maximum change ``s_max`` (50 Mbps of returned data).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Credit-wire-bits per data-wire-bit: an 84-byte credit releases one
#: 1584-byte data frame, so credit rate = data rate * 84/1584.
CREDIT_PER_DATA = 84.0 / 1584.0


@dataclass(frozen=True)
class FeedbackParams:
    alpha: float = 2.0          # step growth factor per consecutive increase
    s_min_bps: float = 0.0      # minimum step; 0 -> one credit per period
    #: Max rate change per period, in credit-bps. The paper's S_max = 50 Mbps
    #: of credits "corresponds to 1 Gbps of returning data" (§6.2).
    s_max_bps: float = 50e6
    target_loss: float = 0.10   # tolerated credit-loss fraction
    min_rate_fraction: float = 0.01  # floor relative to max rate


class CreditFeedback:
    """Per-flow credit-rate controller at the receiver."""

    def __init__(self, max_rate_bps: float, update_period_ns: int,
                 params: FeedbackParams = FeedbackParams()) -> None:
        if max_rate_bps <= 0:
            raise ValueError("max credit rate must be positive")
        if update_period_ns <= 0:
            raise ValueError("update period must be positive")
        self.params = params
        self.max_rate = float(max_rate_bps)
        self.min_rate = max_rate_bps * params.min_rate_fraction
        self.update_period_ns = update_period_ns
        # Start at the maximum: ExpressPass sends the first credits at the
        # full allocation and lets loss feedback pull the rate down.
        self.rate_bps = float(max_rate_bps)
        # One credit per period expressed in bps, used as the S_min default.
        self._one_credit_bps = 84.0 * 8.0 * 1e9 / update_period_ns
        self._step = self._s_min()
        self._increasing = False
        # echo accounting for the current period
        self._last_echo = -1
        self._received = 0
        self._lost = 0
        self.credits_sent = 0
        self.updates = 0

    def _s_min(self) -> float:
        return max(self.params.s_min_bps, self._one_credit_bps)

    # ------------------------------------------------------------ inputs

    def note_credit_sent(self) -> None:
        self.credits_sent += 1

    def note_data_received(self, credit_echo: int = -1) -> None:
        """Record a data arrival carrying the triggering credit's seq."""
        self._received += 1
        if credit_echo > self._last_echo:
            if self._last_echo >= 0:
                self._lost += credit_echo - self._last_echo - 1
            self._last_echo = credit_echo

    # ------------------------------------------------------------ update

    def on_period(self) -> float:
        """Close the current period and return the new credit rate (bps)."""
        received, lost = self._received, self._lost
        self._received = 0
        self._lost = 0
        self.updates += 1
        total = received + lost
        if total == 0:
            return self.rate_bps  # nothing echoed back yet: hold
        loss = lost / total
        p = self.params
        if loss <= p.target_loss:
            if self._increasing:
                self._step = min(self._step * p.alpha, p.s_max_bps)
            else:
                self._step = self._s_min()
            self.rate_bps = min(self.rate_bps + self._step, self.max_rate)
            self._increasing = True
        else:
            # Proportional decrease toward the surviving rate, never below floor.
            self.rate_bps = max(
                self.rate_bps * (1.0 - loss) * (1.0 + p.target_loss),
                self.min_rate,
            )
            self._step = self._s_min()
            self._increasing = False
        return self.rate_bps
