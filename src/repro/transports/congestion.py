"""DCTCP congestion-window logic, reusable by plain DCTCP, the Layering
scheme, and FlexPass's reactive sub-flow.

Implements the DCTCP algorithm of Alizadeh et al. [1]: the receiver echoes
per-packet CE marks; the sender maintains an EWMA ``alpha`` of the marked
fraction per window (RTT) and multiplicatively cuts the window by
``alpha / 2`` at most once per window. Growth follows standard slow start /
congestion avoidance.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DctcpWindowParams:
    init_cwnd: float = 10.0
    min_cwnd: float = 1.0
    max_cwnd: float = 1 << 20
    g: float = 1.0 / 16.0  # alpha EWMA gain
    init_ssthresh: float = float(1 << 20)


class DctcpWindow:
    """Window state machine; all quantities in segments."""

    def __init__(self, params: DctcpWindowParams = DctcpWindowParams()) -> None:
        self.p = params
        self.cwnd = params.init_cwnd
        self.ssthresh = params.init_ssthresh
        self.alpha = 0.0
        # Observation window: [window_start_seq, window_end_seq). A new
        # window opens when an ACK at/above window_end_seq arrives.
        self._window_end_seq = 0
        self._acked_in_window = 0
        self._marked_in_window = 0
        self._cut_this_window = False
        self.ecn_cuts = 0
        self.loss_cuts = 0
        self.timeout_resets = 0

    # ------------------------------------------------------------- growth

    def on_ack(self, acked_seq: int, ce: bool, snd_nxt: int) -> None:
        """Process one newly-acknowledged segment.

        ``acked_seq`` is the highest seq this ACK newly covers; ``snd_nxt``
        is the sender's next-to-send seq (defines the next window edge).
        """
        self._acked_in_window += 1
        if ce:
            self._marked_in_window += 1
        if acked_seq >= self._window_end_seq:
            self._end_window(snd_nxt)
        self._grow()

    def _end_window(self, snd_nxt: int) -> None:
        acked = max(self._acked_in_window, 1)
        frac = self._marked_in_window / acked
        g = self.p.g
        self.alpha = (1.0 - g) * self.alpha + g * frac
        if self._marked_in_window > 0 and not self._cut_this_window:
            self.cwnd = max(self.p.min_cwnd, self.cwnd * (1.0 - self.alpha / 2.0))
            self.ssthresh = self.cwnd
            self.ecn_cuts += 1
        self._window_end_seq = snd_nxt
        self._acked_in_window = 0
        self._marked_in_window = 0
        self._cut_this_window = False

    def _grow(self) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0  # slow start
        else:
            self.cwnd += 1.0 / self.cwnd  # congestion avoidance
        self.cwnd = min(self.cwnd, self.p.max_cwnd)

    # ------------------------------------------------------------- losses

    def on_loss(self) -> None:
        """Fast-retransmit style halving, at most once per window."""
        if self._cut_this_window:
            return
        self.cwnd = max(self.p.min_cwnd, self.cwnd / 2.0)
        self.ssthresh = self.cwnd
        self._cut_this_window = True
        self.loss_cuts += 1

    def on_timeout(self) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = self.p.min_cwnd
        self._cut_this_window = False
        self.timeout_resets += 1

    def allowed_in_flight(self) -> int:
        return int(self.cwnd)
