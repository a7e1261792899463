"""Design-alternative variants of FlexPass, evaluated in §4.3 / Figure 5.

Two alternatives the paper considers and rejects:

* **RC3-style flow splitting** [33]: the proactive loop transmits from the
  *front* of the flow and the reactive loop from the *end*, so the two never
  duplicate data — at the cost of a reordering buffer up to half the flow
  size and the need to know the flow length up front (Figure 5a).
* **Alternative queueing**: reactive sub-flow packets share Q2 with legacy
  traffic instead of living in Q1 under selective dropping — reactive
  packets then suffer legacy burstiness, inflating delay, reorder-buffer
  size, and redundant retransmissions (Figure 5b).
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.flexpass import FlexPassParams, FlexPassReceiver, FlexPassSender
from repro.net.packet import Color, Dscp


class Rc3SplitSender(FlexPassSender):
    """Proactive from the front, reactive from the back (RC3 [33]). The two
    loops never overlap by construction, so its params switch proactive
    retransmission off (``replace(params, enable_proactive_rtx=False)``)."""

    def _next_reactive_segment(self):
        return self.buffer.peek_pending_back()


#: RC3's receiver is unchanged: reassembly by per-flow sequence number.
Rc3SplitReceiver = FlexPassReceiver


def alt_queue_params(base: FlexPassParams) -> FlexPassParams:
    """The §4.3 alternative: reactive sub-flow data mapped into the legacy
    queue (Q2), uncolored — no selective dropping applies to it there."""
    return replace(
        base,
        reactive_data_dscp=Dscp.LEGACY,
        reactive_data_color=Color.GREEN,
    )
