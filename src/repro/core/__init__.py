"""FlexPass — the paper's contribution (§4).

A FlexPass flow is split into a credit-scheduled *proactive* sub-flow
(ExpressPass loop, sized to the minimum guaranteed bandwidth w_q) and an
opportunistic *reactive* sub-flow (DCTCP loop over spare bandwidth). Both
pull segments from one shared send buffer at transmission time; a per-packet
five-state machine (Figure 4) coordinates assignment, loss recovery, and
proactive retransmission. The receiver reassembles by per-flow sequence
number and discards redundant copies.
"""

from repro.core.flexpass import FlexPassParams, FlexPassReceiver, FlexPassSender
from repro.core.segments import SegmentState, SendBuffer
from repro.core.variants import (
    Rc3SplitReceiver,
    Rc3SplitSender,
    alt_queue_params,
)

__all__ = [
    "FlexPassParams",
    "FlexPassReceiver",
    "FlexPassSender",
    "SegmentState",
    "SendBuffer",
    "Rc3SplitReceiver",
    "Rc3SplitSender",
    "alt_queue_params",
]
