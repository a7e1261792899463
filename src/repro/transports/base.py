"""Shared transport plumbing: flow descriptions, per-flow stats, segmenting.

A *flow* is a one-shot message transfer (the unit of the paper's FCT
metrics): ``size_bytes`` arrive at the sender application at ``start_ns``
and the flow completes when the receiver has every unique byte.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from repro.net.packet import MSS

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.net.packet import Packet


@dataclass(slots=True)
class FlowSpec:
    """Immutable description of one flow."""

    flow_id: int
    src: "Host"
    dst: "Host"
    size_bytes: int
    start_ns: int
    #: scheme label for grouping in metrics ("dctcp", "flexpass", ...)
    scheme: str = ""
    #: "legacy" or "new" — which side of the deployment boundary (§6.2)
    group: str = "legacy"
    #: "bg" background or "fg" foreground incast (§6.2 mixed workload)
    role: str = "bg"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"flow {self.flow_id}: size must be positive")
        if self.src.id == self.dst.id:
            raise ValueError(f"flow {self.flow_id}: src == dst")

    @property
    def n_segments(self) -> int:
        return (self.size_bytes + MSS - 1) // MSS

    def segment_payload(self, idx: int) -> int:
        """Application bytes in segment ``idx`` (the last may be short)."""
        if idx < 0 or idx >= self.n_segments:
            raise IndexError(f"segment {idx} out of range for flow {self.flow_id}")
        if idx == self.n_segments - 1:
            return self.size_bytes - idx * MSS
        return MSS


class SegmentPayloads(Sequence):
    """``FlowSpec.segment_payload`` as a sequence: a sender can size its
    state by ``len`` and look payloads up on demand without holding one
    entry per segment of a flow it may never finish."""

    __slots__ = ("_spec",)

    def __init__(self, spec: FlowSpec) -> None:
        self._spec = spec

    def __len__(self) -> int:
        return self._spec.n_segments

    def __getitem__(self, idx: int) -> int:
        return self._spec.segment_payload(idx)


@dataclass(slots=True)
class FlowStats:
    """Mutable per-flow counters, shared by the flow's two endpoints."""

    start_ns: int = -1
    complete_ns: int = -1  # receiver got every byte; -1 while running
    delivered_bytes: int = 0
    #: bytes delivered via each sub-flow (FlexPass) or total (others)
    proactive_bytes: int = 0
    reactive_bytes: int = 0
    duplicate_bytes: int = 0  # redundant copies discarded at reassembly
    timeouts: int = 0
    request_retries: int = 0  # credit-request timer fires (control plane)
    retransmissions: int = 0
    proactive_retransmissions: int = 0  # FlexPass §4.2 "proactive retransmission"
    credits_sent: int = 0
    credits_wasted: int = 0  # credit arrived but nothing useful to send
    #: credits that reached the sender (surviving the credit queue); the
    #: audit invariant is credits_received == credited_sends + credits_wasted
    credits_received: int = 0
    credited_sends: int = 0  # data transmissions triggered by a credit
    packets_sent: int = 0
    max_reorder_bytes: int = 0  # peak receiver reordering-buffer occupancy
    #: currently-allocated credit rate (credit-based transports only; 0
    #: while the flow is not being paced) — a gauge, refreshed by the
    #: receiver's :class:`~repro.transports.crediting.CreditPacer`
    credit_rate_bps: float = 0.0

    @property
    def completed(self) -> bool:
        return self.complete_ns >= 0

    def fct_ns(self) -> int:
        if not self.completed:
            raise ValueError("flow has not completed")
        return self.complete_ns - self.start_ns


#: Invoked by the receiver endpoint the moment the last unique byte arrives.
CompletionCallback = Callable[[FlowSpec, FlowStats], None]


class Tombstone:
    """What a finished receiver leaves in its host's receiver table, in its
    own place (DESIGN.md §5, "State lifetime"): the flow's spec and stats,
    and what it needs to answer a late packet exactly as the receiver
    would have. The receiver itself is then freed by reference counting.

    This base swallows every late packet, as a finished Homa receiver
    does; :class:`~repro.transports.sequencing.AckingTombstone` and
    :class:`~repro.core.flexpass.FlexPassTombstone` answer theirs.
    """

    __slots__ = ("spec", "stats")

    def __init__(self, spec: FlowSpec, stats: FlowStats) -> None:
        self.spec = spec
        self.stats = stats

    def on_packet(self, pkt: "Packet") -> None:
        pass
