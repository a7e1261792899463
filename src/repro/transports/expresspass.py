"""ExpressPass [9]: receiver-driven credit-based proactive transport.

The receiver paces small credit packets toward the sender over a
strict-priority, rate-limited switch queue; each credit that survives the
rate limiters authorizes one full-size data packet on the reverse path.
Because routing is symmetric, metering credits on link L's reverse direction
meters data on L itself — congestion control without touching data packets.

This implementation adds the ACK-based loss recovery FlexPass layers on top
(§4.3 "Handling proactive data packet losses"): per-packet ACKs with SACK,
dupack detection, credit-triggered retransmission, and a credit-request
timer. Plain ExpressPass in a clean network never exercises these paths;
the *naïve deployment* scheme (shared queue with DCTCP) does.

Shared, not owned: what to send comes from a
:class:`~repro.transports.sequencing.RetransmitQueue`, the request
handshake and the credit pacing from :mod:`repro.transports.crediting`.
``_pick_segment``, ``_transmit``, ``_on_ack`` and ``_finish`` are the hooks
``LayeringSender`` replaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.net.packet import (
    Color,
    Dscp,
    Packet,
    PacketKind,
    alloc_packet,
    data_wire_size,
)
from repro.transports.base import CompletionCallback, FlowSpec, FlowStats
from repro.transports.credit_feedback import CREDIT_PER_DATA, FeedbackParams
from repro.transports.crediting import CreditPacer, CreditRequest
from repro.transports.sequencing import (
    AckingTombstone, ReceiveScoreboard, RetransmitQueue, send_ack,
)
from repro.sim.units import GBPS, MICROS, MILLIS

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class ExpressPassParams:
    """Endpoint configuration for an ExpressPass flow (frozen: shared by
    every flow one launcher starts)."""

    #: Peak credit rate at the receiver, in credit-bits/s on the wire. Must
    #: match the NIC credit-queue rate limit: wq * link_rate * 84/1584.
    max_credit_rate_bps: float = 10 * GBPS * CREDIT_PER_DATA
    #: Feedback update period (≈ network RTT).
    update_period_ns: int = 40 * MICROS
    feedback: FeedbackParams = field(default_factory=FeedbackParams)
    request_timeout_ns: int = 4 * MILLIS
    dupthresh: int = 3
    data_dscp: int = Dscp.PROACTIVE_DATA
    ack_dscp: int = Dscp.FLEX_CONTROL
    ctrl_dscp: int = Dscp.FLEX_CONTROL
    data_color: int = Color.GREEN
    data_ecn_capable: bool = False  # proactive packets ignore ECN


class ExpressPassSender:
    """Sender endpoint: transmits exactly one data packet per credit."""

    def __init__(self, sim: "Simulator", spec: FlowSpec, stats: FlowStats,
                 params: ExpressPassParams = ExpressPassParams()) -> None:
        self.sim = sim
        self.spec = spec
        self.stats = stats
        self.params = params
        self.queue = RetransmitQueue(spec.n_segments, stats, params.dupthresh)
        self.request = CreditRequest(sim, spec, stats, params.ctrl_dscp,
                                     params.request_timeout_ns)
        self._on_ack = self.queue.on_ack  # what an ACK feeds
        self.done = False
        spec.src.register_sender(spec.flow_id, self)

    # --------------------------------------------------------------- API

    def start(self) -> None:
        self.stats.start_ns = self.sim.now
        self.request.send()

    @property
    def all_acked(self) -> bool:
        return self.queue.all_acked

    # ------------------------------------------------------------ credits

    def on_packet(self, pkt: Packet) -> None:
        if self.done:
            return
        if pkt.kind == PacketKind.CREDIT:
            self._on_credit(pkt)
        elif pkt.kind == PacketKind.ACK:
            self._on_ack(pkt)
            if self.queue.all_acked:
                self._finish()

    def _on_credit(self, credit: Packet) -> None:
        self.stats.credits_received += 1
        if self.request.pending:
            self.request.cancel()
        seq = self._pick_segment()
        if seq is None:
            self.stats.credits_wasted += 1
            return
        self.stats.credited_sends += 1
        self._transmit(seq, credit.seq)

    def _pick_segment(self) -> Optional[int]:
        """Detected losses, then new data, then the tail-loss shield."""
        seq = self.queue.next_seq()
        return seq if seq is not None else self.queue.resend_oldest()

    def _transmit(self, seq: int, credit_echo: int) -> None:
        p = self.params
        pkt = alloc_packet(
            PacketKind.DATA, self.spec.flow_id, self.spec.src.id, self.spec.dst.id,
            data_wire_size(self.spec.segment_payload(seq)),
            payload=self.spec.segment_payload(seq),
            dscp=p.data_dscp, color=p.data_color, ecn_capable=p.data_ecn_capable,
            seq=seq, flow_seq=seq, sent_at=self.sim.now, meta=credit_echo,
        )
        self.queue.on_send(seq, self.sim.now)
        self.stats.packets_sent += 1
        self.spec.src.send(pkt)

    def _finish(self) -> None:
        self.done = True
        self.request.cancel()
        self.spec.src.unregister_sender(self.spec.flow_id)


class ExpressPassReceiver:
    """Receiver endpoint: paces credits, runs feedback, ACKs every packet."""

    def __init__(self, sim: "Simulator", spec: FlowSpec, stats: FlowStats,
                 params: ExpressPassParams = ExpressPassParams(),
                 on_complete: Optional[CompletionCallback] = None) -> None:
        self.sim = sim
        self.spec = spec
        self.stats = stats
        self.params = params
        self.on_complete = on_complete
        self.scoreboard = ReceiveScoreboard()
        self.pacer = CreditPacer(
            sim, spec.flow_id, spec.dst, spec.src.id, stats,
            params.max_credit_rate_bps, params.update_period_ns, params.feedback,
        )
        spec.dst.register_receiver(spec.flow_id, self)

    # ------------------------------------------------------------ intake

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind == PacketKind.CREDIT_REQUEST:
            self.pacer.start()
        elif pkt.kind == PacketKind.DATA:
            self._on_data(pkt)

    # -------------------------------------------------------------- data

    def _on_data(self, pkt: Packet) -> None:
        self.pacer.note_data_received(pkt.meta if pkt.meta is not None else -1)
        fresh = self.scoreboard.add(pkt.seq)
        if fresh:
            self.stats.delivered_bytes += pkt.payload
            self.stats.proactive_bytes += pkt.payload
        else:
            self.stats.duplicate_bytes += pkt.payload
        board = self.scoreboard
        send_ack(self.spec, self.params.ack_dscp, board.cum, board.sack(), pkt)
        if fresh and board.received_count() == self.spec.n_segments:
            self._finish()

    def _finish(self) -> None:
        """Stop crediting and leave an :class:`AckingTombstone` in place,
        which ACKs late data and, as the stopped pacer did, ignores a late
        request."""
        self.stats.complete_ns = self.sim.now
        self.pacer.stop()
        self.spec.dst.retire_receiver(self.spec.flow_id, AckingTombstone(
            self.spec, self.stats, self.params.ack_dscp))
        if self.on_complete is not None:
            self.on_complete(self.spec, self.stats)
