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
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Set, TYPE_CHECKING

from repro.net.packet import (
    ACK_WIRE_BYTES,
    CREDIT_WIRE_BYTES,
    Color,
    Dscp,
    Packet,
    PacketKind,
    alloc_packet,
    data_wire_size,
)
from repro.transports.base import CompletionCallback, FlowSpec, FlowStats
from repro.transports.credit_feedback import CREDIT_PER_DATA, FeedbackParams
from repro.transports.crediting import CreditPacer
from repro.transports.sequencing import ReceiveScoreboard, SenderScoreboard
from repro.sim.timerwheel import CoarseTimer
from repro.sim.units import GBPS, MICROS, MILLIS

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import EventHandle, Simulator


@dataclass
class ExpressPassParams:
    """Endpoint configuration for an ExpressPass flow."""

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
        self.scoreboard = SenderScoreboard(dupthresh=params.dupthresh)
        self._next_new = 0
        self._lost_heap: List[int] = []
        self._lost_set: Set[int] = set()
        self._acked: Set[int] = set()
        # Coarse watchdog (4 ms) on the shared timer wheel.
        self._request_timer = CoarseTimer(sim, self._request_timeout)
        self._got_credit = False
        self.done = False
        spec.src.register_sender(spec.flow_id, self)

    # --------------------------------------------------------------- API

    def start(self) -> None:
        self.stats.start_ns = self.sim.now
        self._send_request()

    @property
    def all_acked(self) -> bool:
        return len(self._acked) == self.spec.n_segments

    # ------------------------------------------------------------- setup

    def _send_request(self) -> None:
        req = alloc_packet(
            PacketKind.CREDIT_REQUEST, self.spec.flow_id,
            self.spec.src.id, self.spec.dst.id, CREDIT_WIRE_BYTES,
            dscp=self.params.ctrl_dscp, meta=self.spec.size_bytes,
        )
        self.spec.src.send(req)
        self._request_timer.arm(self.params.request_timeout_ns)

    def _request_timeout(self) -> None:
        if self.done or self._got_credit:
            return
        self.stats.request_retries += 1
        self._send_request()

    # ------------------------------------------------------------ credits

    def on_packet(self, pkt: Packet) -> None:
        if self.done:
            return
        if pkt.kind == PacketKind.CREDIT:
            self._on_credit(pkt)
        elif pkt.kind == PacketKind.ACK:
            self._on_ack(pkt)

    def _on_credit(self, credit: Packet) -> None:
        self.stats.credits_received += 1
        if not self._got_credit:
            self._got_credit = True
            self._request_timer.cancel()
        seq = self._pick_segment()
        if seq is None:
            self.stats.credits_wasted += 1
            return
        self.stats.credited_sends += 1
        self._transmit(seq, credit_echo=credit.seq)

    def _pick_segment(self) -> Optional[int]:
        # 1. retransmit detected losses
        while self._lost_heap:
            seq = heapq.heappop(self._lost_heap)
            if seq in self._lost_set:
                self._lost_set.discard(seq)
                self.stats.retransmissions += 1
                return seq
        # 2. new data
        if self._next_new < self.spec.n_segments:
            seq = self._next_new
            self._next_new += 1
            return seq
        # 3. tail-loss shield: speculatively resend the oldest unacked
        # segment (the receiver only credits while it is missing data, so a
        # credit arriving here means something is still outstanding).
        oldest = self.scoreboard.oldest_outstanding()
        if oldest is not None:
            self.stats.retransmissions += 1
            return oldest
        return None

    def _transmit(self, seq: int, credit_echo: int = -1) -> None:
        p = self.params
        pkt = alloc_packet(
            PacketKind.DATA, self.spec.flow_id, self.spec.src.id, self.spec.dst.id,
            data_wire_size(self.spec.segment_payload(seq)),
            payload=self.spec.segment_payload(seq),
            dscp=p.data_dscp, color=p.data_color, ecn_capable=p.data_ecn_capable,
            seq=seq, flow_seq=seq, sent_at=self.sim.now, meta=credit_echo,
        )
        if self.scoreboard.sent_at(seq) is None:
            self.scoreboard.on_send(seq, self.sim.now)
        self.stats.packets_sent += 1
        self.spec.src.send(pkt)

    # --------------------------------------------------------------- acks

    def _on_ack(self, pkt: Packet) -> None:
        sack = pkt.sack + (pkt.seq,) if pkt.seq >= 0 else pkt.sack
        newly_acked, newly_lost = self.scoreboard.on_ack(pkt.ack, sack)
        for seq in newly_acked:
            self._acked.add(seq)
            self._lost_set.discard(seq)
        for seq in newly_lost:
            if seq not in self._acked and seq not in self._lost_set:
                self._lost_set.add(seq)
                heapq.heappush(self._lost_heap, seq)
        if self.all_acked:
            self._finish()

    def _finish(self) -> None:
        self.done = True
        self._request_timer.cancel()
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
        self._complete = False
        spec.dst.register_receiver(spec.flow_id, self)

    # ------------------------------------------------------------ intake

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind == PacketKind.CREDIT_REQUEST:
            if not self._complete:
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
        self._send_ack(pkt)
        if fresh and self.scoreboard.received_count() == self.spec.n_segments:
            self._finish()

    def _send_ack(self, data: Packet) -> None:
        ack = alloc_packet(
            PacketKind.ACK, self.spec.flow_id, self.spec.dst.id, self.spec.src.id,
            ACK_WIRE_BYTES, dscp=self.params.ack_dscp,
            ack=self.scoreboard.cum, sack=self.scoreboard.sack(),
            seq=data.seq, sent_at=data.sent_at, meta=1,
        )
        ack.ce = data.ce
        self.spec.dst.send(ack)

    def _finish(self) -> None:
        self._complete = True
        self.stats.complete_ns = self.sim.now
        self.pacer.stop()
        if self.on_complete is not None:
            self.on_complete(self.spec, self.stats)
