"""FlexPass sender and receiver (§4.2).

The sender runs two control loops over one shared :class:`SendBuffer`:

* the **proactive sub-flow** transmits exactly one packet per arriving
  credit, choosing ``LOST`` > ``PENDING`` > ``SENT_REACTIVE`` (the last is
  "proactive retransmission", the tail-latency optimization);
* the **reactive sub-flow** is a :class:`~repro.transports.dctcp.DctcpLoop`
  that only ever transmits ``PENDING`` segments — it never retransmits;
  its detected losses are handed to the proactive sub-flow.

Each data packet carries two sequence numbers (MPTCP-style): the per-flow
sequence used for reassembly and the per-sub-flow sequence used for
congestion control and loss detection. The receiver ACKs every packet in
its sub-flow's space and discards redundant copies at reassembly.

Shared with the other transports, not re-implemented here: the credit
request handshake and pacer (:mod:`repro.transports.crediting`), the DCTCP
ACK feedback and RTO (:mod:`repro.transports.dctcp`), the ACK/SACK
scoreboards, the per-packet ACK and the reorder gauge
(:mod:`repro.transports.sequencing`). :class:`SubFlow` holds what ties
the two sequence spaces to the one buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.core.segments import SegmentState, SendBuffer
from repro.net.packet import (
    ACK_WIRE_BYTES,
    Color,
    Dscp,
    Packet,
    PacketKind,
    alloc_packet,
    data_wire_size,
)
from repro.transports.base import (
    CompletionCallback, FlowSpec, FlowStats, SegmentPayloads, Tombstone,
)
from repro.transports.congestion import DctcpWindowParams
from repro.transports.credit_feedback import CREDIT_PER_DATA, FeedbackParams
from repro.transports.crediting import CreditPacer, CreditRequest
from repro.transports.dctcp import DctcpLoop
from repro.transports.sequencing import (
    ReceiveScoreboard, SenderScoreboard, Settled, board_at, cum_and_sack,
    send_ack, track_reorder,
)
from repro.transports.timers import RetransmitTimer, RttEstimator
from repro.sim.units import GBPS, MICROS, MILLIS

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: sub-flow ids carried in Packet.subflow
PROACTIVE = 0
REACTIVE = 1


@dataclass(frozen=True)
class FlexPassParams:
    """Endpoint configuration for a FlexPass flow (frozen: shared by every
    flow one launcher starts)."""

    #: Credit rate cap at the receiver NIC: w_q * link_rate * 84/1584.
    max_credit_rate_bps: float = 0.5 * 10 * GBPS * CREDIT_PER_DATA
    update_period_ns: int = 40 * MICROS
    feedback: FeedbackParams = field(default_factory=FeedbackParams)
    request_timeout_ns: int = 4 * MILLIS
    dupthresh: int = 3
    reactive_window: DctcpWindowParams = field(default_factory=DctcpWindowParams)
    min_rto_ns: int = 4 * MILLIS
    #: DSCP/color assignment; the "alternative queueing" variant of §4.3
    #: overrides the reactive mapping (see repro.core.variants).
    proactive_data_dscp: int = Dscp.PROACTIVE_DATA
    reactive_data_dscp: int = Dscp.REACTIVE_DATA
    reactive_data_color: int = Color.RED
    ctrl_dscp: int = Dscp.FLEX_CONTROL
    ack_dscp: int = Dscp.FLEX_CONTROL
    #: ablation switches
    enable_proactive_rtx: bool = True
    enable_reactive: bool = True
    #: The paper's design needs no reactive RTO: proactive retransmission
    #: covers reactive tail losses (§4.2), which is how FlexPass achieves
    #: zero timeouts. Enable only to ablate that claim.
    enable_reactive_rto: bool = False


#: per sub-flow id: the state a segment last sent on it is in, and where
#: the segment records that copy's seq
_SENT_STATE = (SegmentState.SENT_PROACTIVE, SegmentState.SENT_REACTIVE)
_LAST_SEQ = (attrgetter("last_proactive_seq"), attrgetter("last_reactive_seq"))


class SubFlow:
    """One sub-flow's sequence space over the shared send buffer: its
    scoreboard, its seq -> segment map, the implicit ack of a segment on
    the other sub-flow, and "only the latest copy's loss counts". The
    reactive instance is the queue its :class:`DctcpLoop` runs over.

    A sub-flow reaches the other one only through that one's scoreboard,
    which refers to nothing, so the two are no reference cycle.
    """

    __slots__ = ("buffer", "stats", "scoreboard", "other_board", "next_new",
                 "_segs", "_sent_state", "_last_seq", "_other_last_seq")

    def __init__(self, buffer: SendBuffer, stats: FlowStats, dupthresh: int,
                 subflow: int) -> None:
        self.buffer = buffer
        self.stats = stats
        self.scoreboard = SenderScoreboard(dupthresh=dupthresh)
        #: the scoreboard of the other sub-flow of the same sender
        self.other_board: Optional[SenderScoreboard] = None
        self.next_new = 0  # the seq the next transmission gets
        self._segs: List[int] = []  # seq -> segment idx
        self._sent_state = _SENT_STATE[subflow]
        self._last_seq = _LAST_SEQ[subflow]
        self._other_last_seq = _LAST_SEQ[1 - subflow]

    def on_send(self, idx: int, now_ns: int) -> int:
        """Segment ``idx`` goes out on this sub-flow; returns its seq."""
        seq = self.next_new
        self.next_new = seq + 1
        self._segs.append(idx)
        self.scoreboard.on_send(seq, now_ns)
        return seq

    def on_ack(self, ack: Packet) -> Tuple[List[int], List[int]]:
        """Feed one ACK of this sub-flow. Acked segments are acked on both
        sub-flows; detected losses become ``LOST`` segments. Returns the
        scoreboard's ``(newly_acked, newly_lost)``."""
        newly_acked, newly_lost = self.scoreboard.on_ack(
            ack.ack, ack.sack, ack.seq)
        buffer = self.buffer
        segments = buffer.segments
        other_last_seq = self._other_last_seq
        for seq in newly_acked:
            idx = self._segs[seq]
            seg = segments.get(idx)
            if seg is None:
                continue  # already acked: the buffer keeps no object for it
            # read before the ACK drops the segment's object
            other_seq = other_last_seq(seg)
            if buffer.mark_acked(idx) and other_seq >= 0:
                # Implicit cross-sub-flow ack: the other copy no longer
                # needs its own ACK (it may have been dropped) — without
                # this, a spurious RTO would fire at the tail.
                self.other_board.remove(other_seq)
        if newly_lost:
            self._mark_lost(newly_lost)
        return newly_acked, newly_lost

    def on_timeout(self) -> None:
        """Every copy in flight on this sub-flow is presumed lost."""
        self._mark_lost(self.scoreboard.declare_all_lost())

    def _mark_lost(self, seqs: List[int]) -> None:
        """Only the *latest* copy's fate matters: a segment re-sent since
        (on either sub-flow), acked (it has no object left), or already
        lost stays as it is."""
        buffer = self.buffer
        segments = buffer.segments
        for seq in seqs:
            seg = segments.get(self._segs[seq])
            if (seg is not None and seg.state == self._sent_state
                    and self._last_seq(seg) == seq):
                buffer.mark_lost(seg.idx)


class FlexPassSender:
    """Sender endpoint: shared send buffer + two sub-flows."""

    def __init__(self, sim: "Simulator", spec: FlowSpec, stats: FlowStats,
                 params: FlexPassParams = FlexPassParams()) -> None:
        self.sim = sim
        self.spec = spec
        self.stats = stats
        self.params = params
        self.buffer = SendBuffer(SegmentPayloads(spec))
        self.proactive = SubFlow(self.buffer, stats, params.dupthresh, PROACTIVE)
        self.reactive = SubFlow(self.buffer, stats, params.dupthresh, REACTIVE)
        self.proactive.other_board = self.reactive.scoreboard
        self.reactive.other_board = self.proactive.scoreboard
        # reactive sub-flow: the DCTCP loop, whose RTO stays unarmed unless
        # the enable_reactive_rto ablation arms it
        self.loop = DctcpLoop(sim, self.reactive, params.reactive_window,
                              params.min_rto_ns)
        # proactive sub-flow: the credit-clocked §4.3 recovery timer
        self.p_rtt = RttEstimator(min_rto_ns=params.min_rto_ns)
        self.p_timer = RetransmitTimer(sim, self.p_rtt)
        self.request = CreditRequest(sim, spec, stats, params.ctrl_dscp,
                                     params.request_timeout_ns)
        self.done = False
        spec.src.register_sender(spec.flow_id, self)

    # --------------------------------------------------------------- API

    def start(self) -> None:
        self.stats.start_ns = self.sim.now
        self.request.send()
        if self.params.enable_reactive:
            # Unlike the proactive sub-flow, the reactive sub-flow can use
            # the first RTT before any credit arrives (§4.2 / Aeolus [20]).
            self._pump_reactive()

    @property
    def all_acked(self) -> bool:
        return self.buffer.all_acked

    # -------------------------------------------------------------- demux

    def on_packet(self, pkt: Packet) -> None:
        if self.done:
            return
        if pkt.kind == PacketKind.CREDIT:
            self._on_credit(pkt)
            return
        if pkt.kind != PacketKind.ACK:
            return
        if pkt.subflow == PROACTIVE:
            self._on_proactive_ack(pkt)
        else:
            self.loop.on_ack(pkt, self._pump_reactive)
        if self.buffer.all_acked:
            self._finish()
            return
        # an ACK on either sub-flow may have emptied both
        if self.proactive.scoreboard.in_flight == 0:
            self.p_timer.cancel()
        if self.reactive.scoreboard.in_flight == 0:
            self.loop.timer.cancel()
        if pkt.subflow == REACTIVE:
            self._pump_reactive()

    # ------------------------------------------------- proactive sub-flow

    def _on_credit(self, credit: Packet) -> None:
        self.stats.credits_received += 1
        if self.request.pending:
            self.request.cancel()
        seg, kind = self._pick_for_proactive()
        if seg is None:
            self.stats.credits_wasted += 1
            return
        self.stats.credited_sends += 1
        if kind == "lost":
            self.stats.retransmissions += 1
        elif kind == "reactive":
            self.stats.proactive_retransmissions += 1
        pseq = self.proactive.on_send(seg.idx, self.sim.now)
        self.buffer.mark_sent_proactive(seg.idx, pseq)
        pkt = alloc_packet(
            PacketKind.DATA, self.spec.flow_id, self.spec.src.id, self.spec.dst.id,
            data_wire_size(seg.payload), payload=seg.payload,
            dscp=self.params.proactive_data_dscp, color=Color.GREEN,
            ecn_capable=False, seq=pseq, flow_seq=seg.idx,
            subflow=PROACTIVE, sent_at=self.sim.now, meta=credit.seq,
        )
        self.stats.packets_sent += 1
        self.spec.src.send(pkt)
        self.p_timer.arm_if_idle(self._on_proactive_timeout)

    def _pick_for_proactive(self):
        """Transmission priority of §4.2: Lost > Pending > Sent-as-reactive."""
        seg = self.buffer.peek_lost()
        if seg is not None:
            return seg, "lost"
        seg = self.buffer.peek_pending()
        if seg is not None:
            return seg, "pending"
        if self.params.enable_proactive_rtx:
            seg = self.buffer.peek_sent_reactive()
            if seg is not None:
                return seg, "reactive"
        return None, ""

    def _on_proactive_ack(self, pkt: Packet) -> None:
        if pkt.meta is not None and pkt.sent_at >= 0:
            self.p_rtt.update(self.sim.now - pkt.sent_at)
        newly_acked, _ = self.proactive.on_ack(pkt)
        if newly_acked:
            self.p_timer.on_progress(self._on_proactive_timeout)

    def _on_proactive_timeout(self) -> None:
        """§4.3 recovery timer: non-congestion proactive losses. Declare the
        outstanding copies lost and re-request credits to resume recovery."""
        self.stats.timeouts += 1
        self.proactive.on_timeout()
        if not self.request.pending:
            self.request.send()

    # -------------------------------------------------- reactive sub-flow

    def _next_reactive_segment(self):
        """Which PENDING segment the reactive sub-flow sends next. FlexPass
        takes the front; the RC3 variant overrides to take the back."""
        return self.buffer.peek_pending()

    def _pump_reactive(self) -> None:
        """Send ``PENDING`` segments while the DCTCP window allows; the
        reactive sub-flow never retransmits, its losses go proactive."""
        if not self.params.enable_reactive:
            return
        while self.loop.window_open:
            seg = self._next_reactive_segment()
            if seg is None:
                break
            rseq = self.reactive.on_send(seg.idx, self.sim.now)
            self.buffer.mark_sent_reactive(seg.idx, rseq)
            pkt = alloc_packet(
                PacketKind.DATA, self.spec.flow_id,
                self.spec.src.id, self.spec.dst.id,
                data_wire_size(seg.payload), payload=seg.payload,
                dscp=self.params.reactive_data_dscp,
                color=self.params.reactive_data_color,
                ecn_capable=True, seq=rseq, flow_seq=seg.idx,
                subflow=REACTIVE, sent_at=self.sim.now, meta=-1,
            )
            self.stats.packets_sent += 1
            self.spec.src.send(pkt)
        if (self.params.enable_reactive_rto
                and self.reactive.scoreboard.in_flight > 0):
            self.loop.arm_if_idle(self._pump_reactive)

    # ------------------------------------------------------------- common

    def _finish(self) -> None:
        self.done = True
        self.loop.timer.cancel()
        self.p_timer.cancel()
        self.request.cancel()
        self.spec.src.unregister_sender(self.spec.flow_id)


class FlexPassReceiver:
    """Receiver endpoint: reassembly + per-sub-flow ACKs + credit pacing.
    Once reassembly completes, a :class:`FlexPassTombstone` takes its
    place."""

    def __init__(self, sim: "Simulator", spec: FlowSpec, stats: FlowStats,
                 params: FlexPassParams = FlexPassParams(),
                 on_complete: Optional[CompletionCallback] = None) -> None:
        self.sim = sim
        self.spec = spec
        self.stats = stats
        self.params = params
        self.on_complete = on_complete
        self.flow_board = ReceiveScoreboard()  # per-flow space: reassembly
        self.p_board = ReceiveScoreboard()     # proactive sub-flow space
        self.r_board = ReceiveScoreboard()     # reactive sub-flow space
        self.pacer = CreditPacer(
            sim, spec.flow_id, spec.dst, spec.src.id, stats,
            params.max_credit_rate_bps, params.update_period_ns,
            params.feedback,
        )
        spec.dst.register_receiver(spec.flow_id, self)

    # ------------------------------------------------------------ intake

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind == PacketKind.CREDIT_REQUEST:
            self.pacer.start()
        elif pkt.kind == PacketKind.DATA:
            self._on_data(pkt)

    def _on_data(self, pkt: Packet) -> None:
        if pkt.subflow == PROACTIVE:
            self.pacer.note_data_received(pkt.meta if pkt.meta is not None else -1)
            board = self.p_board
            board.add(pkt.seq)
            send_ack(self.spec, self.params.ack_dscp, board.cum, board.sack(),
                     pkt, PROACTIVE)
        else:
            board = self.r_board
            board.add(pkt.seq)
            # its per-packet CE echo feeds the sender's DCTCP loop
            send_ack(self.spec, self.params.ack_dscp, board.cum, board.sack(),
                     pkt, REACTIVE)
        fresh = self.flow_board.add(pkt.flow_seq)
        if fresh:
            self.stats.delivered_bytes += pkt.payload
            if pkt.subflow == PROACTIVE:
                self.stats.proactive_bytes += pkt.payload
            else:
                self.stats.reactive_bytes += pkt.payload
            track_reorder(self.stats, self.flow_board)
            if self.flow_board.received_count() == self.spec.n_segments:
                self._finish()
        else:
            # Redundant copy (e.g., proactive retransmission raced the
            # reactive original): discard at reassembly (§4.2).
            self.stats.duplicate_bytes += pkt.payload

    def _finish(self) -> None:
        self.stats.complete_ns = self.sim.now
        self.pacer.stop()
        self.spec.dst.retire_receiver(self.spec.flow_id, FlexPassTombstone(
            self.spec, self.stats, self.params.ack_dscp,
            self.p_board.settled(), self.r_board.settled()))
        if self.on_complete is not None:
            self.on_complete(self.spec, self.stats)


def send_summary_acks(spec: FlowSpec, dscp: int,
                      boards: Tuple[Settled, Settled]) -> None:
    """One ACK per sub-flow, in sub-flow order, carrying the cum and SACK
    of its settled receive board (see ``ReceiveScoreboard.settled``)."""
    for subflow, board in enumerate(boards):
        cum, sack = cum_and_sack(board)
        ack = alloc_packet(
            PacketKind.ACK, spec.flow_id, spec.dst.id, spec.src.id,
            ACK_WIRE_BYTES, dscp=dscp, ack=cum, sack=sack, subflow=subflow,
        )
        spec.dst.send(ack)


class FlexPassTombstone(Tombstone):
    """A finished FlexPass flow in its receiver's place. Its two sub-flow
    boards outlive reassembly, settled (a board with nothing above its
    cum is just that int), since a late copy can still be news in its
    sub-flow's space:

    * late data is ACKed in its sub-flow's space, as the receiver would,
      and counted as a duplicate at reassembly;
    * a late ``CREDIT_REQUEST`` means the sender is stuck on a dropped
      ACK: one summary ACK per sub-flow refreshes its view (§4.3).
    """

    __slots__ = ("ack_dscp", "p_board", "r_board")

    def __init__(self, spec: FlowSpec, stats: FlowStats, ack_dscp: int,
                 p_board: Settled, r_board: Settled) -> None:
        super().__init__(spec, stats)
        self.ack_dscp = ack_dscp
        self.p_board = p_board
        self.r_board = r_board

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind == PacketKind.CREDIT_REQUEST:
            send_summary_acks(self.spec, self.ack_dscp,
                              (self.p_board, self.r_board))
        elif pkt.kind == PacketKind.DATA:
            if pkt.subflow == PROACTIVE:
                self.p_board = board = board_at(self.p_board, pkt.seq)
            else:
                self.r_board = board = board_at(self.r_board, pkt.seq)
            cum, sack = cum_and_sack(board)
            send_ack(self.spec, self.ack_dscp, cum, sack, pkt, pkt.subflow)
            self.stats.duplicate_bytes += pkt.payload
