"""FlexPass sender and receiver (§4.2).

The sender runs two control loops over one shared :class:`SendBuffer`:

* the **proactive sub-flow** transmits exactly one packet per arriving
  credit, choosing ``LOST`` > ``PENDING`` > ``SENT_REACTIVE`` (the last is
  "proactive retransmission", the tail-latency optimization);
* the **reactive sub-flow** is a DCTCP window that only ever transmits
  ``PENDING`` segments — it never retransmits; its detected losses are
  handed to the proactive sub-flow.

Each data packet carries two sequence numbers (MPTCP-style): the per-flow
sequence used for reassembly and the per-sub-flow sequence used for
congestion control and loss detection. The receiver ACKs every packet in
its sub-flow's space and discards redundant copies at reassembly.

Shared with the other transports, not re-implemented here: the credit
request handshake and pacer (:mod:`repro.transports.crediting`), the
per-sub-flow ACK/SACK scoreboards, the per-packet ACK and the reorder gauge
(:mod:`repro.transports.sequencing`), and the RTO
(:mod:`repro.transports.timers`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING

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
    CompletionCallback, FlowSpec, FlowStats, SegmentPayloads,
)
from repro.transports.congestion import DctcpWindow, DctcpWindowParams
from repro.transports.credit_feedback import CREDIT_PER_DATA, FeedbackParams
from repro.transports.crediting import FINISHED, CreditPacer, CreditRequest
from repro.transports.sequencing import (
    ReceiveScoreboard, SenderScoreboard, send_ack, track_reorder,
)
from repro.transports.timers import RetransmitTimer, RttEstimator
from repro.sim.units import GBPS, MICROS, MILLIS

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: sub-flow ids carried in Packet.subflow
PROACTIVE = 0
REACTIVE = 1


@dataclass
class FlexPassParams:
    """Endpoint configuration for a FlexPass flow."""

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
    #: Reactive congestion controller: "dctcp" (the paper's choice), or the
    #: §4.3-extensibility alternatives "reno" (loss-based) / "delay"
    #: (latency-based). See repro.transports.reactive_variants.
    reactive_algorithm: str = "dctcp"
    #: Credit allocation for the proactive sub-flow: "expresspass" (the
    #: paper's choice — per-flow pacing + per-link rate-limited credit
    #: queues + loss feedback) or "phost" (per-host round-robin token
    #: allocator; assumes a congestion-free core, §4.3 extensibility).
    credit_allocator: str = "expresspass"


class FlexPassSender:
    """Sender endpoint: shared send buffer + two sub-flows."""

    def __init__(self, sim: "Simulator", spec: FlowSpec, stats: FlowStats,
                 params: FlexPassParams = FlexPassParams()) -> None:
        self.sim = sim
        self.spec = spec
        self.stats = stats
        self.params = params
        self.buffer = SendBuffer(SegmentPayloads(spec))
        # reactive sub-flow machinery (its own sequence space)
        if params.reactive_algorithm == "dctcp":
            self.window = DctcpWindow(params.reactive_window)
        else:
            from repro.transports.reactive_variants import make_reactive_window

            self.window = make_reactive_window(params.reactive_algorithm)
        self.r_scoreboard = SenderScoreboard(dupthresh=params.dupthresh)
        self.r_rtt = RttEstimator(min_rto_ns=params.min_rto_ns)
        self.r_timer = RetransmitTimer(sim, self.r_rtt, self._on_reactive_timeout)
        self._rmap: List[int] = []  # reactive seq -> segment idx
        # proactive sub-flow machinery (credit space)
        self.p_scoreboard = SenderScoreboard(dupthresh=params.dupthresh)
        self.p_rtt = RttEstimator(min_rto_ns=params.min_rto_ns)
        self.p_timer = RetransmitTimer(sim, self.p_rtt, self._on_proactive_timeout)
        self._pmap: List[int] = []  # proactive seq -> segment idx
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
        elif pkt.kind == PacketKind.ACK:
            if pkt.subflow == PROACTIVE:
                self._on_proactive_ack(pkt)
            else:
                self._on_reactive_ack(pkt)
            if self.buffer.all_acked:
                self._finish()

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
        pseq = len(self._pmap)
        self._pmap.append(seg.idx)
        self.buffer.mark_sent_proactive(seg.idx, pseq)
        self.p_scoreboard.on_send(pseq, self.sim.now)
        pkt = alloc_packet(
            PacketKind.DATA, self.spec.flow_id, self.spec.src.id, self.spec.dst.id,
            data_wire_size(seg.payload), payload=seg.payload,
            dscp=self.params.proactive_data_dscp, color=Color.GREEN,
            ecn_capable=False, seq=pseq, flow_seq=seg.idx,
            subflow=PROACTIVE, sent_at=self.sim.now, meta=credit.seq,
        )
        self.stats.packets_sent += 1
        self.spec.src.send(pkt)
        self.p_timer.arm_if_idle()

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
        newly_acked, newly_lost = self.p_scoreboard.on_ack(
            pkt.ack, pkt.sack, pkt.seq)
        for pseq in newly_acked:
            idx = self._pmap[pseq]
            seg = self.buffer.segments[idx]
            if self.buffer.mark_acked(idx) and seg.last_reactive_seq >= 0:
                # Implicit cross-sub-flow ack: the reactive copy no longer
                # needs a reactive ACK (it may have been dropped) — without
                # this, a spurious reactive RTO would fire at the flow tail.
                self.r_scoreboard.remove(seg.last_reactive_seq)
        if self.r_scoreboard.in_flight == 0:
            self.r_timer.cancel()
        self._mark_lost(PROACTIVE, newly_lost)
        if newly_acked:
            self.p_timer.on_progress()
        if self.p_scoreboard.in_flight == 0:
            self.p_timer.cancel()

    def _on_proactive_timeout(self) -> None:
        """§4.3 recovery timer: non-congestion proactive losses. Declare the
        outstanding copies lost and re-request credits to resume recovery."""
        if self.done or self.all_acked:
            return
        self.stats.timeouts += 1
        self._mark_lost(PROACTIVE, self.p_scoreboard.declare_all_lost())
        if not self.request.pending:
            self.request.send()

    # -------------------------------------------------- reactive sub-flow

    def _next_reactive_segment(self):
        """Which PENDING segment the reactive sub-flow sends next. FlexPass
        takes the front; the RC3 variant overrides to take the back."""
        return self.buffer.peek_pending()

    def _pump_reactive(self) -> None:
        if not self.params.enable_reactive:
            return
        while self.r_scoreboard.in_flight < self.window.allowed_in_flight():
            seg = self._next_reactive_segment()
            if seg is None:
                break
            rseq = len(self._rmap)
            self._rmap.append(seg.idx)
            self.buffer.mark_sent_reactive(seg.idx, rseq)
            self.r_scoreboard.on_send(rseq, self.sim.now)
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
        if self.params.enable_reactive_rto and self.r_scoreboard.in_flight > 0:
            self.r_timer.arm_if_idle()

    def _on_reactive_ack(self, pkt: Packet) -> None:
        if pkt.meta is not None and pkt.sent_at >= 0:
            sample = self.sim.now - pkt.sent_at
            self.r_rtt.update(sample)
            on_rtt = getattr(self.window, "on_rtt_sample", None)
            if on_rtt is not None:
                on_rtt(float(sample))  # delay-based reactive variant
        newly_acked, newly_lost = self.r_scoreboard.on_ack(
            pkt.ack, pkt.sack, pkt.seq)
        for rseq in newly_acked:
            idx = self._rmap[rseq]
            seg = self.buffer.segments[idx]
            if self.buffer.mark_acked(idx) and seg.last_proactive_seq >= 0:
                # Implicit cross-sub-flow ack (see _on_proactive_ack).
                self.p_scoreboard.remove(seg.last_proactive_seq)
            self.window.on_ack(rseq, pkt.ce, len(self._rmap))
        if self.p_scoreboard.in_flight == 0:
            self.p_timer.cancel()
        if newly_lost:
            # Cut the window per DCTCP, mark segments for proactive recovery,
            # and keep sliding the window edge (§4.2) — the scoreboard already
            # removed the lost seqs from the in-flight set.
            self.window.on_loss()
            self._mark_lost(REACTIVE, newly_lost)
        if newly_acked and self.params.enable_reactive_rto:
            self.r_timer.on_progress()
        if self.r_scoreboard.in_flight == 0:
            self.r_timer.cancel()
        self._pump_reactive()

    def _on_reactive_timeout(self) -> None:
        """Ablation-only backstop: the proactive sub-flow recovers reactive
        tail losses, so FlexPass needs no reactive RTO (§4.2)."""
        if self.done or self.all_acked or not self.params.enable_reactive_rto:
            return
        self.stats.timeouts += 1
        self._mark_lost(REACTIVE, self.r_scoreboard.declare_all_lost())
        self.window.on_timeout()
        self._pump_reactive()

    # ------------------------------------------------------------- common

    def _mark_lost(self, subflow: int, seqs: List[int]) -> None:
        """Sub-flow seqs detected lost -> ``LOST`` segments. Only the
        *latest* copy's fate matters: a segment re-sent since (on either
        sub-flow), acked, or already lost stays as it is."""
        proactive = subflow == PROACTIVE
        seq_map = self._pmap if proactive else self._rmap
        sent_state = (SegmentState.SENT_PROACTIVE if proactive
                      else SegmentState.SENT_REACTIVE)
        for seq in seqs:
            seg = self.buffer.segments[seq_map[seq]]
            last = seg.last_proactive_seq if proactive else seg.last_reactive_seq
            if seg.state == sent_state and last == seq:
                self.buffer.mark_lost(seg.idx)

    def _finish(self) -> None:
        self.done = True
        self.r_timer.cancel()
        self.p_timer.cancel()
        self.request.cancel()
        self.spec.src.unregister_sender(self.spec.flow_id)


class FlexPassReceiver:
    """Receiver endpoint: reassembly + per-sub-flow ACKs + credit pacing."""

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
        if params.credit_allocator == "phost":
            from repro.transports.phost_credits import PHostCreditSource

            self.pacer = PHostCreditSource(
                sim, spec.flow_id, spec.dst, spec.src.id, stats,
                params.max_credit_rate_bps,
            )
        elif params.credit_allocator == "expresspass":
            self.pacer = CreditPacer(
                sim, spec.flow_id, spec.dst, spec.src.id, stats,
                params.max_credit_rate_bps, params.update_period_ns,
                params.feedback,
            )
        else:
            raise ValueError(
                f"unknown credit allocator {params.credit_allocator!r}; "
                "choose 'expresspass' or 'phost'"
            )
        self._complete = False
        spec.dst.register_receiver(spec.flow_id, self)

    # ------------------------------------------------------------ intake

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind == PacketKind.CREDIT_REQUEST:
            if self._complete:
                # The sender is stuck on a dropped ACK; refresh its view.
                self._send_summary_acks()
            else:
                self.pacer.start()
        elif pkt.kind == PacketKind.DATA:
            self._on_data(pkt)

    def _on_data(self, pkt: Packet) -> None:
        if pkt.subflow == PROACTIVE:
            self.pacer.note_data_received(pkt.meta if pkt.meta is not None else -1)
            self.p_board.add(pkt.seq)
            send_ack(self.spec, self.params.ack_dscp, self.p_board, pkt,
                     PROACTIVE)
        else:
            self.r_board.add(pkt.seq)
            # its per-packet CE echo feeds the sender's DCTCP loop
            send_ack(self.spec, self.params.ack_dscp, self.r_board, pkt,
                     REACTIVE)
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

    def _send_summary_acks(self) -> None:
        for subflow, board in ((PROACTIVE, self.p_board), (REACTIVE, self.r_board)):
            ack = alloc_packet(
                PacketKind.ACK, self.spec.flow_id,
                self.spec.dst.id, self.spec.src.id,
                ACK_WIRE_BYTES, dscp=self.params.ack_dscp,
                ack=board.cum, sack=board.sack(), subflow=subflow,
            )
            self.spec.dst.send(ack)

    def _finish(self) -> None:
        self._complete = True
        self.stats.complete_ns = self.sim.now
        self.pacer.stop()
        self.pacer = FINISHED
        if self.on_complete is not None:
            self.on_complete(self.spec, self.stats)
