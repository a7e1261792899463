"""The FlexPass sender as it was before its reactive sub-flow ran on
``DctcpLoop``, kept as the reference for the live sender.

The parent ``FlexPassSender`` carried its own copy of the DCTCP ACK path:
one ``SenderScoreboard``, RTT estimator, RTO and seq -> segment map per
sub-flow, and ACK handlers that branched on the sub-flow for the implicit
cross-sub-flow ack and the "only the latest copy's loss counts" rule. This
is that class, copied verbatim; the only edit is that the reactive window
is always a ``DctcpWindow`` (the ``reactive_algorithm`` switch that chose
another controller is gone, and so is its module). ``Rc3SplitSender`` is
the RC3 variant over it, as ``repro.core.variants`` defines it.

``tests/test_core_flexpass_oracle.py`` drives each against its live
counterpart with one random sequence of credits, ACKs, drops and timer
fires.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from repro.core.flexpass import PROACTIVE, REACTIVE, FlexPassParams
from repro.core.segments import SegmentState, SendBuffer
from repro.net.packet import (
    Color,
    Packet,
    PacketKind,
    alloc_packet,
    data_wire_size,
)
from repro.transports.base import FlowSpec, FlowStats, SegmentPayloads
from repro.transports.congestion import DctcpWindow
from repro.transports.crediting import CreditRequest
from repro.transports.sequencing import SenderScoreboard
from repro.transports.timers import RetransmitTimer, RttEstimator

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


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
        self.window = DctcpWindow(params.reactive_window)
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


class Rc3SplitSender(FlexPassSender):
    """Proactive from the front, reactive from the back (RC3 [33])."""

    def _next_reactive_segment(self):
        return self.buffer.peek_pending_back()
