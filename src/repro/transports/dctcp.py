"""DCTCP [1]: the legacy reactive transport of every experiment.

Window-based, ACK-clocked, ECN-driven. The receiver sends one cumulative
ACK (with SACK) per data packet and echoes the CE bit per packet; the sender
runs :class:`repro.transports.congestion.DctcpWindow`, SACK-based fast
retransmission, and an RTO with a 4 ms floor (§6 settings).

:class:`DctcpLoop` is that loop on its own (window, RTT estimator, RTO) over
one :class:`~repro.transports.sequencing.RetransmitQueue`: ``DctcpSender``
clocks it with ACKs, :class:`~repro.transports.layering.LayeringSender`
gates a credit-clocked sender with it, and FlexPass runs its reactive
sub-flow on it over a :class:`~repro.core.flexpass.SubFlow`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, TYPE_CHECKING

from repro.net.packet import (
    Color,
    Dscp,
    Packet,
    PacketKind,
    alloc_packet,
    data_wire_size,
)
from repro.transports.base import CompletionCallback, FlowSpec, FlowStats
from repro.transports.congestion import DctcpWindow, DctcpWindowParams
from repro.transports.sequencing import (
    AckingTombstone, ReceiveScoreboard, RetransmitQueue, send_ack,
    track_reorder,
)
from repro.transports.timers import RetransmitTimer, RttEstimator
from repro.sim.units import MILLIS

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: what sends again after an RTO fires (None: a credit clocks the sender)
Resume = Optional[Callable[[], None]]


@dataclass(frozen=True)
class DctcpParams:
    """Endpoint configuration for a DCTCP flow (frozen: a launcher builds
    one and every flow it launches shares it)."""

    window: DctcpWindowParams = field(default_factory=DctcpWindowParams)
    min_rto_ns: int = 4 * MILLIS
    dupthresh: int = 3
    data_dscp: int = Dscp.LEGACY
    ack_dscp: int = Dscp.LEGACY
    data_color: int = Color.GREEN
    ecn_capable: bool = True


class DctcpLoop:
    """The DCTCP control loop over one :class:`RetransmitQueue`.

    ``resume`` is what sends again after a timeout, or None when something
    else (a credit) clocks the sender. The owner passes it to each call
    that may arm the RTO, and only the armed timer holds it: the loop keeps
    no callback into its owner.
    """

    __slots__ = ("sim", "queue", "window", "rtt", "timer")

    def __init__(self, sim: "Simulator", queue: RetransmitQueue,
                 window: DctcpWindowParams, min_rto_ns: int) -> None:
        self.sim = sim
        self.queue = queue
        self.window = DctcpWindow(window)
        self.rtt = RttEstimator(min_rto_ns=min_rto_ns)
        self.timer = RetransmitTimer(sim, self.rtt)

    @property
    def window_open(self) -> bool:
        return self.queue.scoreboard.in_flight < self.window.allowed_in_flight()

    def on_ack(self, ack: Packet, resume: Resume = None) -> None:
        """One ACK's feedback: RTT sample, per-seq window growth with the
        CE echo, one window cut per loss event, and an RTO restart on
        progress while the RTO runs (FlexPass's reactive RTO stays unarmed
        unless its ablation arms it)."""
        if ack.meta is not None and ack.sent_at >= 0:
            self.rtt.update(self.sim.now - ack.sent_at)
        queue = self.queue
        newly_acked, newly_lost = queue.on_ack(ack)
        for seq in newly_acked:
            self.window.on_ack(seq, ack.ce, queue.next_new)
        if newly_lost:
            self.window.on_loss()
        if newly_acked and self.timer.armed:
            self.timer.on_progress(self._on_timeout, resume)

    def arm_if_idle(self, resume: Resume = None) -> None:
        """Start the RTO unless it runs already."""
        timer = self.timer
        if not timer.armed:
            timer.arm(self._on_timeout, resume)

    def _on_timeout(self, resume: Resume) -> None:
        self.queue.stats.timeouts += 1
        self.queue.on_timeout()
        self.window.on_timeout()
        if resume is not None:
            resume()
        self.timer.arm(self._on_timeout, resume)


class DctcpSender:
    """Sender endpoint of one DCTCP flow."""

    def __init__(self, sim: "Simulator", spec: FlowSpec, stats: FlowStats,
                 params: DctcpParams = DctcpParams()) -> None:
        self.sim = sim
        self.spec = spec
        self.stats = stats
        self.params = params
        self.queue = RetransmitQueue(spec.n_segments, stats, params.dupthresh)
        self.loop = DctcpLoop(sim, self.queue, params.window,
                              params.min_rto_ns)
        self.done = False
        spec.src.register_sender(spec.flow_id, self)

    # --------------------------------------------------------------- API

    def start(self) -> None:
        self.stats.start_ns = self.sim.now
        self._pump()

    @property
    def all_acked(self) -> bool:
        return self.queue.all_acked

    # ---------------------------------------------------------- transmit

    def _pump(self) -> None:
        """Send while the window allows; lost segments go first."""
        while self.loop.window_open:
            seq = self.queue.next_seq()
            if seq is None:
                break
            self._transmit(seq)
        if self.queue.scoreboard.in_flight > 0:
            self.loop.arm_if_idle(self._pump)

    def _transmit(self, seq: int) -> None:
        p = self.params
        pkt = alloc_packet(
            PacketKind.DATA, self.spec.flow_id, self.spec.src.id, self.spec.dst.id,
            data_wire_size(self.spec.segment_payload(seq)),
            payload=self.spec.segment_payload(seq),
            dscp=p.data_dscp, color=p.data_color, ecn_capable=p.ecn_capable,
            seq=seq, flow_seq=seq, sent_at=self.sim.now,
        )
        self.queue.on_send(seq, self.sim.now)
        self.stats.packets_sent += 1
        self.spec.src.send(pkt)

    # -------------------------------------------------------------- acks

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind != PacketKind.ACK or self.done:
            return
        self.loop.on_ack(pkt, self._pump)
        if self.queue.all_acked:
            self.done = True
            self.loop.timer.cancel()
            self.spec.src.unregister_sender(self.spec.flow_id)
            return
        self._pump()


class DctcpReceiver:
    """Receiver endpoint: per-packet cumulative ACK + SACK, CE echo. Once
    every segment is in, an :class:`AckingTombstone` takes its place."""

    def __init__(self, sim: "Simulator", spec: FlowSpec, stats: FlowStats,
                 params: DctcpParams = DctcpParams(),
                 on_complete: Optional[CompletionCallback] = None) -> None:
        self.sim = sim
        self.spec = spec
        self.stats = stats
        self.params = params
        self.on_complete = on_complete
        self.scoreboard = ReceiveScoreboard()
        spec.dst.register_receiver(spec.flow_id, self)

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind != PacketKind.DATA:
            return
        fresh = self.scoreboard.add(pkt.seq)
        if fresh:
            self.stats.delivered_bytes += pkt.payload
            self.stats.reactive_bytes += pkt.payload
            track_reorder(self.stats, self.scoreboard)
        else:
            self.stats.duplicate_bytes += pkt.payload
        board = self.scoreboard
        send_ack(self.spec, self.params.ack_dscp, board.cum, board.sack(), pkt)
        if fresh and board.received_count() == self.spec.n_segments:
            self.stats.complete_ns = self.sim.now
            self.spec.dst.retire_receiver(self.spec.flow_id, AckingTombstone(
                self.spec, self.stats, self.params.ack_dscp))
            if self.on_complete is not None:
                self.on_complete(self.spec, self.stats)
