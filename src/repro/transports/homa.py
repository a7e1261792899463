"""Simplified Homa [35] — used only for the Figure 1(b) motivation experiment.

What matters for that figure is Homa's bandwidth behaviour, not its full
machinery: each sender blind-transmits up to RTT-bytes unscheduled, and the
receiver grants the remainder at line rate using SRPT order across its
inbound flows, ignoring any non-Homa traffic. With many concurrent Homa
flows this overcommits the bottleneck and exhausts the shared switch buffer,
which is exactly how DCTCP gets starved even from a higher-priority queue.

Simplifications (documented in DESIGN.md): one scheduled priority level
instead of dynamic priority assignment, grant-per-segment instead of byte
offsets, and timer-based re-granting for robustness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.net.packet import (
    ACK_WIRE_BYTES,
    CREDIT_WIRE_BYTES,
    Dscp,
    MSS,
    Packet,
    PacketKind,
    alloc_packet,
    data_wire_size,
)
from repro.transports.base import (
    CompletionCallback, FlowSpec, FlowStats, Tombstone,
)
from repro.transports.sequencing import ReceiveScoreboard
from repro.sim.timerwheel import CoarseTimer
from repro.sim.units import GBPS, MICROS, MILLIS, SECONDS

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class HomaParams:
    rtt_bytes: int = 60_000  # unscheduled window (~BDP)
    grant_rate_bps: int = 10 * GBPS  # receiver grants at its line rate
    #: cap on granted-but-undelivered data (Homa keeps ~RTT-bytes in flight
    #: per flow; this sustained per-flow backlog is exactly why "multiple
    #: HOMA flows can easily starve DCTCP flows" — footnote 3)
    grant_window_bytes: int = 60_000
    regrant_timeout_ns: int = 4 * MILLIS
    unscheduled_prio: int = 1  # 0 is reserved for DCTCP per footnote 3
    scheduled_prio: int = 2
    grant_prio: int = 1


class HomaSender:
    """Blind-sends the unscheduled prefix; sends one segment per grant."""

    def __init__(self, sim: "Simulator", spec: FlowSpec, stats: FlowStats,
                 params: HomaParams = HomaParams()) -> None:
        self.sim = sim
        self.spec = spec
        self.stats = stats
        self.params = params
        self.done = False
        self._heard_from_receiver = False
        # Coarse watchdog (4 ms) on the shared timer wheel.
        self._announce_timer = CoarseTimer(sim)
        spec.src.register_sender(spec.flow_id, self)

    def start(self) -> None:
        self.stats.start_ns = self.sim.now
        unscheduled = min(
            (self.params.rtt_bytes + MSS - 1) // MSS, self.spec.n_segments
        )
        for seq in range(unscheduled):
            self._transmit(seq, self.params.unscheduled_prio)
        self._heard_from_receiver = False
        self._announce_timer.arm(self.params.regrant_timeout_ns,
                                 self._announce_retry)

    def _announce_retry(self) -> None:
        """If the whole unscheduled burst was lost, the receiver never learns
        the flow exists; re-announce with segment 0 until we hear back."""
        if self.done or self._heard_from_receiver:
            return
        self.stats.request_retries += 1
        self._transmit(0, self.params.unscheduled_prio)
        self._announce_timer.arm(self.params.regrant_timeout_ns,
                                 self._announce_retry)

    def on_packet(self, pkt: Packet) -> None:
        if self.done:
            return
        self._heard_from_receiver = True
        if pkt.kind == PacketKind.GRANT and pkt.meta is not None:
            self._transmit(pkt.meta, self.params.scheduled_prio)
        elif pkt.kind == PacketKind.ACK:
            # final ACK: receiver has everything
            self.done = True
            self._announce_timer.cancel()
            self.spec.src.unregister_sender(self.spec.flow_id)

    def _transmit(self, seq: int, prio: int) -> None:
        if seq >= self.spec.n_segments:
            return
        pkt = alloc_packet(
            PacketKind.DATA, self.spec.flow_id, self.spec.src.id, self.spec.dst.id,
            data_wire_size(self.spec.segment_payload(seq)),
            payload=self.spec.segment_payload(seq),
            dscp=Dscp.HOMA_BASE + prio,
            seq=seq, flow_seq=seq, sent_at=self.sim.now,
            meta=self.spec.size_bytes,  # announce size for SRPT
        )
        self.stats.packets_sent += 1
        self.spec.src.send(pkt)


class HomaReceiver:
    """Grants remaining segments at line rate in SRPT order.

    A single pacing loop per *flow* (not per host) — with the per-host grant
    arbitration approximated by each receiver granting at full rate, which
    reproduces the overcommitment that Figure 1(b) demonstrates.
    """

    def __init__(self, sim: "Simulator", spec: FlowSpec, stats: FlowStats,
                 params: HomaParams = HomaParams(),
                 on_complete: Optional[CompletionCallback] = None) -> None:
        self.sim = sim
        self.spec = spec
        self.stats = stats
        self.params = params
        self.on_complete = on_complete
        self.scoreboard = ReceiveScoreboard()
        self._next_grant = (params.rtt_bytes + MSS - 1) // MSS  # after unscheduled
        # Grant pacing is handle-free (post); True while a paced grant
        # event is in flight, so arrivals don't start a second pump.
        self._grant_pending = False
        # The grant gap is invariant (line rate fixed): derive it once.
        self._grant_interval = max(
            1, int(data_wire_size(MSS) * 8 * SECONDS / params.grant_rate_bps))
        self._regrant_timer = CoarseTimer(sim)
        self._complete = False
        self._started = False
        spec.dst.register_receiver(spec.flow_id, self)

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind != PacketKind.DATA:
            return
        fresh = self.scoreboard.add(pkt.seq)
        if fresh:
            self.stats.delivered_bytes += pkt.payload
            self.stats.proactive_bytes += pkt.payload
        else:
            self.stats.duplicate_bytes += pkt.payload
        if not self._started:
            self._started = True
            self._arm_regrant()
            if self._next_grant < self.spec.n_segments:
                self._send_grant()
        elif fresh and not self._grant_pending:
            # Window-limited granting: arrivals clock out further grants.
            self._send_grant()
        if self.scoreboard.received_count() == self.spec.n_segments:
            self._finish()

    # ------------------------------------------------------------ grants

    def _send_grant(self, _=None) -> None:
        """Grant the next segment and pace the one after; also the paced
        event's callback (whose one calendar argument is ``None``)."""
        self._grant_pending = False
        if self._complete or self._next_grant >= self.spec.n_segments:
            return
        granted_unreceived = self._next_grant - self.scoreboard.received_count()
        if granted_unreceived * MSS >= self.params.grant_window_bytes:
            return  # window full; the next fresh arrival re-opens it
        self._emit_grant(self._next_grant)
        self._next_grant += 1
        self._grant_pending = True
        self.sim.post(self._grant_interval, self._send_grant)

    def _emit_grant(self, seq: int) -> None:
        grant = alloc_packet(
            PacketKind.GRANT, self.spec.flow_id,
            self.spec.dst.id, self.spec.src.id, CREDIT_WIRE_BYTES,
            dscp=Dscp.HOMA_BASE + self.params.grant_prio, meta=seq,
        )
        self.stats.credits_sent += 1
        self.spec.dst.send(grant)

    # ------------------------------------------------------ loss recovery

    def _arm_regrant(self) -> None:
        self._regrant_timer.arm(self.params.regrant_timeout_ns, self._regrant)

    def _regrant(self) -> None:
        """No completion yet: re-request the lowest missing segment."""
        if self._complete:
            return
        self.stats.request_retries += 1
        self._emit_grant(self.scoreboard.cum)
        self._arm_regrant()

    def _finish(self) -> None:
        self._complete = True
        self.stats.complete_ns = self.sim.now
        self._grant_pending = False
        self._regrant_timer.cancel()
        # tell the sender it can forget the flow
        ack = alloc_packet(
            PacketKind.ACK, self.spec.flow_id, self.spec.dst.id, self.spec.src.id,
            ACK_WIRE_BYTES, dscp=Dscp.HOMA_BASE + self.params.grant_prio,
            ack=self.spec.n_segments,
        )
        self.spec.dst.send(ack)
        # a late packet of a finished Homa flow is swallowed
        self.spec.dst.retire_receiver(self.spec.flow_id,
                                      Tombstone(self.spec, self.stats))
        if self.on_complete is not None:
            self.on_complete(self.spec, self.stats)
