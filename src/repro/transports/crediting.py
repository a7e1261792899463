"""Receiver-side credit pacing, shared by ExpressPass and FlexPass.

A :class:`CreditPacer` emits credit packets toward a flow's sender at the
rate chosen by a :class:`~repro.transports.credit_feedback.CreditFeedback`
controller, and runs the controller's periodic update. The owner decides
when to start and stop (FlexPass stops as soon as reassembly completes,
regardless of which sub-flow delivered the bytes).

The pacer draws jitter in batches through a
:class:`~repro.transports.credit_plane.CreditTrain` and self-reschedules
with handle-free ``Simulator.post`` guarded by a generation counter:
``stop()`` bumps the generation, and posted events from a stale generation
fire as no-ops.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.net.packet import CREDIT_WIRE_BYTES, Dscp, Packet, PacketKind, alloc_packet
from repro.transports.credit_feedback import CreditFeedback, FeedbackParams
from repro.transports.credit_plane import CreditTrain

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.sim.engine import Simulator
    from repro.transports.base import FlowStats


class CreditPacer:
    """Paces credits for one flow from the receiver host."""

    def __init__(self, sim: "Simulator", flow_id: int, receiver_host: "Host",
                 sender_host_id: int, stats: "FlowStats",
                 max_credit_rate_bps: float, update_period_ns: int,
                 feedback_params: FeedbackParams = FeedbackParams()) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self.host = receiver_host
        self.sender_id = sender_host_id
        self.stats = stats
        self.feedback = CreditFeedback(
            max_credit_rate_bps, update_period_ns, feedback_params
        )
        self.update_period_ns = update_period_ns
        self._credit_seq = 0
        self.running = False
        # ExpressPass jitters credit pacing; without it, same-rate pacers
        # phase-lock against the token-bucket limiters and one flow's
        # credits lose the race indefinitely. Seeded per flow: runs stay
        # deterministic.
        self._train = CreditTrain(
            random.Random(flow_id * 2654435761 % (1 << 31)))
        # Generation guard for handle-free posts: stop() bumps it, stale
        # events no-op.
        self._gen = 0

    # ----------------------------------------------------------- control

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.stats.credit_rate_bps = self.feedback.rate_bps
        self._gen += 1
        gen = self._gen
        self._send_credit(gen)
        self.sim.post(self.update_period_ns, self._on_period, gen)

    def stop(self) -> None:
        self.running = False
        self.stats.credit_rate_bps = 0.0
        self._gen += 1

    # ------------------------------------------------------------ inputs

    def note_data_received(self, credit_echo: int) -> None:
        self.feedback.note_data_received(credit_echo)

    # ---------------------------------------------------------- internal

    def _send_credit(self, gen: int) -> None:
        if gen != self._gen or not self.running:
            return
        credit = alloc_packet(
            PacketKind.CREDIT, self.flow_id, self.host.id, self.sender_id,
            CREDIT_WIRE_BYTES, dscp=Dscp.CREDIT, seq=self._credit_seq,
        )
        self._credit_seq += 1
        self.stats.credits_sent += 1
        self.feedback.note_credit_sent()
        self.host.send(credit)
        self.sim.post(self._train.next_interval_ns(self.feedback.rate_bps),
                      self._send_credit, gen)

    def _on_period(self, gen: int) -> None:
        if gen != self._gen or not self.running:
            return
        self.stats.credit_rate_bps = self.feedback.on_period()
        self.sim.post(self.update_period_ns, self._on_period, gen)
