"""The two ends of the credit loop, shared by ExpressPass, Layering and
FlexPass: the sender's :class:`CreditRequest` handshake and the receiver's
:class:`CreditPacer`.

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
from repro.sim.timerwheel import CoarseTimer
from repro.transports.credit_plane import CreditTrain

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.sim.engine import Simulator
    from repro.transports.base import FlowSpec, FlowStats


class CreditRequest:
    """Sender side of the handshake: ask the receiver for credits, and ask
    again every ``timeout_ns`` (a coarse watchdog on the shared timer wheel)
    until the owner cancels — on the first credit, or when the flow is done.
    ``pending`` is True exactly while a retry is armed."""

    __slots__ = ("spec", "stats", "dscp", "timeout_ns", "pending", "_timer")

    def __init__(self, sim: "Simulator", spec: "FlowSpec", stats: "FlowStats",
                 dscp: int, timeout_ns: int) -> None:
        self.spec = spec
        self.stats = stats
        self.dscp = dscp
        self.timeout_ns = timeout_ns
        self.pending = False
        self._timer = CoarseTimer(sim)

    def send(self) -> None:
        spec = self.spec
        req = alloc_packet(
            PacketKind.CREDIT_REQUEST, spec.flow_id, spec.src.id, spec.dst.id,
            CREDIT_WIRE_BYTES, dscp=self.dscp, meta=spec.size_bytes,
        )
        spec.src.send(req)
        self._timer.arm(self.timeout_ns, self._retry)
        self.pending = True

    def cancel(self) -> None:
        self._timer.cancel()
        self.pending = False

    def _retry(self) -> None:
        self.stats.request_retries += 1
        self.send()


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
