"""Layering (LY) deployment scheme — ExpressPass+ [45].

Overlays a DCTCP congestion window on top of the ExpressPass credit loop: a
data packet is released only when a credit has arrived *and* the window has
room. Data shares the legacy queue and is ECN-capable, so the window reacts
to legacy congestion and starvation is avoided — but, as §6.2 shows, the
window needlessly throttles transmissions even on idle links, wasting the
credits that arrive while the window is closed.

Nothing here is its own machinery: the sender is
:class:`~repro.transports.expresspass.ExpressPassSender` with a
:class:`~repro.transports.dctcp.DctcpLoop` gating it, and the receiver is
the ExpressPass receiver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.net.packet import Dscp
from repro.transports.base import FlowSpec, FlowStats
from repro.transports.congestion import DctcpWindowParams
from repro.transports.dctcp import DctcpLoop
from repro.transports.expresspass import (
    ExpressPassParams, ExpressPassReceiver, ExpressPassSender,
)
from repro.sim.units import MILLIS

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class LayeringParams(ExpressPassParams):
    """ExpressPass credit loop + DCTCP window gate."""

    window: DctcpWindowParams = field(default_factory=DctcpWindowParams)
    min_rto_ns: int = 4 * MILLIS
    # LY data lives with legacy traffic and reacts to its ECN signal.
    data_dscp: int = Dscp.LEGACY
    ack_dscp: int = Dscp.LEGACY
    ctrl_dscp: int = Dscp.LEGACY
    data_ecn_capable: bool = True


class LayeringSender(ExpressPassSender):
    """Credit-clocked, window-gated sender."""

    def __init__(self, sim: "Simulator", spec: FlowSpec, stats: FlowStats,
                 params: LayeringParams) -> None:
        super().__init__(sim, spec, stats, params)
        self.loop = DctcpLoop(sim, self.queue, params.window, params.min_rto_ns)
        self._on_ack = self.loop.on_ack

    def _pick_segment(self) -> Optional[int]:
        # The layering gate: credits arriving while the window is full are
        # simply wasted — the root cause of LY's underutilization (§6.2).
        if not self.loop.window_open:
            return None
        return super()._pick_segment()

    def _transmit(self, seq: int, credit_echo: int) -> None:
        super()._transmit(seq, credit_echo)
        self.loop.arm_if_idle()

    def _finish(self) -> None:
        self.loop.timer.cancel()
        super()._finish()


class LayeringReceiver(ExpressPassReceiver):
    """Identical to the ExpressPass receiver (full-rate credits, per-packet
    ACKs with CE echo); only the DSCPs differ, which params carry."""
