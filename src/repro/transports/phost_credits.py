"""pHost-style credit allocation (§4.3 "Extensibility of FlexPass").

The paper: "FlexPass can also apply other credit allocation algorithms,
e.g., pHost [13] and dcPIM [6] in non-blocking networks with per-packet
load balancing."

pHost's receiver-driven model differs from ExpressPass's in two ways:

* tokens are paced by a **per-host** allocator at the receiver's access
  rate (the congestion-free-core assumption makes per-link metering in the
  fabric unnecessary), round-robining across the host's active inbound
  flows — so concurrent flows to one receiver never over-issue;
* there is no waste-feedback loop: the allocator simply stops scheduling a
  flow once it is inactive (pHost's "downgrade" of unresponsive senders is
  modeled as deactivation after a token-expiry interval).

:class:`PHostCreditSource` is interface-compatible with
:class:`repro.transports.crediting.CreditPacer`, so a FlexPass receiver can
swap allocators via ``FlexPassParams.credit_allocator``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, TYPE_CHECKING

from repro.net.packet import CREDIT_WIRE_BYTES, Dscp, Packet, PacketKind, alloc_packet
from repro.sim.units import SECONDS

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.sim.engine import Simulator
    from repro.transports.base import FlowStats


class _FlowEntry:
    __slots__ = ("flow_id", "sender_id", "stats", "credit_seq", "active")

    def __init__(self, flow_id: int, sender_id: int, stats: "FlowStats") -> None:
        self.flow_id = flow_id
        self.sender_id = sender_id
        self.stats = stats
        self.credit_seq = 0
        self.active = True


class PHostAllocator:
    """One token pacer per receiver host, shared by its inbound flows."""

    def __init__(self, sim: "Simulator", host: "Host", rate_bps: float) -> None:
        if rate_bps <= 0:
            raise ValueError("allocator rate must be positive")
        self.sim = sim
        self.host = host
        self.rate_bps = float(rate_bps)
        self._flows: "OrderedDict[int, _FlowEntry]" = OrderedDict()
        self.tokens_sent = 0
        # The token gap is invariant (rate fixed at construction): derive
        # it once instead of per tick.
        self._interval = max(1, int(CREDIT_WIRE_BYTES * 8 * SECONDS / self.rate_bps))
        # Ticks are handle-free posts. An armed flag alone is not enough:
        # after an unregister drains the host to empty, a stale in-flight
        # tick must NOT serve a flow registered later (the new flow is
        # paced from registration + interval), so draining to empty also
        # bumps the generation the tick carries.
        self._armed = False
        self._gen = 0

    # ------------------------------------------------------------ registry

    @classmethod
    def for_host(cls, sim: "Simulator", host: "Host",
                 rate_bps: float) -> "PHostAllocator":
        """The host's singleton allocator (created on first use)."""
        existing = getattr(host, "_phost_allocator", None)
        if existing is None:
            existing = cls(sim, host, rate_bps)
            host._phost_allocator = existing
        return existing

    def register(self, flow_id: int, sender_id: int,
                 stats: "FlowStats") -> _FlowEntry:
        if flow_id in self._flows:
            raise ValueError(f"flow {flow_id} already registered")
        entry = _FlowEntry(flow_id, sender_id, stats)
        self._flows[flow_id] = entry
        if not self._armed:
            self._armed = True
            self.sim.post(self._interval, self._tick, self._gen)
        return entry

    def unregister(self, flow_id: int) -> None:
        self._flows.pop(flow_id, None)
        if not self._flows and self._armed:
            self._gen += 1
            self._armed = False

    # -------------------------------------------------------------- pacing

    def _tick(self, gen: int) -> None:
        if gen != self._gen:
            return  # superseded by an unregister-to-empty
        self._armed = False
        entry = self._next_active()
        if entry is None:
            return  # dormant until a registration wakes us
        self._emit(entry)
        self._armed = True
        self.sim.post(self._interval, self._tick, gen)

    def _next_active(self) -> Optional[_FlowEntry]:
        """Round-robin over active flows (move chosen flow to the back)."""
        for flow_id in list(self._flows):
            entry = self._flows[flow_id]
            self._flows.move_to_end(flow_id)
            if entry.active:
                return entry
        return None

    def _emit(self, entry: _FlowEntry) -> None:
        credit = alloc_packet(
            PacketKind.CREDIT, entry.flow_id, self.host.id, entry.sender_id,
            CREDIT_WIRE_BYTES, dscp=Dscp.CREDIT, seq=entry.credit_seq,
        )
        entry.credit_seq += 1
        entry.stats.credits_sent += 1
        self.tokens_sent += 1
        self.host.send(credit)


class PHostCreditSource:
    """CreditPacer-compatible adapter over the per-host allocator."""

    def __init__(self, sim: "Simulator", flow_id: int, receiver_host: "Host",
                 sender_host_id: int, stats: "FlowStats",
                 rate_bps: float) -> None:
        self.allocator = PHostAllocator.for_host(sim, receiver_host, rate_bps)
        self.flow_id = flow_id
        self.sender_id = sender_host_id
        self.stats = stats
        self._entry: Optional[_FlowEntry] = None
        self.running = False

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._entry = self.allocator.register(self.flow_id, self.sender_id,
                                              self.stats)

    def stop(self) -> None:
        if not self.running:
            return
        self.running = False
        self.allocator.unregister(self.flow_id)
        self._entry = None

    def note_data_received(self, credit_echo: int) -> None:
        """pHost has no waste-feedback loop; arrivals need no accounting."""
