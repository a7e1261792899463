"""End host: a NIC egress port plus per-flow transport endpoint demux.

The paper treats the NIC as "a special type of edge switch" (§4.3 footnote):
the FlexPass queue configuration (credit queue pacing, DWRR, selective
dropping) applies to the host uplink as well, which the topology builders
honor by constructing host NIC ports with the same queue stack as switch
ports.

A finished flow's receiver is replaced in the table by its tombstone
(:meth:`Host.retire_receiver`), which answers the flow's late packets.

The host is also the packet pool's sink: once an endpoint has consumed a
delivered packet (endpoints copy what they need; none retain the object),
the host releases it back to the pool — as it does for strays and for
packets its own NIC refuses (DESIGN.md §6d).
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, TYPE_CHECKING

from repro.net.node import Node
from repro.net.packet import Packet, PacketKind, free_packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.port import EgressPort
    from repro.sim.engine import Simulator


class Endpoint(Protocol):
    """Anything that can consume packets addressed to a flow endpoint.

    Endpoints are expected to copy what they need out of the packet during
    ``on_packet``; the host recycles it afterwards. An endpoint that instead
    retains the object (test recorders, traces) must set a truthy
    ``retains_packets`` attribute to keep the host's hands off it.
    """

    def on_packet(self, pkt: Packet) -> None: ...


#: Indexed by ``PacketKind`` value: True when the packet is feedback to the
#: *sender* side of a flow (ACK/CREDIT/GRANT), False when the *receiver*
#: consumes it (DATA/CREDIT_REQUEST/CREDIT_STOP). A tuple lookup replaces
#: two frozenset membership tests on the per-delivery path.
_KIND_TO_SENDER = (
    False,  # DATA
    True,   # ACK
    True,   # CREDIT
    False,  # CREDIT_REQUEST
    False,  # CREDIT_STOP
    True,   # GRANT
)
assert len(_KIND_TO_SENDER) == len(PacketKind)


class Host(Node):
    """A server with one uplink."""

    __slots__ = ("_senders", "_receivers", "stray_packets", "_nic")

    def __init__(self, sim: "Simulator", node_id: int, name: str) -> None:
        super().__init__(sim, node_id, name)
        self._senders: Dict[int, Endpoint] = {}
        self._receivers: Dict[int, Endpoint] = {}
        self.stray_packets = 0
        self._nic: Optional["EgressPort"] = None

    # -------------------------------------------------------------- wiring

    @property
    def nic_port(self) -> "EgressPort":
        """The single uplink port."""
        nic = self._nic
        if nic is None:
            if len(self.ports) != 1:
                raise RuntimeError(f"host {self.name} has {len(self.ports)} ports")
            self._nic = nic = next(iter(self.ports.values()))
        return nic

    def register_sender(self, flow_id: int, endpoint: Endpoint) -> None:
        if flow_id in self._senders:
            raise ValueError(f"flow {flow_id} already has a sender at {self.name}")
        self._senders[flow_id] = endpoint

    def register_receiver(self, flow_id: int, endpoint: Endpoint) -> None:
        if flow_id in self._receivers:
            raise ValueError(f"flow {flow_id} already has a receiver at {self.name}")
        self._receivers[flow_id] = endpoint

    def unregister_sender(self, flow_id: int) -> None:
        self._senders.pop(flow_id, None)

    def retire_receiver(self, flow_id: int, tombstone: Endpoint) -> None:
        """Put a finished flow's tombstone in its receiver's place. The
        tombstone answers the flow's late packets for the rest of the
        cell; the receiver, no longer referenced, is freed once the event
        that finished it returns."""
        self._receivers[flow_id] = tombstone

    def release(self) -> None:
        super().release()
        self._senders = {}
        self._receivers = {}
        self._nic = None

    # ---------------------------------------------------------------- I/O

    def send(self, pkt: Packet) -> bool:
        """Hand a packet to the NIC. Returns False if the NIC dropped it."""
        if self.nic_port.enqueue(pkt):
            return True
        free_packet(pkt)  # refused at admission (e.g., credit-queue cap)
        return False

    def receive(self, pkt: Packet) -> None:
        if _KIND_TO_SENDER[pkt.kind]:
            endpoint = self._senders.get(pkt.flow_id)
        else:
            endpoint = self._receivers.get(pkt.flow_id)
        if endpoint is None:
            # Late feedback for a finished flow (e.g., wasted credits still in
            # flight when the sender deregistered). Expected; just count it.
            self.stray_packets += 1
        else:
            endpoint.on_packet(pkt)
            if getattr(endpoint, "retains_packets", False):
                return
        # The endpoint has copied out what it needs; recycle pooled packets
        # (the guard keeps hand-built packets off the two-call release path).
        if pkt._pooled:
            free_packet(pkt)
