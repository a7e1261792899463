"""Base class for network nodes (hosts and switches)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.net.port import EgressPort
    from repro.sim.engine import Simulator


class Node:
    """A device with an id, a name, and egress ports keyed by peer node id."""

    __slots__ = ("sim", "id", "name", "ports")

    def __init__(self, sim: "Simulator", node_id: int, name: str) -> None:
        self.sim = sim
        self.id = node_id
        self.name = name
        #: peer node id -> port that reaches that peer
        self.ports: Dict[int, "EgressPort"] = {}

    def attach_port(self, peer_id: int, port: "EgressPort") -> None:
        if peer_id in self.ports:
            raise ValueError(f"{self.name} already has a port toward node {peer_id}")
        self.ports[peer_id] = port

    def release(self) -> None:
        """Drop the ports, each released first: a port and its link hold
        themselves through their bound event callbacks, a cycle only the
        collector would otherwise break (see :meth:`Topology.release`)."""
        for port in self.ports.values():
            port.release()
        self.ports = {}

    def receive(self, pkt: "Packet") -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} id={self.id}>"
