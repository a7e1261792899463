"""Switch: routes packets to egress ports via ECMP over shortest paths."""

from __future__ import annotations

from typing import Dict, Tuple, TYPE_CHECKING

from repro.net.node import Node
from repro.net.packet import free_packet
from repro.net.routing import ecmp_index

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.buffering import SharedBuffer
    from repro.net.packet import Packet
    from repro.net.port import EgressPort
    from repro.sim.engine import Simulator


class Switch(Node):
    """A shared-buffer switch.

    Routing state is installed by the topology after all links exist. All
    egress ports of the switch draw from one shared buffer, which is what
    makes the dynamic-threshold scheme meaningful.

    ``install_routes`` turns the next-hop table into the switch's one route
    table, split in two so the per-packet path never recomputes ECMP for
    single-path destinations and never chases ``ports[peer]`` dict lookups:
    destinations with one next hop map straight to their egress port,
    multi-hop destinations to a tuple of ports indexed by the symmetric
    ECMP hash. Destinations with the same next-hop set share one tuple (a
    ToR reaches every host outside its rack through the same uplinks). The
    hash is a pure function of the packet's ``(flow_id, src, dst)`` for a
    given table, so the member it picks is memoized under that key until
    the next ``install_routes``.
    """

    __slots__ = ("buffer", "ecmp_salt", "routing_failures",
                 "_route_single", "_route_multi", "_ecmp_memo")

    #: the memo is emptied when it reaches this many flow directions
    ECMP_MEMO_MAX = 4096

    def __init__(
        self, sim: "Simulator", node_id: int, name: str, buffer: "SharedBuffer"
    ) -> None:
        super().__init__(sim, node_id, name)
        self.buffer = buffer
        #: fabric tier (ToR=1, agg=2, core=3): decorrelates ECMP decisions
        #: across tiers while keeping forward/reverse paths mirrored. Set
        #: by the builders before routes are installed.
        self.ecmp_salt = 0
        self.routing_failures = 0
        #: dst -> egress port, for destinations with exactly one next hop
        self._route_single: Dict[int, "EgressPort"] = {}
        #: dst -> tuple of egress ports (ECMP members, sorted by peer id)
        self._route_multi: Dict[int, Tuple["EgressPort", ...]] = {}
        #: (flow_id, src, dst) -> the ECMP member that flow direction hashes to
        self._ecmp_memo: Dict[Tuple[int, int, int], "EgressPort"] = {}

    def install_routes(self, next_hops: Dict[int, Tuple[int, ...]]) -> None:
        """Rebuild the route table from ``next_hops`` (destination host id
        -> sorted tuple of next-hop peer node ids); the table itself is not
        kept."""
        single: Dict[int, "EgressPort"] = {}
        multi: Dict[int, Tuple["EgressPort", ...]] = {}
        # next-hop set -> its member tuple, one per distinct set
        members: Dict[Tuple[int, ...], Tuple["EgressPort", ...]] = {}
        ports = self.ports
        for dst, hops in next_hops.items():
            if len(hops) == 1:
                single[dst] = ports[hops[0]]
            else:
                choices = members.get(hops)
                if choices is None:
                    choices = members[hops] = tuple(ports[peer] for peer in hops)
                multi[dst] = choices
        self._route_single = single
        self._route_multi = multi
        self._ecmp_memo = {}

    @property
    def next_hops(self) -> Dict[int, Tuple[int, ...]]:
        """Destination host id -> sorted tuple of next-hop peer node ids,
        read back from the route table."""
        peer_of = {port: peer for peer, port in self.ports.items()}
        hops = {dst: (peer_of[port],)
                for dst, port in self._route_single.items()}
        for dst, choices in self._route_multi.items():
            hops[dst] = tuple(peer_of[port] for port in choices)
        return hops

    def release(self) -> None:
        super().release()
        self._route_single = {}
        self._route_multi = {}
        self._ecmp_memo = {}

    def receive(self, pkt: "Packet") -> None:
        dst = pkt.dst
        port = self._route_single.get(dst)
        if port is None:
            memo = self._ecmp_memo
            key = (pkt.flow_id, pkt.src, dst)
            port = memo.get(key)
            if port is None:
                choices = self._route_multi.get(dst)
                if choices is None:
                    # Indicates broken topology wiring; make it loud in stats
                    # but do not crash a long sweep for one stray packet.
                    self.routing_failures += 1
                    free_packet(pkt)
                    return
                port = choices[ecmp_index(pkt.flow_id, pkt.src, dst,
                                          len(choices), self.ecmp_salt)]
                if len(memo) >= self.ECMP_MEMO_MAX:
                    memo.clear()
                memo[key] = port
        if not port.enqueue(pkt):
            free_packet(pkt)  # dropped at admission; the queue counted it
