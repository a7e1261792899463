"""Packet tracing: per-flow event timelines for debugging and analysis.

A :class:`PacketTracer` records, for chosen flows, every packet the egress
ports of a set of nodes put on the wire — (serialization-end time, port,
kind, sub-flow, seq) tuples, the moral equivalent of ns-2's trace files,
scoped to keep memory bounded. Useful for post-mortems ("where did segment
17's retransmission travel?") and for the timeline assertions in tests.

Tracing changes nothing about a run. Each watched port's link is wrapped in
a :class:`TracedLink` (the pattern of :func:`repro.faults.link.splice`):
the port hands it every packet at transmit start with the packet's
serialization delay, the proxy records the exact serialization-end instant
``now + extra_ns`` and forwards the call untouched. No event is scheduled,
no port fast path is turned off, and FCTs, counters and audit digests are
those of the untraced run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, TYPE_CHECKING

from repro.net.packet import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node


@dataclass
class TraceEvent:
    time_ns: int
    port: str
    kind: str
    flow_id: int
    subflow: int
    seq: int
    flow_seq: int
    size: int
    ce: bool

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        mark = " CE" if self.ce else ""
        return (f"{self.time_ns / 1e6:10.4f}ms {self.port:<18} "
                f"{self.kind:<14} flow={self.flow_id} sub={self.subflow} "
                f"seq={self.seq} fseq={self.flow_seq}{mark}")


class TracedLink:
    """A port's link with a recorder in front of it.

    ``carry_after(extra_ns, pkt)`` — the one call a port makes, at transmit
    start — is recorded and forwarded; every other attribute, read or
    written, is the wrapped link's.
    """

    __slots__ = ("link", "record")

    def __init__(self, link, record) -> None:
        object.__setattr__(self, "link", link)
        #: called with (serialization-end instant, packet)
        object.__setattr__(self, "record", record)

    def carry_after(self, extra_ns: int, pkt: Packet) -> None:
        link = self.link
        self.record(link.sim.now + extra_ns, pkt)
        link.carry_after(extra_ns, pkt)

    def __getattr__(self, name):
        return getattr(self.link, name)

    def __setattr__(self, name, value) -> None:
        setattr(self.link, name, value)


class PacketTracer:
    """Records every packet of the watched flows the watched ports send.

    Events are in the order ports committed packets to the wire, each
    stamped with its serialization end; one port's events are in time
    order, and a packet's hops are in path order. Always :meth:`close` the
    tracer when done with it, which gives every port back its own link — or
    use it as a context manager, which does so on exit:

    >>> with PacketTracer(topo.nodes()) as tracer:
    ...     sim.run(until=horizon)
    >>> tracer.path_of(1, 0)   # events remain queryable after close
    """

    def __init__(self, nodes: Iterable["Node"],
                 flow_ids: Optional[Iterable[int]] = None,
                 max_events: int = 1_000_000) -> None:
        self.flow_ids: Optional[Set[int]] = (
            set(flow_ids) if flow_ids is not None else None
        )
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        self.overflowed = False
        self._traced = []  # (port, TracedLink) pairs, for uninstall
        for node in nodes:
            for port in node.ports.values():
                traced = TracedLink(port.link, self._make_hook(port.name))
                port.link = traced
                self._traced.append((port, traced))

    def close(self) -> None:
        """Give every port back the link it had. Idempotent; recorded
        events stay. A port whose link was replaced since (a fault
        splice wraps the traced link) is left as it is."""
        for port, traced in self._traced:
            if port.link is traced:
                port.link = traced.link
        self._traced.clear()

    def __enter__(self) -> "PacketTracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _make_hook(self, port_name: str):
        def hook(tx_end_ns: int, pkt: Packet) -> None:
            if self.flow_ids is not None and pkt.flow_id not in self.flow_ids:
                return
            if len(self.events) >= self.max_events:
                self.overflowed = True
                return
            self.events.append(TraceEvent(
                tx_end_ns, port_name, PacketKind(pkt.kind).name,
                pkt.flow_id, pkt.subflow, pkt.seq, pkt.flow_seq,
                pkt.size, pkt.ce,
            ))

        return hook

    # ------------------------------------------------------------ queries

    def path_of(self, flow_id: int, flow_seq: int,
                subflow: Optional[int] = None) -> List[str]:
        """Ordered ports a given data segment traversed."""
        return [
            e.port
            for e in self.events
            if e.flow_id == flow_id and e.flow_seq == flow_seq
            and e.kind == "DATA"
            and (subflow is None or e.subflow == subflow)
        ]

    def dump(self, limit: int = 50) -> str:
        lines = [str(e) for e in self.events[:limit]]
        if len(self.events) > limit:
            lines.append(f"... {len(self.events) - limit} more events")
        return "\n".join(lines)
