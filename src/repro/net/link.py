"""Point-to-point link: fixed propagation delay toward a destination node."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node
    from repro.net.packet import Packet
    from repro.sim.engine import Simulator


class Link:
    """One direction of a cable: delivers packets to ``dst`` after ``delay``.

    Every delivery it posts carries the same callable, ``_deliver`` bound
    once here rather than once per packet; :meth:`release` drops it, since
    the link refers to itself through it.
    """

    __slots__ = ("sim", "dst", "delay_ns", "packets_delivered",
                 "bytes_delivered", "_deliver_cb",
                 "__weakref__")  # tests watch a dead cell's links being freed

    def __init__(self, sim: "Simulator", dst: "Node", delay_ns: int) -> None:
        if delay_ns < 0:
            raise ValueError("propagation delay must be nonnegative")
        self.sim = sim
        self.dst = dst
        self.delay_ns = delay_ns
        self.packets_delivered = 0
        self.bytes_delivered = 0
        self._deliver_cb = self._deliver

    def carry_after(self, extra_ns: int, pkt: "Packet") -> None:
        """Propagate ``pkt``, which finishes serializing ``extra_ns`` from now.

        The egress port calls it at *transmit start*, folding serialization
        and propagation into one scheduled event (arrival at ``now +
        extra_ns + delay_ns``). :class:`repro.faults.link.FaultyLink`
        overrides it to keep making its loss decisions at serialization end.
        """
        self.sim.post(extra_ns + self.delay_ns, self._deliver_cb, pkt)

    def release(self) -> None:
        """Drop the bound delivery callback (see :meth:`Node.release`)."""
        self._deliver_cb = None

    def _deliver(self, pkt: "Packet") -> None:
        self.packets_delivered += 1
        self.bytes_delivered += pkt.size
        self.dst.receive(pkt)
