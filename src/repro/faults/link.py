"""FaultyLink: attach loss/corruption models and up/down state to any Link.

The wrapper mirrors :class:`repro.net.link.Link`'s interface
(``carry_after``, ``sim``, ``dst``, ``delay_ns``, delivery counters) so an
:class:`repro.net.port.EgressPort` cannot tell the difference — splicing is
one attribute assignment. Unlike the plain link, a FaultyLink schedules its
own delivery events and remembers their handles, so a link failure can
discard packets *mid-propagation* (the in-flight bytes a real cable cut
destroys) instead of only blocking new transmissions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.faults.counters import FaultCounters
from repro.faults.models import LossModel, PredicateLoss
from repro.net.packet import free_packet

if TYPE_CHECKING:  # pragma: no cover
    from typing import Callable

    from repro.net.link import Link
    from repro.net.packet import Packet
    from repro.net.port import EgressPort
    from repro.sim.engine import EventHandle


class FaultyLink:
    """Wraps a Link with loss/corruption models and an up/down switch.

    * ``loss`` — packets matching the model vanish on the wire (silent loss,
      the §4.3 "switch failure" case).
    * ``corruption`` — packets matching the model still propagate but are
      discarded at the receiving NIC with a counter (a frame that fails CRC).
    * ``fail()`` / ``restore()`` — down links drop every new packet and
      discard anything already in flight.
    """

    def __init__(
        self,
        link: "Link",
        loss: Optional[LossModel] = None,
        corruption: Optional[LossModel] = None,
        counters: Optional[FaultCounters] = None,
        keep_dropped: bool = False,
    ) -> None:
        self.inner = link
        self.sim = link.sim
        self.dst = link.dst
        self.delay_ns = link.delay_ns
        self.loss = loss
        self.corruption = corruption
        self.counters = counters if counters is not None else FaultCounters()
        self.down = False
        self.packets_delivered = 0
        self.bytes_delivered = 0
        #: dropped packets, recorded only when ``keep_dropped`` (tests)
        self.dropped: List["Packet"] = []
        self._keep_dropped = keep_dropped
        self._in_flight: Dict[int, "EventHandle"] = {}
        self._flight_seq = 0

    # ----------------------------------------------------------------- wire

    def carry_after(self, extra_ns: int, pkt: "Packet") -> None:
        """Coalesced-TX entry point (see :meth:`repro.net.link.Link.carry_after`).

        Fault decisions must happen when the packet actually reaches the wire
        (serialization end), not at TX start — a link that fails mid-
        transmission should still destroy the frame. So instead of folding
        the propagation delay into one event, defer ``carry`` itself.
        """
        self.sim.after(extra_ns, self.carry, pkt)

    def carry(self, pkt: "Packet") -> None:
        """Propagate, lose, or corrupt one packet."""
        if self.down:
            self.counters.dropped_link_down += 1
            self._record(pkt)
            return
        if self.loss is not None and self.loss.should_drop(pkt):
            self.counters.injected_drops += 1
            self._record(pkt)
            return
        if self.corruption is not None and self.corruption.should_drop(pkt):
            # The frame occupies the wire for its full flight time and is
            # then rejected by the NIC — it consumed bandwidth but no
            # endpoint ever sees it.
            self.sim.after(self.delay_ns, self._deliver_corrupted, pkt)
            return
        token = self._flight_seq
        self._flight_seq += 1
        self._in_flight[token] = self.sim.after(
            self.delay_ns, self._deliver, token, pkt
        )

    def _deliver(self, token: int, pkt: "Packet") -> None:
        self._in_flight.pop(token, None)
        self.packets_delivered += 1
        self.bytes_delivered += pkt.size
        self.dst.receive(pkt)

    def _deliver_corrupted(self, pkt: "Packet") -> None:
        self.counters.corrupted += 1
        self._record(pkt)

    # ------------------------------------------------------------ up / down

    def fail(self) -> None:
        """Take the link down, destroying everything currently in flight."""
        if self.down:
            return
        self.down = True
        for handle in self._in_flight.values():
            # Grab the frame before cancel() clears the event args: a
            # discarded packet still has to go back to the freelist (or the
            # keep_dropped ledger) or the pool leaks one packet per discard.
            pkt = handle.args[1] if len(handle.args) == 2 else None
            handle.cancel()
            self.counters.discarded_in_flight += 1
            if pkt is not None:
                self._record(pkt)
        self._in_flight.clear()

    def restore(self) -> None:
        """Bring the link back up; subsequent packets propagate normally."""
        self.down = False

    # -------------------------------------------------------------- helpers

    def release(self) -> None:
        """Release the wrapped link (see :meth:`repro.net.link.Link.release`)."""
        self.inner.release()

    def in_flight(self) -> int:
        """Packets currently propagating (for tests/diagnostics)."""
        return len(self._in_flight)

    def _record(self, pkt: "Packet") -> None:
        if self._keep_dropped:
            self.dropped.append(pkt)
        else:
            # Nothing retains the frame: recycle it (no-op for unpooled ones).
            free_packet(pkt)


class LossyLink(FaultyLink):
    """A FaultyLink driven by a plain predicate, recording what it drops.

    This is the targeted-drop helper the §4.3 recovery tests are built on
    (drop exactly segment N, drop the first credit request, ...). It lives
    in the library so test and experiment fault paths cannot drift.
    """

    def __init__(self, link: "Link", should_drop: "Callable[[Packet], bool]") -> None:
        super().__init__(link, loss=PredicateLoss(should_drop), keep_dropped=True)


def splice(
    port: "EgressPort",
    loss: Optional[LossModel] = None,
    corruption: Optional[LossModel] = None,
    counters: Optional[FaultCounters] = None,
) -> FaultyLink:
    """Wrap ``port``'s link in a FaultyLink (idempotent) and return it.

    If the port is already spliced, the existing wrapper is reused and the
    given models replace any unset ones — so loss injection and scheduled
    failures can share a single wrapper per link.
    """
    link = port.link
    if isinstance(link, FaultyLink):
        if loss is not None:
            link.loss = loss if link.loss is None else _chain(link.loss, loss)
        if corruption is not None:
            link.corruption = (corruption if link.corruption is None
                               else _chain(link.corruption, corruption))
        return link
    faulty = FaultyLink(link, loss=loss, corruption=corruption, counters=counters)
    port.link = faulty
    return faulty


def splice_lossy(port: "EgressPort", should_drop: "Callable[[Packet], bool]") -> LossyLink:
    """Wrap ``port``'s link in a predicate-driven LossyLink and return it."""
    lossy = LossyLink(port.link, should_drop)
    port.link = lossy
    return lossy


class _chain(LossModel):
    """Drop if either of two models drops (both always step, keeping each
    model's random stream independent of the other's decisions)."""

    def __init__(self, first: LossModel, second: LossModel) -> None:
        self.first = first
        self.second = second

    def should_drop(self, pkt: "Packet") -> bool:
        a = self.first.should_drop(pkt)
        b = self.second.should_drop(pkt)
        return a or b
