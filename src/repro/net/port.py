"""Store-and-forward egress port.

The port is where the paper's switch mechanics compose: an arriving packet is
classified by DSCP into one of the port's queues, passes per-queue admission
(selective dropping, static caps), then shared-buffer admission (dynamic
threshold), and finally waits for the two-level scheduler to pick it. The
port serializes exactly one packet at a time onto its link.

Every port shape — the paper's paced credit queue over DWRR data queues
(§4.1), the naive two-queue port, a single FIFO — runs the same two
functions per hop: :meth:`EgressPort.enqueue`, and :meth:`EgressPort._serve`
calling :meth:`PortScheduler.next`. ``enqueue`` applies admission, the buffer
charge, ECN marking, the FIFO append and the ``QueueStats`` updates inline
against the queue's own fields; the rules are those of
``PacketQueue.admit/push`` and ``SharedBuffer.try_admit``, which stay as the
readable form ``tests/test_net_port_flat.py`` compares against. "Is anything
queued" is read off the queues' FIFO lists.

Transmissions are *coalesced*: at transmit start the port schedules the
packet's arrival at the far end as one event (``link.carry_after``) and posts
a wire-free event — ``_serve`` itself, with no argument — only when backlog
remains to need the wire at that instant. Wire occupancy is a timestamp,
``_free_at``. One shortcut sits on that path, *cut-through* in ``enqueue``
(idle wire, drained port, unpaced queue), explained where it is taken.
Every serve event starts exactly one packet: a packet committed to the wire
ahead of its serialization slot would be served before a higher-priority
arrival that a per-packet serve would pick, and would leave the shared
buffer early (DESIGN.md §6h). A wake armed for a token-starved paced queue
is cancelled by every enqueue and armed afresh, never kept (see
``enqueue``). ``carry_after`` is the port's only call into
its link, so whatever observes or perturbs the wire (a fault splice, a
packet tracer) wraps ``port.link`` and leaves this path alone.

Shared-buffer bytes are released when the packet leaves its queue (transmit
start): the buffer tracks *queued* bytes, the serializer slot is free
(DESIGN.md §6d).
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.net.link import Link
from repro.net.packet import Color, Packet
from repro.net.scheduler import PortScheduler, QueueSchedule
from repro.sim.units import tx_time_ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import EventHandle, Simulator

_RED = int(Color.RED)


class EgressPort:
    """An output port: classifier + queues + scheduler + serializer."""

    __slots__ = ("sim", "name", "rate_bps", "buffer", "scheduler", "_queues",
                 "classifier", "link", "_wake_handle",
                 "_serve_pending", "_free_at", "_tx_cache", "_sched_next",
                 "_serve_cb",
                 "_fifos", "_q_unpaced", "_ct_rr", "_rr_pos",
                 "__weakref__")  # tests watch a dead cell's ports being freed

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        rate_bps: int,
        buffer,  # SharedBuffer or UnlimitedBuffer
        schedules: List[QueueSchedule],
        classifier: Dict[int, int],
        link: Link,
        tx_cache: Dict[int, int],
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("port rate must be positive")
        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        self.buffer = buffer
        self.scheduler = PortScheduler(schedules)
        #: the scheduler's queues in queue-index order (enqueue indexes
        #: this per packet, so it is read once)
        self._queues = self.scheduler.queues
        self.classifier = classifier
        self.link = link
        self._wake_handle: Optional["EventHandle"] = None
        #: a ``_serve`` event is queued (wire busy + work waiting)
        self._serve_pending = False
        #: the wire is serializing until this instant
        self._free_at = 0
        #: serialization delay per wire size — few distinct sizes per run;
        #: a fabric passes one table to all its ports of this rate
        self._tx_cache = tx_cache
        #: the scheduler never changes after construction (link splicing
        #: swaps ``self.link``, never this)
        self._sched_next = self.scheduler.next
        #: ``_serve`` bound once: every wire-free event posts this object
        self._serve_cb = self._serve
        #: every queue's FIFO: "is the port drained" is read off these
        self._fifos = self.scheduler.fifos
        #: per-queue-index flag: eligible for cut-through (no pacer)
        self._q_unpaced = [s.pacer is None for s in schedules]
        #: what a cut-through stores into the scheduler's DWRR positions
        self._ct_rr = self.scheduler.cut_through_rr
        self._rr_pos = self.scheduler.rr_pos

    @property
    def busy(self) -> bool:
        """True while a packet is being serialized onto the link."""
        return self.sim._now < self._free_at

    # ------------------------------------------------------------------ RX

    def enqueue(self, pkt: Packet) -> bool:
        """Admit a packet into this port. Returns False if dropped."""
        qidx = self.classifier.get(pkt.dscp)
        if qidx is None:
            # A packet whose class has no queue is a wiring bug in the
            # scenario; dropping silently would mask it.
            raise KeyError(
                f"port {self.name}: no queue configured for DSCP {pkt.dscp}"
            )
        queue = self._queues[qidx]
        st = queue.stats
        size = pkt.size
        occupancy = queue.byte_count + size
        red = pkt.color == _RED
        # Per-queue admission: selective (color-aware) drop, then the cap.
        if not queue.trivial_admit:
            limit = queue._sel_drop
            if limit is not None and red and queue.red_bytes + size > limit:
                st.dropped_selective += 1
                return False
            limit = queue._cap
            if limit is not None and occupancy > limit:
                st.dropped_cap += 1
                return False
        # Shared buffer: hard capacity, then the dynamic threshold
        # (``UnlimitedBuffer`` carries a capacity and alpha that never bind).
        buf = self.buffer
        used = buf.used
        free = buf.capacity - used
        if size > free or occupancy > buf.alpha * free:
            buf.drops += 1
            st.dropped_buffer += 1
            return False
        # DCTCP marking: the occupancy *including* this packet exceeds K.
        if queue._marking and pkt.ecn_capable:
            k = queue._mark_k
            if k is None:
                queue._maybe_mark(pkt)  # RED ramp
            elif occupancy > k:
                pkt.ce = True
                st.ecn_marked += 1
        st.enqueued += 1
        st.bytes_enqueued += size
        if occupancy > st.max_bytes:
            st.max_bytes = occupancy
        if red:
            red_bytes = queue.red_bytes + size
            if red_bytes > st.max_red_bytes:
                st.max_red_bytes = red_bytes
        now = self.sim._now
        if (not self._serve_pending and now >= self._free_at
                and self._q_unpaced[qidx]):
            for fifo in self._fifos:
                if fifo:
                    break
            else:
                # Cut-through: idle wire, fully drained port, unpaced target
                # queue — transmit right away without a FIFO round trip or
                # a scheduler visit. The packet has zero residence time, so
                # it is never charged to the buffer, and with every queue
                # empty the scheduler could only have picked this packet
                # anyway.
                st.dequeued += 1
                rr = self._ct_rr[qidx]
                if rr is not None:
                    self._rr_pos[rr[0]] = rr[1]
                txt = self._tx_cache.get(size)
                if txt is None:
                    txt = self._tx_cache[size] = tx_time_ns(size, self.rate_bps)
                self._free_at = now + txt
                self.link.carry_after(txt, pkt)
                return True
        queue._fifo.append(pkt)
        queue.byte_count = occupancy
        if red:
            queue.red_bytes = red_bytes
        buf.used = used + size
        if self._wake_handle is not None:
            # A new packet can beat a paced queue's projected wake time.
            # The wake is re-armed from scratch, never kept: its sequence
            # number decides same-instant ties against packet arrivals, and
            # an older one would reorder them.
            self._wake_handle.cancel()
            self._wake_handle = None
        if not self._serve_pending:
            if now >= self._free_at:
                self._serve()
            else:
                # Wire busy with nothing scheduled at its release (the
                # in-flight packet left an empty backlog behind): arm the
                # serve event this packet now needs.
                self._serve_pending = True
                self.sim.post_at(self._free_at, self._serve_cb)
        return True

    # ------------------------------------------------------------------ TX

    def _on_wake(self) -> None:
        self._wake_handle = None
        if not self._serve_pending and self.sim._now >= self._free_at:
            self._serve()

    def _serve(self, _=None) -> None:
        """Start the next transmission. Runs only when the wire is idle:
        called directly, or as the posted wire-free event (whose one
        calendar argument is ``None``)."""
        self._serve_pending = False
        sim = self.sim
        now = sim._now
        pkt, wake = self._sched_next(now)
        if pkt is None:
            if wake is not None:
                self._wake_handle = sim.at(wake, self._on_wake)
            return
        size = pkt.size
        txt = self._tx_cache.get(size)
        if txt is None:
            txt = self._tx_cache[size] = tx_time_ns(size, self.rate_bps)
        # The packet left its queue: its bytes stop counting against the
        # shared buffer now (the buffer limits *queued* bytes).
        buf = self.buffer
        buf.used -= size
        if buf.used < 0:
            raise RuntimeError("shared buffer accounting went negative")
        self.link.carry_after(txt, pkt)
        self._free_at = now + txt
        for fifo in self._fifos:
            if fifo:
                self._serve_pending = True
                sim.post(txt, self._serve_cb)
                break
        # else: coalesced fast path — no tx-done event; the next enqueue
        # (or nothing) decides what happens when the wire frees.

    # ------------------------------------------------------------- helpers

    def release(self) -> None:
        """Drop the bound callbacks by which this port and its link refer
        to themselves (see :meth:`Node.release`)."""
        self._serve_cb = None
        self.link.release()

    def backlog_bytes(self) -> int:
        return sum(q.byte_count for q in self._queues)

    def queue(self, idx: int):
        return self._queues[idx]
