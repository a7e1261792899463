"""Packet model.

One concrete :class:`Packet` class serves every protocol in the repo. The
alternative — a class per packet type — buys little type safety in a
simulator and costs allocation time on the hottest path. Transports interpret
the generic fields (``seq``, ``ack``, ``sack`` …) in their own sequence
spaces.

Wire sizes follow the paper's implementation section: a FlexPass data packet
carries Ethernet + IP + UDP + an 18-byte FlexPass header (84 bytes of
overhead including inter-frame gap), and credits/ACKs are minimum-size
84-byte frames, matching ExpressPass's credit sizing.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

#: Maximum segment size — application payload bytes per data packet.
MSS = 1500

#: Per-packet wire overhead for data packets (Ethernet + preamble/IFG + IP +
#: UDP + FlexPass header), and full wire size of minimum-size frames.
DATA_HEADER_BYTES = 84
CREDIT_WIRE_BYTES = 84
ACK_WIRE_BYTES = 84


class PacketKind(enum.IntEnum):
    """What role a packet plays in its protocol."""

    DATA = 0
    ACK = 1
    CREDIT = 2
    CREDIT_REQUEST = 3
    CREDIT_STOP = 4
    GRANT = 5  # Homa scheduled-data grant


class Dscp(enum.IntEnum):
    """Traffic classes (DSCP code points) used to map packets to queues.

    The paper uses five DSCP values (§5): proactive data, reactive data,
    credit, FlexPass control, and legacy. Homa's eight priority levels get
    their own range for the Figure 1(b) motivation experiment.
    """

    CREDIT = 0
    PROACTIVE_DATA = 1
    REACTIVE_DATA = 2
    FLEX_CONTROL = 3
    LEGACY = 4
    HOMA_BASE = 8  # HOMA_BASE + p for priority level p in [0, 7]


class Color(enum.IntEnum):
    """Packet color for color-aware (selective) dropping, §4.1/§5.

    GREEN packets are only dropped when the whole queue exceeds its limit;
    RED packets are dropped as soon as the queue's red-byte occupancy crosses
    the selective-dropping threshold.
    """

    GREEN = 0
    RED = 1


class Packet:
    """A packet in flight.

    Attributes double as protocol header fields; which ones are meaningful
    depends on ``kind`` and the owning transport:

    * ``seq``     — per-sub-flow sequence number (segment units) of DATA, or
      the sequence of the credit for CREDIT packets.
    * ``flow_seq``— per-flow sequence number used for reassembly (FlexPass
      carries both, like MPTCP; plain transports set it equal to ``seq``).
    * ``ack``     — cumulative ACK (next expected seq) on ACK packets.
    * ``sack``    — tuple of selectively-acked seqs above ``ack``.
    * ``subflow`` — 0 = proactive, 1 = reactive (FlexPass), else 0.
    * ``meta``    — small protocol-specific payload (e.g., flow size on a
      credit request, credit sequence echo on data).
    """

    __slots__ = (
        "kind",
        "flow_id",
        "src",
        "dst",
        "size",
        "payload",
        "dscp",
        "color",
        "ecn_capable",
        "ce",
        "seq",
        "flow_seq",
        "ack",
        "sack",
        "subflow",
        "sent_at",
        "meta",
        "_pooled",
        "__weakref__",  # tests watch a dead cell's packets being freed
    )

    def __init__(
        self,
        kind: PacketKind,
        flow_id: int,
        src: int,
        dst: int,
        size: int,
        *,
        payload: int = 0,
        dscp: int = Dscp.LEGACY,
        color: int = Color.GREEN,
        ecn_capable: bool = False,
        seq: int = -1,
        flow_seq: int = -1,
        ack: int = -1,
        sack: Tuple[int, ...] = (),
        subflow: int = 0,
        sent_at: int = -1,
        meta: Optional[int] = None,
    ) -> None:
        self.kind = kind
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size = size  # wire bytes, headers included
        self.payload = payload  # application bytes carried
        self.dscp = dscp
        self.color = color
        self.ecn_capable = ecn_capable
        self.ce = False  # congestion-experienced mark, set by switches
        self.seq = seq
        self.flow_seq = flow_seq
        self.ack = ack
        self.sack = sack
        self.subflow = subflow
        self.sent_at = sent_at
        self.meta = meta
        self._pooled = False  # True only while checked out of a PacketPool

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet {self.kind.name} flow={self.flow_id} {self.src}->{self.dst} "
            f"seq={self.seq} fseq={self.flow_seq} size={self.size}B"
            f"{' CE' if self.ce else ''}>"
        )


def data_wire_size(payload_bytes: int) -> int:
    """Wire size of a data packet carrying ``payload_bytes``."""
    return payload_bytes + DATA_HEADER_BYTES


# --------------------------------------------------------------------- pool

#: Field values a released packet is stamped with in debug mode. Any of them
#: leaking into protocol logic blows up loudly (negative sizes, absurd ids).
_POISON = -0x7D15EA5E  # "poisoned"


_new_packet = Packet.__new__


class PacketPool:
    """A freelist of :class:`Packet` objects for the simulation hot path.

    A simulation at Clos-sweep scale churns through millions of packets whose
    lifetime is a handful of events (host TX -> a few queues -> receiver
    sink). Recycling them through a pool skips the allocator on the hottest
    path; ``acquire`` rewrites every field ``Packet.__init__`` sets, so a
    reused packet is indistinguishable from a fresh one.

    Ownership rules (see DESIGN.md §6d):

    * ``acquire`` transfers ownership to the caller; the packet flows through
      the fabric with its events.
    * The *final consumer* releases: the host that delivered it to an
      endpoint, or whatever dropped it (switch routing failure, a full
      queue, a failed link).
    * ``release`` is a no-op for packets not checked out of a pool, so
      drop/deliver sites can release unconditionally and hand-built test
      packets stay untouched.

    In debug mode (``PacketPool(debug=True)``) released packets are
    *poisoned*: every header field is stamped with an absurd sentinel so
    any use-after-release surfaces as a loud nonsense value, and releasing
    the same packet twice raises.
    """

    __slots__ = ("max_size", "debug", "_free", "acquired", "released",
                 "reused")

    def __init__(self, max_size: int = 8192, debug: bool = False) -> None:
        if max_size < 0:
            raise ValueError("pool max_size must be nonnegative")
        self.max_size = max_size
        self.debug = debug
        self._free: List[Packet] = []
        self.acquired = 0
        self.released = 0
        self.reused = 0

    def __len__(self) -> int:
        return len(self._free)

    def acquire(
        self,
        kind: PacketKind,
        flow_id: int,
        src: int,
        dst: int,
        size: int,
        *,
        payload: int = 0,
        dscp: int = Dscp.LEGACY,
        color: int = Color.GREEN,
        ecn_capable: bool = False,
        seq: int = -1,
        flow_seq: int = -1,
        ack: int = -1,
        sack: Tuple[int, ...] = (),
        subflow: int = 0,
        sent_at: int = -1,
        meta: Optional[int] = None,
    ) -> Packet:
        """Check a packet out of the pool (or allocate a fresh one).

        Takes the fields of ``Packet.__init__`` and stores them here, so the
        per-packet TX path is this one frame: no ``**kwargs`` dict, no
        ``__init__`` call.
        """
        self.acquired += 1
        free = self._free
        if free:
            pkt = free.pop()
            self.reused += 1
            if self.debug and pkt.kind != _POISON:
                raise RuntimeError(
                    "packet pool corruption: a pooled packet was mutated "
                    "after release (use-after-release)"
                )
        else:
            pkt = _new_packet(Packet)
        pkt.kind = kind
        pkt.flow_id = flow_id
        pkt.src = src
        pkt.dst = dst
        pkt.size = size
        pkt.payload = payload
        pkt.dscp = dscp
        pkt.color = color
        pkt.ecn_capable = ecn_capable
        pkt.ce = False
        pkt.seq = seq
        pkt.flow_seq = flow_seq
        pkt.ack = ack
        pkt.sack = sack
        pkt.subflow = subflow
        pkt.sent_at = sent_at
        pkt.meta = meta
        pkt._pooled = True
        return pkt

    def release(self, pkt: Packet) -> None:
        """Return a packet to the pool.

        Safe to call on any packet: hand-built (non-pooled) packets are
        ignored, so every drop/deliver site can release unconditionally.
        """
        if not pkt._pooled:
            if self.debug and pkt.kind == _POISON:
                raise RuntimeError(
                    f"double release of pooled packet {id(pkt):#x}"
                )
            return
        pkt._pooled = False
        self.released += 1
        if self.debug:
            self._poison(pkt)
        if len(self._free) < self.max_size:
            self._free.append(pkt)

    @staticmethod
    def _poison(pkt: Packet) -> None:
        pkt.kind = _POISON  # type: ignore[assignment]
        pkt.flow_id = _POISON
        pkt.src = _POISON
        pkt.dst = _POISON
        pkt.size = _POISON
        pkt.payload = _POISON
        pkt.seq = _POISON
        pkt.flow_seq = _POISON
        pkt.ack = _POISON
        pkt.sack = ()
        pkt.meta = None

    @staticmethod
    def is_poisoned(pkt: Packet) -> bool:
        """True if ``pkt`` carries the released-packet stamp (debug mode)."""
        return pkt.kind == _POISON


#: Process-wide default pool. Each worker process of a sweep gets its own
#: copy (module state does not cross ``multiprocessing`` boundaries).
_DEFAULT_POOL = PacketPool()


def packet_pool() -> PacketPool:
    """The process-wide default pool (stats, debug flag, tests)."""
    return _DEFAULT_POOL


#: Acquire a packet from the default pool — drop-in for ``Packet(...)`` on
#: transport TX paths. Bound directly, so an allocation is one frame.
alloc_packet = _DEFAULT_POOL.acquire


def free_packet(pkt: Packet) -> None:
    """Release a packet to the default pool (no-op for non-pooled packets)."""
    _DEFAULT_POOL.release(pkt)
