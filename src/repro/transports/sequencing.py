"""Sequence-space bookkeeping shared by all transports.

Segments are numbered 0..n-1 in each sequence space. FlexPass uses three
spaces per flow (flow space for reassembly, one space per sub-flow for
congestion control and loss detection), exactly like MPTCP's data/sub-flow
split (§4.2). The classes here are space-agnostic.

What is shared, and lives only here: the receiver's scoreboard, per-packet
ACK (:func:`send_ack`) and reorder gauge (:func:`track_reorder`) for the
DCTCP / ExpressPass / FlexPass receivers, and the tombstone a finished
DCTCP / ExpressPass receiver leaves (:class:`AckingTombstone`); the
sender's ACK/SACK scoreboard (every sender) and the single-space
:class:`RetransmitQueue` that DCTCP, ExpressPass and Layering pick their
next seq from. FlexPass keeps its
per-segment state in :class:`repro.core.segments.SendBuffer` instead, and
one scoreboard per sub-flow in :class:`repro.core.flexpass.SubFlow`.
"""

from __future__ import annotations

import heapq
from typing import (
    AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple,
    TYPE_CHECKING, Union,
)

from repro.net.packet import ACK_WIRE_BYTES, MSS, Packet, PacketKind, alloc_packet
from repro.transports.base import Tombstone

if TYPE_CHECKING:  # pragma: no cover
    from repro.transports.base import FlowSpec, FlowStats

#: What every scoreboard's set of seqs above its cum starts as: one shared,
#: immutable empty set. Most boards never see a seq out of order; a board
#: that does gets its own set then.
NO_SEQS: FrozenSet[int] = frozenset()


class ReceiveScoreboard:
    """Receiver-side tracking of which seqs arrived; produces cum + SACK."""

    __slots__ = ("_cum", "_ooo", "duplicates", "_sack_limit")

    def __init__(self, sack_limit: int = 16, cum: int = 0) -> None:
        self._cum = cum  # next expected seq
        self._ooo: AbstractSet[int] = NO_SEQS
        self.duplicates = 0
        self._sack_limit = sack_limit

    @property
    def cum(self) -> int:
        """Next expected sequence number (all below are received)."""
        return self._cum

    def add(self, seq: int) -> bool:
        """Record arrival of ``seq``. Returns True if it was new."""
        if seq < self._cum or seq in self._ooo:
            self.duplicates += 1
            return False
        if seq == self._cum:
            self._cum += 1
            while self._cum in self._ooo:
                self._ooo.discard(self._cum)
                self._cum += 1
        elif self._ooo is NO_SEQS:
            self._ooo = {seq}
        else:
            self._ooo.add(seq)
        return True

    def sack(self) -> Tuple[int, ...]:
        """Out-of-order seqs above cum, capped to the *highest* few.

        Like TCP SACK's most-recent-first reporting: under heavy loss the
        freshest arrivals are the news the sender needs for dupack-based
        detection; the oldest holes are already implied by ``cum``.
        """
        if not self._ooo:
            return ()
        ordered = sorted(self._ooo)
        return tuple(ordered[-self._sack_limit:])

    def received_count(self) -> int:
        return self._cum + len(self._ooo)

    def settled(self) -> Settled:
        """What a finished flow keeps of this board: the board itself while
        seqs sit above its cum, else just the cum (an int: a board with
        nothing above it)."""
        return self if self._ooo else self._cum


#: a settled receive board (see :meth:`ReceiveScoreboard.settled`)
Settled = Union[ReceiveScoreboard, int]


def board_at(board: Settled, seq: int) -> Settled:
    """A settled board after a late arrival of ``seq``, settled again."""
    if type(board) is int:
        board = ReceiveScoreboard(cum=board)
    board.add(seq)
    return board.settled()


def cum_and_sack(board: Settled) -> Tuple[int, Tuple[int, ...]]:
    """A settled board's cumulative point and SACK list."""
    if type(board) is int:
        return board, ()
    return board.cum, board.sack()


def send_ack(spec: "FlowSpec", dscp: int, cum: int, sack: Tuple[int, ...],
             data: Packet, subflow: int = 0) -> None:
    """ACK one data packet with a receive board's ``cum`` and ``sack``,
    plus the packet's own seq, send timestamp (``meta=1``:
    RTT-sampleable) and CE bit echoed. Only ECN-capable data is ever
    marked, so the echo is inert on a credit-scheduled sub-flow."""
    ack = alloc_packet(
        PacketKind.ACK, spec.flow_id, spec.dst.id, spec.src.id,
        ACK_WIRE_BYTES, dscp=dscp, ack=cum, sack=sack,
        seq=data.seq, subflow=subflow, sent_at=data.sent_at, meta=1,
    )
    ack.ce = data.ce
    spec.dst.send(ack)


class AckingTombstone(Tombstone):
    """A finished DCTCP, ExpressPass or Layering flow in its receiver's
    place: late data is a duplicate, ACKed as the receiver would (cum =
    every segment, no SACK, the packet's seq, timestamp and CE echoed);
    anything else, a late ``CREDIT_REQUEST`` included, is ignored."""

    __slots__ = ("ack_dscp",)

    def __init__(self, spec: "FlowSpec", stats: "FlowStats",
                 ack_dscp: int) -> None:
        super().__init__(spec, stats)
        self.ack_dscp = ack_dscp

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind == PacketKind.DATA:
            self.stats.duplicate_bytes += pkt.payload
            send_ack(self.spec, self.ack_dscp, self.spec.n_segments, (), pkt)


def track_reorder(stats: "FlowStats", board: ReceiveScoreboard) -> None:
    """Raise ``stats.max_reorder_bytes`` to the bytes ``board`` holds above
    its cumulative point (an MSS-granularity estimate)."""
    reorder_bytes = (board.received_count() - board.cum) * MSS
    if reorder_bytes > stats.max_reorder_bytes:
        stats.max_reorder_bytes = reorder_bytes


class SenderScoreboard:
    """Sender-side ACK/SACK processing with SACK-based loss detection.

    A transmitted seq is declared lost once ``dupthresh`` seqs above it have
    been acknowledged after its transmission (RFC 6675-style), or when the
    retransmission timer fires. Callers learn about transitions through the
    return values of :meth:`on_ack`. ``_acked`` holds only the acked seqs
    at or above ``cum`` (the rest it implies). That is O(window) only while
    the holes below them fill. FlexPass recovers a lost reactive copy on
    the proactive sub-flow, never in the reactive space, so that space keeps
    its hole for good: from then on the reactive ``_acked`` (and the
    receiver's reactive ``ReceiveScoreboard._ooo``) grows with every
    reactive seq sent, O(flow).
    """

    __slots__ = ("dupthresh", "_outstanding", "_acked", "_cum", "_dup_counts")

    def __init__(self, dupthresh: int = 3) -> None:
        self.dupthresh = dupthresh
        self._outstanding: Dict[int, int] = {}  # seq -> sent_at (ns)
        self._acked: AbstractSet[int] = NO_SEQS
        self._cum = 0  # everything below is acked
        self._dup_counts: Dict[int, int] = {}

    # ------------------------------------------------------------- sending

    def on_send(self, seq: int, now_ns: int) -> None:
        self._outstanding[seq] = now_ns
        # A fresh send restarts the seq's dupack count: absent reads as 0.
        self._dup_counts.pop(seq, None)

    @property
    def in_flight(self) -> int:
        return len(self._outstanding)

    def oldest_outstanding(self) -> Optional[int]:
        return min(self._outstanding) if self._outstanding else None

    def sent_at(self, seq: int) -> Optional[int]:
        return self._outstanding.get(seq)

    @property
    def n_acked(self) -> int:
        return self._cum + len(self._acked)

    # ---------------------------------------------------------------- acks

    def on_ack(self, cum: int, sack: Iterable[int],
               echo: int = -1) -> Tuple[List[int], List[int]]:
        """Process an ACK. Returns ``(newly_acked, newly_lost)`` seq lists.
        ``echo`` is the seq of the data packet a per-packet ACK answers
        (``Packet.seq``); it counts as one more SACK entry.

        ``newly_acked`` reports every seq newly known to be delivered — even
        one previously declared lost (a spurious loss detection, or the
        cumulative ACK of a retransmission): cumulative coverage is
        authoritative, and callers must be able to cancel pending
        retransmissions for such seqs.
        """
        if echo >= 0:
            sack = (*sack, echo)
        newly_acked: List[int] = []
        news_above: List[int] = []
        if cum > self._cum:
            for seq in range(self._cum, cum):
                if seq in self._outstanding:
                    del self._outstanding[seq]
                    self._dup_counts.pop(seq, None)
                if seq in self._acked:
                    self._acked.discard(seq)
                else:
                    newly_acked.append(seq)
            self._cum = cum
            news_above.append(cum - 1)
        acked = self._acked
        for seq in sack:
            if seq >= self._cum and seq not in acked:
                if acked is NO_SEQS:
                    acked = self._acked = set()
                acked.add(seq)
                news_above.append(seq)
                if seq in self._outstanding:
                    del self._outstanding[seq]
                    self._dup_counts.pop(seq, None)
                newly_acked.append(seq)
        newly_lost = self._detect_losses(news_above)
        return newly_acked, newly_lost

    def _detect_losses(self, news_above: List[int]) -> List[int]:
        if not news_above or not self._outstanding:
            return []
        highest_news = max(news_above)
        lost: List[int] = []
        for seq in list(self._outstanding):
            if seq < highest_news:
                self._dup_counts[seq] = self._dup_counts.get(seq, 0) + 1
                if self._dup_counts[seq] >= self.dupthresh:
                    del self._outstanding[seq]
                    self._dup_counts.pop(seq, None)
                    lost.append(seq)
        return sorted(lost)

    def remove(self, seq: int) -> bool:
        """Drop an in-flight entry that was implicitly acknowledged out of
        band (e.g., the same FlexPass segment ACKed on the other sub-flow).
        Returns True if the seq was outstanding."""
        if seq in self._outstanding:
            del self._outstanding[seq]
            self._dup_counts.pop(seq, None)
            if self._acked is NO_SEQS:
                self._acked = {seq}
            else:
                self._acked.add(seq)
            return True
        return False

    def declare_all_lost(self) -> List[int]:
        """Timeout path: every in-flight seq is presumed lost."""
        lost = sorted(self._outstanding)
        self._outstanding.clear()
        self._dup_counts.clear()
        return lost

    def is_acked(self, seq: int) -> bool:
        return seq < self._cum or seq in self._acked


class RetransmitQueue:
    """What a single-space sender transmits next, and what an ACK changes.

    A :class:`SenderScoreboard` (also the record of what is acked), the
    next never-sent seq, and the detected losses awaiting retransmission: a
    min-heap with lazy deletion, where ``_lost_set`` says which heap entries
    are still wanted (an acked seq is only dropped from the set).
    """

    __slots__ = ("scoreboard", "stats", "n_segments", "next_new",
                 "_lost_heap", "_lost_set")

    def __init__(self, n_segments: int, stats: "FlowStats",
                 dupthresh: int = 3) -> None:
        self.scoreboard = SenderScoreboard(dupthresh=dupthresh)
        self.stats = stats
        self.n_segments = n_segments
        self.next_new = 0
        self._lost_heap: List[int] = []
        self._lost_set: Set[int] = set()

    @property
    def all_acked(self) -> bool:
        return self.scoreboard.n_acked == self.n_segments

    def next_seq(self) -> Optional[int]:
        """The seq to transmit now: the lowest detected loss (counted as a
        retransmission), else new data, else None."""
        while self._lost_heap:
            seq = heapq.heappop(self._lost_heap)
            if seq in self._lost_set:
                self._lost_set.discard(seq)
                self.stats.retransmissions += 1
                return seq
        if self.next_new < self.n_segments:
            seq = self.next_new
            self.next_new += 1
            return seq
        return None

    def resend_oldest(self) -> Optional[int]:
        """Tail-loss shield of a credit-clocked sender with nothing else to
        send: the oldest unacked seq again, speculatively (the receiver only
        credits while it is missing data)."""
        oldest = self.scoreboard.oldest_outstanding()
        if oldest is not None:
            self.stats.retransmissions += 1
        return oldest

    def on_send(self, seq: int, now_ns: int) -> None:
        """``seq`` goes on the wire. A speculative resend of a seq still in
        flight keeps its first send time and dupack count."""
        if self.scoreboard.sent_at(seq) is None:
            self.scoreboard.on_send(seq, now_ns)

    def on_ack(self, ack: Packet) -> Tuple[List[int], List[int]]:
        """Feed one ACK. Returns the scoreboard's ``(newly_acked,
        newly_lost)``; the lost seqs are queued for :meth:`next_seq`."""
        newly_acked, newly_lost = self.scoreboard.on_ack(
            ack.ack, ack.sack, ack.seq)
        for seq in newly_acked:
            self._lost_set.discard(seq)
        if newly_lost:
            self._queue_lost(newly_lost)
        return newly_acked, newly_lost

    def on_timeout(self) -> None:
        """Retransmission timeout: everything in flight is presumed lost."""
        self._queue_lost(self.scoreboard.declare_all_lost())

    def _queue_lost(self, seqs: List[int]) -> None:
        for seq in seqs:
            if not self.scoreboard.is_acked(seq) and seq not in self._lost_set:
                self._lost_set.add(seq)
                heapq.heappush(self._lost_heap, seq)
