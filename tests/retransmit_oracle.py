"""The loss-recovery bookkeeping the single-space senders used to carry,
kept as the reference for ``RetransmitQueue`` and ``SenderScoreboard``.

Before :class:`repro.transports.sequencing.RetransmitQueue` existed,
``DctcpSender``, ``ExpressPassSender`` and ``LayeringSender`` each held the
same ``_next_new`` / ``_lost_heap`` / ``_lost_set`` / ``_acked`` fields next
to a ``SenderScoreboard`` and the same three blocks that maintain them.
This is that code, transcribed verbatim from the three classes (method
bodies unchanged; ``self.spec.n_segments`` spelled ``self.n_segments``).

``SenderScoreboard`` below is the scoreboard as it was while it still kept
every acked seq of the flow (the live one keeps only those above its
cumulative point), copied verbatim; ``ParentBookkeeping`` runs on it.
``tests/test_transport_sequencing.py`` drives each against its live
counterpart with one random send / ACK / remove / timeout sequence.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Set, Tuple


class SenderScoreboard:
    """Sender-side ACK/SACK processing with SACK-based loss detection.

    A transmitted seq is declared lost once ``dupthresh`` seqs above it have
    been acknowledged after its transmission (RFC 6675-style), or when the
    retransmission timer fires. Callers learn about transitions through the
    return values of :meth:`on_ack`.
    """

    __slots__ = ("dupthresh", "_outstanding", "_acked", "_cum", "_dup_counts")

    def __init__(self, dupthresh: int = 3) -> None:
        self.dupthresh = dupthresh
        self._outstanding: Dict[int, int] = {}  # seq -> sent_at (ns)
        self._acked: Set[int] = set()
        self._cum = 0  # everything below is acked
        self._dup_counts: Dict[int, int] = {}

    # ------------------------------------------------------------- sending

    def on_send(self, seq: int, now_ns: int) -> None:
        self._outstanding[seq] = now_ns
        self._dup_counts[seq] = 0

    @property
    def in_flight(self) -> int:
        return len(self._outstanding)

    def oldest_outstanding(self) -> Optional[int]:
        return min(self._outstanding) if self._outstanding else None

    def sent_at(self, seq: int) -> Optional[int]:
        return self._outstanding.get(seq)

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
                if seq not in self._acked:
                    self._acked.add(seq)
                    newly_acked.append(seq)
            self._cum = cum
            news_above.append(cum - 1)
        for seq in sack:
            if seq >= self._cum and seq not in self._acked:
                self._acked.add(seq)
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


class ParentBookkeeping:
    def __init__(self, n_segments, stats, dupthresh=3):
        self.n_segments = n_segments
        self.stats = stats
        self.scoreboard = SenderScoreboard(dupthresh=dupthresh)
        self._next_new = 0
        self._lost_heap = []
        self._lost_set = set()
        self._acked = set()

    @property
    def all_acked(self):
        return len(self._acked) == self.n_segments

    def next_to_send(self):
        """``DctcpSender._next_to_send``."""
        while self._lost_heap:
            seq = heapq.heappop(self._lost_heap)
            if seq in self._lost_set:
                self._lost_set.discard(seq)
                self.stats.retransmissions += 1
                return seq
        if self._next_new < self.n_segments:
            seq = self._next_new
            self._next_new += 1
            return seq
        return None

    def pick_segment(self):
        """``ExpressPassSender._pick_segment`` (= ``LayeringSender``'s)."""
        # 1. retransmit detected losses
        while self._lost_heap:
            seq = heapq.heappop(self._lost_heap)
            if seq in self._lost_set:
                self._lost_set.discard(seq)
                self.stats.retransmissions += 1
                return seq
        # 2. new data
        if self._next_new < self.n_segments:
            seq = self._next_new
            self._next_new += 1
            return seq
        # 3. tail-loss shield
        oldest = self.scoreboard.oldest_outstanding()
        if oldest is not None:
            self.stats.retransmissions += 1
            return oldest
        return None

    def transmit_windowed(self, seq, now):
        """The scoreboard line of ``DctcpSender._transmit``."""
        self.scoreboard.on_send(seq, now)

    def transmit_credited(self, seq, now):
        """The scoreboard lines of ``ExpressPassSender._transmit``."""
        if self.scoreboard.sent_at(seq) is None:
            self.scoreboard.on_send(seq, now)

    def on_ack(self, pkt):
        """The bookkeeping of ``DctcpSender.on_packet`` / ``_on_ack``."""
        sack = pkt.sack + (pkt.seq,) if pkt.seq >= 0 else pkt.sack
        newly_acked, newly_lost = self.scoreboard.on_ack(pkt.ack, sack)
        for seq in newly_acked:
            self._acked.add(seq)
            self._lost_set.discard(seq)
        for seq in newly_lost:
            if seq not in self._acked and seq not in self._lost_set:
                self._lost_set.add(seq)
                heapq.heappush(self._lost_heap, seq)
        return newly_acked, newly_lost

    def on_timeout(self):
        """The bookkeeping of ``DctcpSender._on_timeout``."""
        for seq in self.scoreboard.declare_all_lost():
            if seq not in self._acked and seq not in self._lost_set:
                self._lost_set.add(seq)
                heapq.heappush(self._lost_heap, seq)
