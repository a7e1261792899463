"""The loss-recovery bookkeeping the single-space senders used to carry,
kept as the reference for ``RetransmitQueue``.

Before :class:`repro.transports.sequencing.RetransmitQueue` existed,
``DctcpSender``, ``ExpressPassSender`` and ``LayeringSender`` each held the
same ``_next_new`` / ``_lost_heap`` / ``_lost_set`` / ``_acked`` fields next
to a ``SenderScoreboard`` and the same three blocks that maintain them.
This is that code, transcribed verbatim from the three classes (method
bodies unchanged; ``self.spec.n_segments`` spelled ``self.n_segments``).
``tests/test_transport_sequencing.py`` drives it and the queue with one
random send / ACK / timeout sequence.
"""

import heapq

from repro.transports.sequencing import SenderScoreboard


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
