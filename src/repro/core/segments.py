"""Per-packet state machine and shared send buffer (paper Figure 4).

Every segment of a FlexPass flow is in exactly one of five states:

* ``PENDING``        — never transmitted;
* ``SENT_REACTIVE``  — last sent via the reactive sub-flow, unacknowledged;
* ``SENT_PROACTIVE`` — last sent via the proactive sub-flow, unacknowledged;
* ``LOST``           — loss detected, awaiting proactive retransmission;
* ``ACKED``          — acknowledged on either sub-flow (terminal).

Legal transitions (all others raise, which the property tests exercise):

* PENDING -> SENT_REACTIVE (reactive window opens)
* PENDING -> SENT_PROACTIVE (credit arrives)
* SENT_REACTIVE -> SENT_PROACTIVE (credit arrives: "proactive retransmission")
* SENT_REACTIVE / SENT_PROACTIVE -> LOST (loss detected)
* LOST -> SENT_PROACTIVE (credit arrives: loss recovery — never via reactive)
* any non-ACKED -> ACKED (ACK from either sub-flow)
"""

from __future__ import annotations

import enum
import heapq
from typing import Dict, List, Optional, Sequence, Set


class SegmentState(enum.IntEnum):
    PENDING = 0
    SENT_REACTIVE = 1
    SENT_PROACTIVE = 2
    LOST = 3
    ACKED = 4


_TO_PROACTIVE_OK = (
    SegmentState.PENDING,
    SegmentState.SENT_REACTIVE,
    SegmentState.LOST,
)


class Segment:
    """One MSS-sized unit of the flow."""

    __slots__ = ("idx", "payload", "state", "last_reactive_seq", "last_proactive_seq")

    def __init__(self, idx: int, payload: int) -> None:
        self.idx = idx
        self.payload = payload
        self.state = SegmentState.PENDING
        self.last_reactive_seq = -1
        self.last_proactive_seq = -1


class SendBuffer:
    """Shared send buffer with the transmission-priority rules of §4.2.

    On credit arrival, the proactive sub-flow picks, in order: a ``LOST``
    segment (fast loss recovery), then the lowest ``PENDING`` segment (new
    data), then the oldest unacked ``SENT_REACTIVE`` segment ("proactive
    retransmission" — the tail-latency optimization). The reactive sub-flow
    only ever takes ``PENDING`` segments.

    A :class:`Segment` object exists only between the segment's first pick
    and its ACK: an index that was never touched *is* ``PENDING``, and an
    acked one is only a mark in the acked record (every index below
    ``_acked_below``, plus the set ``_acked_above`` of acked indices above
    it). A flow's memory therefore follows the segments it has in flight,
    not its size or the bytes it has sent.
    """

    def __init__(self, payloads: Sequence[int]) -> None:
        if not payloads:
            raise ValueError("a flow needs at least one segment")
        self._payloads = payloads
        self._n = len(payloads)
        #: the touched, unacked segments, by index
        self.segments: Dict[int, Segment] = {}
        #: every index below this one is acked
        self._acked_below = 0
        #: the acked indices above ``_acked_below``
        self._acked_above: Set[int] = set()
        self._next_pending = 0
        self._back_pending = self._n - 1
        self._lost_heap: List[int] = []
        self._reactive_heap: List[int] = []  # candidates for proactive rtx
        self.n_acked = 0

    def __len__(self) -> int:
        return self._n

    @property
    def all_acked(self) -> bool:
        return self.n_acked == self._n

    def state_of(self, idx: int) -> SegmentState:
        seg = self.segments.get(idx)
        if seg is not None:
            return seg.state
        if not 0 <= idx < self._n:
            raise IndexError(f"segment {idx} out of range")
        if self._is_acked(idx):
            return SegmentState.ACKED
        return SegmentState.PENDING

    def _is_acked(self, idx: int) -> bool:
        return idx < self._acked_below or idx in self._acked_above

    def _materialize(self, idx: int) -> Segment:
        """The untouched segment at ``idx``, created ``PENDING``."""
        if not 0 <= idx < self._n:
            raise IndexError(f"segment {idx} out of range")
        seg = self.segments[idx] = Segment(idx, self._payloads[idx])
        return seg

    def _touch(self, idx: int) -> Optional[Segment]:
        """The segment at ``idx``: None if it is acked, else the live
        object, created ``PENDING`` on first use."""
        seg = self.segments.get(idx)
        if seg is None and not self._is_acked(idx):
            seg = self._materialize(idx)
        return seg

    # ------------------------------------------------------------- picks

    def peek_pending(self) -> Optional[Segment]:
        """Lowest-index PENDING segment, or None."""
        segs = self.segments
        idx = self._next_pending
        while idx < self._n:
            seg = segs.get(idx)
            if seg is None:
                if not self._is_acked(idx):
                    self._next_pending = idx
                    return self._materialize(idx)
            elif seg.state == SegmentState.PENDING:
                self._next_pending = idx
                return seg
            idx += 1
        self._next_pending = idx
        return None

    def peek_pending_back(self) -> Optional[Segment]:
        """Highest-index PENDING segment (the RC3 variant's reactive pick)."""
        segs = self.segments
        idx = self._back_pending
        while idx >= 0:
            seg = segs.get(idx)
            if seg is None:
                if not self._is_acked(idx):
                    self._back_pending = idx
                    return self._materialize(idx)
            elif seg.state == SegmentState.PENDING:
                self._back_pending = idx
                return seg
            idx -= 1
        self._back_pending = idx
        return None

    def peek_lost(self) -> Optional[Segment]:
        """Lowest-index LOST segment, or None."""
        heap = self._lost_heap
        while heap:
            seg = self.segments.get(heap[0])
            if seg is not None and seg.state == SegmentState.LOST:
                return seg
            heapq.heappop(heap)  # stale entry (re-sent or acked)
        return None

    def peek_sent_reactive(self) -> Optional[Segment]:
        """Lowest-index unacked SENT_REACTIVE segment, or None."""
        heap = self._reactive_heap
        while heap:
            seg = self.segments.get(heap[0])
            if seg is not None and seg.state == SegmentState.SENT_REACTIVE:
                return seg
            heapq.heappop(heap)  # stale entry (re-sent or acked)
        return None

    # ------------------------------------------------------- transitions

    def mark_sent_reactive(self, idx: int, reactive_seq: int) -> None:
        seg = self._touch(idx)
        if seg is None or seg.state != SegmentState.PENDING:
            raise ValueError(
                f"segment {idx}: reactive sub-flow may only send PENDING "
                f"segments, found {self.state_of(idx).name}"
            )
        seg.state = SegmentState.SENT_REACTIVE
        seg.last_reactive_seq = reactive_seq
        heapq.heappush(self._reactive_heap, idx)

    def mark_sent_proactive(self, idx: int, proactive_seq: int) -> None:
        seg = self._touch(idx)
        if seg is None or seg.state not in _TO_PROACTIVE_OK:
            raise ValueError(
                f"segment {idx}: cannot send via proactive from "
                f"{self.state_of(idx).name}"
            )
        seg.state = SegmentState.SENT_PROACTIVE
        seg.last_proactive_seq = proactive_seq

    def mark_lost(self, idx: int) -> bool:
        """Record a detected loss. Returns False if already ACKED/LOST (a
        stale detection), True if the segment newly entered LOST."""
        seg = self._touch(idx)
        if seg is None or seg.state == SegmentState.LOST:
            return False
        if seg.state == SegmentState.PENDING:
            raise ValueError(f"segment {idx}: PENDING cannot be lost")
        seg.state = SegmentState.LOST
        heapq.heappush(self._lost_heap, idx)
        return True

    def mark_acked(self, idx: int) -> bool:
        """Returns True if the segment was newly acked. ACKED is terminal,
        so the segment's object goes and the acked record keeps its index."""
        seg = self._touch(idx)
        if seg is None:
            return False
        if seg.state == SegmentState.PENDING:
            raise ValueError(f"segment {idx}: PENDING cannot be ACKed")
        del self.segments[idx]
        if idx == self._acked_below:
            above = self._acked_above
            idx += 1
            while idx in above:
                above.discard(idx)
                idx += 1
            self._acked_below = idx
        else:
            self._acked_above.add(idx)
        self.n_acked += 1
        return True

    # ------------------------------------------------------------- debug

    def state_counts(self) -> dict:
        """Segments per state. ACKED is counted from the acked record, not
        from ``n_acked``, so an audit can hold the two against each other."""
        counts = {s: 0 for s in SegmentState}
        for seg in self.segments.values():
            counts[seg.state] += 1
        acked = self._acked_below + len(self._acked_above)
        counts[SegmentState.ACKED] = acked
        counts[SegmentState.PENDING] += self._n - len(self.segments) - acked
        return counts
