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
from typing import Dict, List, Optional, Sequence


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

    A :class:`Segment` object exists only once the segment is first picked
    or marked; an index that was never touched *is* ``PENDING``. A flow's
    set-up and memory therefore follow the bytes it has sent, not its size.
    """

    def __init__(self, payloads: Sequence[int]) -> None:
        if not payloads:
            raise ValueError("a flow needs at least one segment")
        self._payloads = payloads
        self._n = len(payloads)
        #: the segments touched so far, by index
        self.segments: Dict[int, Segment] = {}
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
        return SegmentState.PENDING

    def _materialize(self, idx: int) -> Segment:
        """The segment at ``idx``, created ``PENDING`` on first use."""
        if not 0 <= idx < self._n:
            raise IndexError(f"segment {idx} out of range")
        seg = self.segments[idx] = Segment(idx, self._payloads[idx])
        return seg

    # ------------------------------------------------------------- picks

    def peek_pending(self) -> Optional[Segment]:
        """Lowest-index PENDING segment, or None."""
        segs = self.segments
        idx = self._next_pending
        while idx < self._n:
            seg = segs.get(idx)
            if seg is None or seg.state == SegmentState.PENDING:
                self._next_pending = idx
                return seg or self._materialize(idx)
            idx += 1
        self._next_pending = idx
        return None

    def peek_pending_back(self) -> Optional[Segment]:
        """Highest-index PENDING segment (the RC3 variant's reactive pick)."""
        segs = self.segments
        idx = self._back_pending
        while idx >= 0:
            seg = segs.get(idx)
            if seg is None or seg.state == SegmentState.PENDING:
                self._back_pending = idx
                return seg or self._materialize(idx)
            idx -= 1
        self._back_pending = idx
        return None

    def peek_lost(self) -> Optional[Segment]:
        """Lowest-index LOST segment, or None."""
        heap = self._lost_heap
        while heap:
            seg = self.segments[heap[0]]
            if seg.state == SegmentState.LOST:
                return seg
            heapq.heappop(heap)  # stale entry
        return None

    def peek_sent_reactive(self) -> Optional[Segment]:
        """Lowest-index unacked SENT_REACTIVE segment, or None."""
        heap = self._reactive_heap
        while heap:
            seg = self.segments[heap[0]]
            if seg.state == SegmentState.SENT_REACTIVE:
                return seg
            heapq.heappop(heap)
        return None

    # ------------------------------------------------------- transitions

    def mark_sent_reactive(self, idx: int, reactive_seq: int) -> None:
        seg = self.segments.get(idx) or self._materialize(idx)
        if seg.state != SegmentState.PENDING:
            raise ValueError(
                f"segment {idx}: reactive sub-flow may only send PENDING "
                f"segments, found {seg.state.name}"
            )
        seg.state = SegmentState.SENT_REACTIVE
        seg.last_reactive_seq = reactive_seq
        heapq.heappush(self._reactive_heap, idx)

    def mark_sent_proactive(self, idx: int, proactive_seq: int) -> None:
        seg = self.segments.get(idx) or self._materialize(idx)
        if seg.state not in _TO_PROACTIVE_OK:
            raise ValueError(
                f"segment {idx}: cannot send via proactive from {seg.state.name}"
            )
        seg.state = SegmentState.SENT_PROACTIVE
        seg.last_proactive_seq = proactive_seq

    def mark_lost(self, idx: int) -> bool:
        """Record a detected loss. Returns False if already ACKED/LOST (a
        stale detection), True if the segment newly entered LOST."""
        seg = self.segments.get(idx) or self._materialize(idx)
        if seg.state in (SegmentState.ACKED, SegmentState.LOST):
            return False
        if seg.state == SegmentState.PENDING:
            raise ValueError(f"segment {idx}: PENDING cannot be lost")
        seg.state = SegmentState.LOST
        heapq.heappush(self._lost_heap, idx)
        return True

    def mark_acked(self, idx: int) -> bool:
        """Returns True if the segment was newly acked."""
        seg = self.segments.get(idx) or self._materialize(idx)
        if seg.state == SegmentState.ACKED:
            return False
        if seg.state == SegmentState.PENDING:
            raise ValueError(f"segment {idx}: PENDING cannot be ACKed")
        seg.state = SegmentState.ACKED
        self.n_acked += 1
        return True

    # ------------------------------------------------------------- debug

    def state_counts(self) -> dict:
        counts = {s: 0 for s in SegmentState}
        for seg in self.segments.values():
            counts[seg.state] += 1
        counts[SegmentState.PENDING] += self._n - len(self.segments)
        return counts
