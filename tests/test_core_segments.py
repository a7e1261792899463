"""Unit + property tests for the per-packet state machine (Figure 4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.segments import SegmentState, SendBuffer


def buf(n=10):
    return SendBuffer([1500] * n)


class TestPicks:
    def test_initial_pick_is_first_pending(self):
        b = buf()
        assert b.peek_pending().idx == 0

    def test_pending_advances_in_order(self):
        b = buf()
        for expect in range(3):
            seg = b.peek_pending()
            assert seg.idx == expect
            b.mark_sent_reactive(seg.idx, expect)

    def test_pending_back_for_rc3(self):
        b = buf(5)
        assert b.peek_pending_back().idx == 4
        b.mark_sent_reactive(4, 0)
        assert b.peek_pending_back().idx == 3
        assert b.peek_pending().idx == 0  # front untouched

    def test_lost_has_priority_visibility(self):
        b = buf()
        b.mark_sent_reactive(0, 0)
        b.mark_sent_reactive(1, 1)
        assert b.peek_lost() is None
        b.mark_lost(1)
        assert b.peek_lost().idx == 1

    def test_lowest_lost_first(self):
        b = buf()
        for i in range(4):
            b.mark_sent_reactive(i, i)
        b.mark_lost(3)
        b.mark_lost(1)
        assert b.peek_lost().idx == 1

    def test_sent_reactive_pick_skips_acked(self):
        b = buf()
        b.mark_sent_reactive(0, 0)
        b.mark_sent_reactive(1, 1)
        b.mark_acked(0)
        assert b.peek_sent_reactive().idx == 1

    def test_stale_heap_entries_are_skipped(self):
        b = buf()
        b.mark_sent_reactive(0, 0)
        b.mark_lost(0)
        b.mark_sent_proactive(0, 0)  # recovered: LOST -> SENT_PROACTIVE
        assert b.peek_lost() is None

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError):
            SendBuffer([])


class TestTransitions:
    def test_reactive_only_sends_pending(self):
        b = buf()
        b.mark_sent_reactive(0, 0)
        with pytest.raises(ValueError):
            b.mark_sent_reactive(0, 1)  # already sent

    def test_lost_recovered_only_via_proactive(self):
        b = buf()
        b.mark_sent_reactive(0, 0)
        b.mark_lost(0)
        with pytest.raises(ValueError):
            b.mark_sent_reactive(0, 1)
        b.mark_sent_proactive(0, 0)
        assert b.state_of(0) == SegmentState.SENT_PROACTIVE

    def test_proactive_rtx_from_sent_reactive(self):
        """Figure 4: Sent-as-reactive --credit--> Sent-as-proactive."""
        b = buf()
        b.mark_sent_reactive(0, 0)
        b.mark_sent_proactive(0, 0)
        assert b.state_of(0) == SegmentState.SENT_PROACTIVE

    def test_pending_cannot_be_lost_or_acked(self):
        b = buf()
        with pytest.raises(ValueError):
            b.mark_lost(0)
        with pytest.raises(ValueError):
            b.mark_acked(0)

    def test_ack_is_terminal(self):
        b = buf()
        b.mark_sent_reactive(0, 0)
        assert b.mark_acked(0)
        assert not b.mark_acked(0)  # idempotent
        assert not b.mark_lost(0)   # stale loss detection ignored
        with pytest.raises(ValueError):
            b.mark_sent_proactive(0, 1)

    def test_ack_from_lost_state(self):
        """A spurious loss detection followed by the original ACK."""
        b = buf()
        b.mark_sent_reactive(0, 0)
        b.mark_lost(0)
        assert b.mark_acked(0)
        assert b.peek_lost() is None

    def test_all_acked(self):
        b = buf(2)
        for i in range(2):
            b.mark_sent_reactive(i, i)
            b.mark_acked(i)
        assert b.all_acked


class TestAckedRecord:
    """ACKED is terminal: the buffer drops the segment's object and keeps
    the index in its acked record."""

    def test_acked_segments_keep_no_object(self):
        b = buf(8)
        for i in range(6):
            b.mark_sent_reactive(i, i)
        for i in (0, 2, 3, 5):
            assert b.mark_acked(i)
        assert sorted(b.segments) == [1, 4]
        want = [SegmentState.ACKED, SegmentState.SENT_REACTIVE,
                SegmentState.ACKED, SegmentState.ACKED,
                SegmentState.SENT_REACTIVE, SegmentState.ACKED,
                SegmentState.PENDING, SegmentState.PENDING]
        assert [b.state_of(i) for i in range(8)] == want
        b.mark_acked(1)  # the frontier passes 2 and 3
        assert b.state_counts() == {
            SegmentState.PENDING: 2, SegmentState.SENT_REACTIVE: 1,
            SegmentState.SENT_PROACTIVE: 0, SegmentState.LOST: 0,
            SegmentState.ACKED: 5}
        assert b.n_acked == 5
        assert not b.mark_acked(3)
        assert not b.mark_lost(5)
        for mark in (b.mark_sent_reactive, b.mark_sent_proactive):
            with pytest.raises(ValueError):
                mark(2, 9)
        assert sorted(b.segments) == [4]

    def test_picks_pass_acked_indices(self):
        """RC3: the back pick sends and the ACK drops the last segments;
        the front pick must not take them for untouched ones."""
        b = buf(4)
        for rseq in range(2):
            seg = b.peek_pending_back()
            b.mark_sent_reactive(seg.idx, rseq)
            b.mark_acked(seg.idx)
        b.mark_sent_proactive(b.peek_pending().idx, 0)
        b.mark_sent_proactive(b.peek_pending().idx, 1)
        assert b.peek_pending() is None
        assert b.peek_pending_back() is None
        b.mark_lost(0)
        b.mark_acked(0)  # a stale LOST heap entry
        assert b.peek_lost() is None
        assert sorted(b.segments) == [1]


@st.composite
def _op_sequences(draw):
    n = draw(st.integers(1, 12))
    ops = draw(st.lists(st.tuples(
        st.sampled_from(["reactive", "proactive", "lose", "ack"]),
        st.integers(0, n - 1),
    ), max_size=60))
    return n, ops


@given(_op_sequences())
@settings(max_examples=200)
def test_property_state_machine_never_corrupts(case):
    """Drive arbitrary (possibly illegal) transitions; legal ones must keep
    the buffer's aggregate invariants, illegal ones must raise cleanly."""
    n, ops = case
    b = SendBuffer([1500] * n)
    rseq = pseq = 0
    for op, idx in ops:
        state = b.state_of(idx)
        try:
            if op == "reactive":
                b.mark_sent_reactive(idx, rseq)
                rseq += 1
                assert state == SegmentState.PENDING
            elif op == "proactive":
                b.mark_sent_proactive(idx, pseq)
                pseq += 1
                assert state in (SegmentState.PENDING, SegmentState.SENT_REACTIVE,
                                 SegmentState.LOST)
            elif op == "lose":
                changed = b.mark_lost(idx)
                if changed:
                    assert state in (SegmentState.SENT_REACTIVE,
                                     SegmentState.SENT_PROACTIVE)
            elif op == "ack":
                changed = b.mark_acked(idx)
                if changed:
                    assert state != SegmentState.ACKED
        except ValueError:
            # illegal transition: state must be unchanged
            assert b.state_of(idx) == state
        # global invariants
        counts = b.state_counts()
        assert sum(counts.values()) == n
        assert counts[SegmentState.ACKED] == b.n_acked
        # an acked segment keeps no object
        assert SegmentState.ACKED not in {
            seg.state for seg in b.segments.values()}
        # picks never return a segment in the wrong state
        for peek, want in (
            (b.peek_pending, SegmentState.PENDING),
            (b.peek_lost, SegmentState.LOST),
            (b.peek_sent_reactive, SegmentState.SENT_REACTIVE),
        ):
            seg = peek()
            if seg is not None:
                assert seg.state == want


@given(st.integers(1, 30))
def test_property_pending_drains_front_and_back(n):
    b = SendBuffer([100] * n)
    taken = []
    front = True
    while True:
        seg = b.peek_pending() if front else b.peek_pending_back()
        if seg is None:
            break
        taken.append(seg.idx)
        b.mark_sent_reactive(seg.idx, len(taken))
        front = not front
    assert sorted(taken) == list(range(n))
