"""Unit tests for per-queue admission, ECN marking, selective dropping."""

import pytest
from hypothesis import given, strategies as st

from repro.net.packet import Color, Dscp, Packet, PacketKind
from repro.net.queues import PacketQueue, QueueConfig


def mk_pkt(size=1000, color=Color.GREEN, ecn=False):
    return Packet(
        PacketKind.DATA, flow_id=1, src=0, dst=1, size=size,
        dscp=Dscp.LEGACY, color=color, ecn_capable=ecn,
    )


class TestFifoBehaviour:
    def test_fifo_order(self):
        q = PacketQueue(QueueConfig())
        pkts = [mk_pkt(size=100 + i) for i in range(5)]
        for p in pkts:
            assert q.admit(p)
            q.push(p)
        assert [q.pop() for _ in range(5)] == pkts

    def test_byte_accounting(self):
        q = PacketQueue(QueueConfig())
        q.push(mk_pkt(size=100))
        q.push(mk_pkt(size=250))
        assert q.byte_count == 350
        q.pop()
        assert q.byte_count == 250
        q.pop()
        assert q.byte_count == 0
        assert q.empty

    def test_head_peeks_without_removing(self):
        q = PacketQueue(QueueConfig())
        p = mk_pkt()
        q.push(p)
        assert q.head() is p
        assert len(q) == 1


class TestStaticCap:
    def test_drop_when_over_cap(self):
        q = PacketQueue(QueueConfig(capacity_bytes=1000))
        assert q.admit(mk_pkt(size=900))
        q.push(mk_pkt(size=900))
        assert not q.admit(mk_pkt(size=200))
        assert q.stats.dropped_cap == 1

    def test_exact_fit_admitted(self):
        q = PacketQueue(QueueConfig(capacity_bytes=1000))
        q.push(mk_pkt(size=500))
        assert q.admit(mk_pkt(size=500))


class TestEcnMarking:
    def test_marks_when_over_threshold(self):
        q = PacketQueue(QueueConfig(ecn_threshold_bytes=1000))
        first = mk_pkt(size=800, ecn=True)
        q.push(first)  # post-enqueue occupancy 800 <= K: no mark
        assert not first.ce
        p = mk_pkt(size=300, ecn=True)
        q.push(p)  # post-enqueue occupancy 1100 > K
        assert p.ce
        assert q.stats.ecn_marked == 1

    def test_packet_tipping_queue_over_k_is_marked(self):
        """DCTCP marks on the instantaneous length *including* the arriving
        packet — the packet that pushes the queue past K gets the mark."""
        q = PacketQueue(QueueConfig(ecn_threshold_bytes=1000))
        p = mk_pkt(size=1200, ecn=True)
        q.push(p)  # 0 -> 1200 crosses K in one step
        assert p.ce

    def test_exactly_at_threshold_not_marked(self):
        """Boundary: occupancy == K is not *over* threshold (mark when > K)."""
        q = PacketQueue(QueueConfig(ecn_threshold_bytes=1000))
        p = mk_pkt(size=1000, ecn=True)
        q.push(p)  # post-enqueue occupancy exactly K
        assert not p.ce
        p2 = mk_pkt(size=1, ecn=True)
        q.push(p2)  # 1001 > K
        assert p2.ce

    def test_no_mark_below_threshold(self):
        q = PacketQueue(QueueConfig(ecn_threshold_bytes=1000))
        p = mk_pkt(size=100, ecn=True)
        q.push(p)
        assert not p.ce

    def test_non_ecn_capable_never_marked(self):
        q = PacketQueue(QueueConfig(ecn_threshold_bytes=0))
        p = mk_pkt(size=100, ecn=False)
        q.push(mk_pkt(size=5000, ecn=False))
        q.push(p)
        assert not p.ce

    def test_red_ramp_marks_probabilistically(self):
        class FakeRng:
            def __init__(self, v):
                self.v = v

            def random(self):
                return self.v

        cfg = QueueConfig(ecn_threshold_bytes=1000, red_max_bytes=2000)
        q_mark = PacketQueue(cfg, mark_rng=FakeRng(0.0))
        q_mark.push(mk_pkt(size=1500, ecn=True))
        p = mk_pkt(size=10, ecn=True)
        q_mark.push(p)  # occupancy 1500, prob 0.5, rng 0.0 < 0.5 -> mark
        assert p.ce

        q_skip = PacketQueue(cfg, mark_rng=FakeRng(0.99))
        q_skip.push(mk_pkt(size=1500, ecn=True))
        p2 = mk_pkt(size=10, ecn=True)
        q_skip.push(p2)
        assert not p2.ce

    def test_red_ramp_always_marks_above_max(self):
        class NeverRng:
            def random(self):
                return 1.0

        cfg = QueueConfig(ecn_threshold_bytes=100, red_max_bytes=200)
        q = PacketQueue(cfg, mark_rng=NeverRng())
        q.push(mk_pkt(size=400, ecn=True))
        p = mk_pkt(size=10, ecn=True)
        q.push(p)
        assert p.ce


class TestSelectiveDropping:
    def test_red_dropped_over_threshold(self):
        q = PacketQueue(QueueConfig(selective_drop_bytes=2000))
        q.push(mk_pkt(size=1500, color=Color.RED))
        assert not q.admit(mk_pkt(size=1000, color=Color.RED))
        assert q.stats.dropped_selective == 1

    def test_green_survives_red_threshold(self):
        """The core §4.1 property: proactive (green) packets are never
        selectively dropped, no matter the red occupancy."""
        q = PacketQueue(QueueConfig(selective_drop_bytes=1000))
        q.push(mk_pkt(size=999, color=Color.RED))
        assert q.admit(mk_pkt(size=1500, color=Color.GREEN))

    def test_green_bytes_do_not_count_toward_red_threshold(self):
        q = PacketQueue(QueueConfig(selective_drop_bytes=2000))
        for _ in range(5):
            q.push(mk_pkt(size=1500, color=Color.GREEN))
        assert q.admit(mk_pkt(size=1500, color=Color.RED))

    def test_red_byte_accounting_on_pop(self):
        q = PacketQueue(QueueConfig(selective_drop_bytes=2000))
        q.push(mk_pkt(size=1500, color=Color.RED))
        q.pop()
        assert q.red_bytes == 0
        assert q.admit(mk_pkt(size=1500, color=Color.RED))


@given(
    st.lists(
        st.tuples(
            st.integers(64, 1584),
            st.sampled_from([Color.GREEN, Color.RED]),
        ),
        max_size=100,
    )
)
def test_property_red_bytes_never_exceed_threshold(ops):
    """Invariant: admitted red bytes stay at or below the selective-dropping
    threshold (the paper's bounded-queue argument for reactive sub-flows)."""
    thresh = 10_000
    q = PacketQueue(QueueConfig(selective_drop_bytes=thresh))
    for size, color in ops:
        p = mk_pkt(size=size, color=color)
        if q.admit(p):
            q.push(p)
        assert q.red_bytes <= thresh


@given(st.lists(st.integers(64, 1584), max_size=100), st.integers(1000, 20000))
def test_property_byte_count_matches_contents(sizes, cap):
    q = PacketQueue(QueueConfig(capacity_bytes=cap))
    for s in sizes:
        p = mk_pkt(size=s)
        if q.admit(p):
            q.push(p)
        assert q.byte_count == sum(pk.size for pk in q._fifo)
        assert q.byte_count <= cap
