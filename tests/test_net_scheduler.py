"""Unit tests for strict-priority + DWRR scheduling and credit pacing."""

import pytest

from repro.net.packet import Color, Dscp, Packet, PacketKind
from repro.net.queues import PacketQueue, QueueConfig
from repro.net.ratelimit import TokenBucket
from repro.net.scheduler import PortScheduler, QueueSchedule
from repro.sim.units import GBPS, SECONDS


def mk_pkt(size=1500, dscp=Dscp.LEGACY):
    return Packet(PacketKind.DATA, 1, 0, 1, size, dscp=dscp)


def mk_sched(*specs):
    """specs: (priority, weight, pacer_or_None) per queue."""
    schedules = [
        QueueSchedule(PacketQueue(QueueConfig(name=f"q{i}")), priority=p, weight=w, pacer=pc)
        for i, (p, w, pc) in enumerate(specs)
    ]
    return PortScheduler(schedules), [s.queue for s in schedules]


class TestStrictPriority:
    def test_high_priority_served_first(self):
        sched, (q0, q1) = mk_sched((0, 1.0, None), (1, 1.0, None))
        lo = mk_pkt()
        hi = mk_pkt()
        q1.push(lo)
        q0.push(hi)
        pkt, _ = sched.next(0)
        assert pkt is hi
        pkt, _ = sched.next(0)
        assert pkt is lo

    def test_empty_returns_none_none(self):
        sched, _ = mk_sched((0, 1.0, None))
        assert sched.next(0) == (None, None)


class TestDwrrFairness:
    def test_equal_weights_equal_shares(self):
        sched, (q0, q1) = mk_sched((1, 1.0, None), (1, 1.0, None))
        marker = {}
        for q, tag in ((q0, 0), (q1, 1)):
            for _ in range(400):
                p = mk_pkt()
                marker[id(p)] = tag
                q.push(p)
        counts = [0, 0]
        for _ in range(400):
            pkt, _ = sched.next(0)
            counts[marker[id(pkt)]] += pkt.size
        ratio = counts[0] / counts[1]
        assert 0.9 < ratio < 1.1

    def test_weighted_shares(self):
        sched, (q0, q1) = mk_sched((1, 3.0, None), (1, 1.0, None))
        marker = {}
        for q, tag in ((q0, 0), (q1, 1)):
            for _ in range(800):
                p = mk_pkt()
                marker[id(p)] = tag
                q.push(p)
        counts = [0, 0]
        for _ in range(800):
            pkt, _ = sched.next(0)
            counts[marker[id(pkt)]] += pkt.size
        ratio = counts[0] / counts[1]
        assert 2.6 < ratio < 3.4

    def test_work_conserving_when_one_queue_empty(self):
        """An idle queue's weight goes to the backlogged queue."""
        sched, (q0, q1) = mk_sched((1, 1.0, None), (1, 9.0, None))
        for _ in range(10):
            q0.push(mk_pkt())
        for _ in range(10):
            pkt, _ = sched.next(0)
            assert pkt is not None
        assert q0.empty

    def test_idle_queue_does_not_bank_deficit(self):
        """Classic DRR: a queue that goes empty forfeits accumulated deficit
        and cannot burst past its weight later."""
        sched, (q0, q1) = mk_sched((1, 1.0, None), (1, 1.0, None))
        # q0 alone for a while
        for _ in range(50):
            q0.push(mk_pkt())
        for _ in range(50):
            sched.next(0)
        # now both backlogged: shares must be ~equal from here on
        marker = {}
        for q, tag in ((q0, 0), (q1, 1)):
            for _ in range(200):
                p = mk_pkt()
                marker[id(p)] = tag
                q.push(p)
        counts = [0, 0]
        for _ in range(200):
            pkt, _ = sched.next(0)
            counts[marker[id(pkt)]] += 1
        assert abs(counts[0] - counts[1]) <= 4

    def test_mixed_packet_sizes_fair_in_bytes(self):
        """DWRR fairness is byte-based, not packet-based."""
        sched, (q0, q1) = mk_sched((1, 1.0, None), (1, 1.0, None))
        marker = {}
        for _ in range(1200):
            p = mk_pkt(size=300)  # small packets
            marker[id(p)] = 0
            q0.push(p)
        for _ in range(300):
            p = mk_pkt(size=1500)  # big packets
            marker[id(p)] = 1
            q1.push(p)
        counts = [0, 0]
        for _ in range(900):
            pkt, _ = sched.next(0)
            counts[marker[id(pkt)]] += pkt.size
        ratio = counts[0] / counts[1]
        assert 0.85 < ratio < 1.15


class TestDwrrSmallWeights:
    """Regression tests for the pass-budget wedge: a backlogged queue with a
    tiny weight needs ~1/weight rounds to accumulate one MTU of deficit, and
    the pre-fix scheduler gave up after 64 passes, returned (None, None)
    ("all empty") with packets still queued, and the port never re-armed."""

    def test_weight_001_queue_drains(self):
        sched, (q0, q1) = mk_sched((1, 1.0, None), (1, 0.01, None))
        for _ in range(3):
            q1.push(mk_pkt())
        served = []
        for _ in range(3):
            pkt, wake = sched.next(0)
            assert pkt is not None, (
                "scheduler reported idle while a weight-0.01 queue was "
                f"backlogged (wake={wake}, queued={len(q1)})"
            )
            served.append(pkt)
        assert q1.empty
        assert sched.next(0) == (None, None)

    def test_both_queues_drain_with_extreme_weight_ratio(self):
        sched, (q0, q1) = mk_sched((1, 1.0, None), (1, 0.005, None))
        for _ in range(20):
            q0.push(mk_pkt())
            q1.push(mk_pkt())
        got = 0
        while True:
            pkt, wake = sched.next(0)
            if pkt is None:
                break
            got += 1
            assert got <= 40
        assert got == 40
        assert q0.empty and q1.empty

    def test_small_weight_shares_converge(self):
        """The fast-forwarded rounds must preserve DRR shares: a 10:1 weight
        ratio yields ~10:1 bytes even when the small weight is far below the
        one-quantum-per-pass regime."""
        sched, (q0, q1) = mk_sched((1, 0.5, None), (1, 0.05, None))
        marker = {}
        for q, tag in ((q0, 0), (q1, 1)):
            for _ in range(600):
                p = mk_pkt()
                marker[id(p)] = tag
                q.push(p)
        counts = [0, 0]
        for _ in range(600):
            pkt, _ = sched.next(0)
            counts[marker[id(pkt)]] += pkt.size
        ratio = counts[0] / counts[1]
        assert 8.0 < ratio < 12.0

    def test_paced_small_weight_reports_wake_not_idle(self):
        """When the only backlogged queue in a DWRR class is paced and out of
        tokens, the scheduler must return a wake time — not (None, None) —
        even at small weights, or the port never re-arms."""
        bucket = TokenBucket(rate_bps=1_000_000, bucket_bytes=84)
        sched, (q0, q1) = mk_sched((1, 1.0, None), (1, 0.01, bucket))
        q1.push(mk_pkt(size=84))
        pkt, _ = sched.next(0)  # bucket starts full: serves
        assert pkt is not None
        q1.push(mk_pkt(size=84))
        pkt, wake = sched.next(0)
        assert pkt is None
        assert wake is not None and wake > 0
        pkt, _ = sched.next(wake)
        assert pkt is not None

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            mk_sched((1, 0.0, None), (1, 1.0, None))
        with pytest.raises(ValueError):
            mk_sched((1, -1.0, None))


class TestBacklog:
    """Backlog is read off the queues themselves, so it is right whatever
    the queues held before the scheduler existed."""

    def test_has_backlog_tracks_queue_contents(self):
        sched, (q0, q1, q2) = mk_sched(
            (0, 1.0, None), (1, 1.0, None), (1, 1.0, None))
        assert not sched.has_backlog()
        q2.push(mk_pkt())
        assert sched.has_backlog()
        q0.push(mk_pkt())
        q1.push(mk_pkt())
        served = 0
        while sched.next(0)[0] is not None:
            served += 1
            assert sched.has_backlog() == (served < 3)
        assert served == 3

    def test_queue_nonempty_at_construction_is_served(self):
        q = PacketQueue(QueueConfig())
        first = Packet(PacketKind.DATA, 1, 0, 1, 1500, dscp=Dscp.LEGACY)
        q.push(first)
        sched = PortScheduler([
            QueueSchedule(q, priority=0),
            QueueSchedule(PacketQueue(QueueConfig()), priority=1),
        ])
        assert sched.has_backlog()
        pkt, _ = sched.next(0)
        assert pkt is first
        assert not sched.has_backlog()
        assert sched.next(0) == (None, None)


class TestPacedQueue:
    def test_pacer_defers_service(self):
        # 84-byte credits at 100 Mbps: one credit every 6720 ns.
        bucket = TokenBucket(rate_bps=100_000_000, bucket_bytes=84)
        sched, (q0,) = mk_sched((0, 1.0, bucket))
        q0.push(mk_pkt(size=84))
        q0.push(mk_pkt(size=84))
        pkt, wake = sched.next(0)
        assert pkt is not None  # bucket starts full
        pkt, wake = sched.next(0)
        assert pkt is None
        assert wake is not None and wake > 0
        pkt, _ = sched.next(wake)
        assert pkt is not None

    def test_paced_high_priority_does_not_block_low(self):
        """Work conservation across the pacer: data flows while credits wait."""
        bucket = TokenBucket(rate_bps=100_000_000, bucket_bytes=84)
        sched, (credits, data) = mk_sched((0, 1.0, bucket), (1, 1.0, None))
        credits.push(mk_pkt(size=84, dscp=Dscp.CREDIT))
        credits.push(mk_pkt(size=84, dscp=Dscp.CREDIT))
        data.push(mk_pkt(size=1500))
        first, _ = sched.next(0)
        assert first.size == 84  # bucket full: credit goes first
        second, _ = sched.next(0)
        assert second.size == 1500  # credit paced out: data proceeds

    def test_wake_time_reported_when_only_paced_backlog(self):
        bucket = TokenBucket(rate_bps=1_000_000, bucket_bytes=84)
        sched, (credits,) = mk_sched((0, 1.0, bucket))
        credits.push(mk_pkt(size=84))
        sched.next(0)  # consume the initial full bucket
        credits.push(mk_pkt(size=84))
        pkt, wake = sched.next(0)
        assert pkt is None
        # 84 bytes at 1 Mbps = 672 us
        assert wake == pytest.approx(672_000, rel=0.01)


class TestTokenBucket:
    def test_starts_full(self):
        tb = TokenBucket(GBPS, 1000)
        assert tb.can_send(0, 1000)

    def test_refills_at_rate(self):
        tb = TokenBucket(8 * GBPS, 10_000)  # 1 byte per ns
        tb.consume(0, 10_000)
        assert not tb.can_send(0, 1)
        assert tb.can_send(5000, 5000)
        assert not tb.can_send(5000, 5001)

    def test_does_not_exceed_depth(self):
        tb = TokenBucket(8 * GBPS, 100)
        assert tb.tokens(1_000_000) == 100

    def test_eligible_at(self):
        tb = TokenBucket(8 * GBPS, 1000)  # 1 B/ns
        tb.consume(0, 1000)
        t = tb.eligible_at(0, 500)
        assert 500 <= t <= 502
        assert tb.can_send(t, 500)

    def test_eligible_at_exact_when_deficit_divides_rate(self):
        """Ceiling division, not int()+1: an exactly-divisible deficit is
        eligible on the nanosecond, with no systematic 1 ns overshoot."""
        tb = TokenBucket(8 * GBPS, 1000)  # exactly 1 byte per ns
        tb.consume(0, 1000)
        assert tb.eligible_at(0, 500) == 500
        assert tb.can_send(500, 500)

    def test_eligible_at_rounds_up_inexact_deficit(self):
        tb = TokenBucket(16 * GBPS, 1000)  # 2 bytes per ns
        tb.consume(0, 1000)
        assert tb.eligible_at(0, 5) == 3  # 2.5 ns rounds up
        assert tb.eligible_at(0, 4) == 2  # exact: no +1
        assert tb.can_send(2, 4)

    def test_eligible_at_credit_cadence_has_no_drift(self):
        """84-byte credits at 1 Mbps must tick at exactly 672 us: over many
        periods the int()+1 rounding added 1 ns per credit and drifted the
        credit queue below its reserved rate."""
        period = 672_000  # 84 B * 8 / 1 Mbps
        tb = TokenBucket(rate_bps=1_000_000, bucket_bytes=84)
        t = 0
        tb.consume(0, 84)
        for i in range(1, 101):
            t = tb.eligible_at(t, 84)
            assert t == i * period
            tb.consume(t, 84)

    def test_overdraw_raises(self):
        tb = TokenBucket(GBPS, 100)
        with pytest.raises(RuntimeError):
            tb.consume(0, 200)

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            TokenBucket(0, 100)
        with pytest.raises(ValueError):
            TokenBucket(GBPS, 0)

    def test_eligible_at_property_stress(self):
        """~1e5 random (rate, size, gap) steps: the instant ``eligible_at``
        returns must genuinely admit the packet, never lie in the past, and
        never be loose by more than one nanosecond of refill."""
        import random

        rng = random.Random(0xF1E)
        for _ in range(200):
            rate = rng.choice([1_000_000, 99_999_999, 8 * GBPS,
                               rng.randrange(1, 400 * GBPS)])
            depth = rng.randrange(84, 10_000)
            tb = TokenBucket(rate_bps=rate, bucket_bytes=depth)
            now = 0
            for _ in range(500):
                n = rng.randrange(1, depth + 1)
                t = tb.eligible_at(now, n)
                assert t >= now
                if t > now:
                    # Tight: one ns earlier the tokens must not suffice
                    # (within the float refill granularity of one ns).
                    # Checked before can_send: the refill clock only moves
                    # forward, so t-1 must be probed first.
                    assert tb.tokens(t - 1) < n + rate / (8.0 * SECONDS)
                assert tb.can_send(t, n)
                if rng.random() < 0.7:
                    tb.consume(t, n)
                    now = t
                else:
                    now = t + rng.randrange(0, 10_000)

    def test_paced_rate_has_no_cumulative_drift(self):
        """Draining fixed-size packets as fast as eligible_at allows must
        achieve the configured rate exactly — any per-packet rounding error
        compounds over thousands of sends into measurable undershoot."""
        for rate, size in [(1_000_000, 84), (40 * GBPS, 1584),
                           (99_999_999, 123)]:
            tb = TokenBucket(rate_bps=rate, bucket_bytes=size)
            tb.consume(0, size)  # start empty
            t = 0
            n_packets = 5000
            for _ in range(n_packets):
                t = tb.eligible_at(t, size)
                tb.consume(t, size)
            ideal_ns = n_packets * size * 8 * SECONDS / rate
            # Within one ns per packet of the fluid-model finish time.
            assert 0 <= t - ideal_ns < n_packets + 2
