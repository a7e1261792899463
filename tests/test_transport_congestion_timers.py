"""Unit tests for the DCTCP window machine and retransmission timers."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Simulator
from repro.sim.units import MILLIS
from repro.transports.congestion import DctcpWindow, DctcpWindowParams
from repro.transports.timers import RetransmitTimer, RttEstimator


class TestDctcpWindow:
    def test_slow_start_doubles_per_window(self):
        w = DctcpWindow(DctcpWindowParams(init_cwnd=2))
        snd_nxt = 2
        for seq in range(2):
            w.on_ack(seq, False, snd_nxt)
        assert w.cwnd >= 4  # +1 per ack in slow start

    def test_no_marks_no_cut(self):
        w = DctcpWindow(DctcpWindowParams(init_cwnd=10))
        for seq in range(100):
            w.on_ack(seq, False, seq + 10)
        assert w.cwnd > 10
        assert w.ecn_cuts == 0
        assert w.alpha == 0.0

    def test_full_marking_converges_alpha_to_one(self):
        w = DctcpWindow(DctcpWindowParams(init_cwnd=10, g=0.5))
        for seq in range(200):
            w.on_ack(seq, True, seq + 1)  # every window fully marked
        assert w.alpha > 0.9

    def test_cut_proportional_to_alpha(self):
        params = DctcpWindowParams(init_cwnd=100, g=1.0)
        w = DctcpWindow(params)
        w.ssthresh = 1.0  # force congestion avoidance (no growth to speak of)
        # one fully-marked window: alpha -> 1, cwnd cut by alpha/2 = half
        before = w.cwnd
        w.on_ack(0, True, 100)  # ends window [0,0), opens [.,100)
        for seq in range(1, 100):
            w.on_ack(seq, True, 100)
        w.on_ack(100, True, 200)  # window boundary: apply cut
        assert w.cwnd < before * 0.7

    def test_at_most_one_cut_per_window(self):
        w = DctcpWindow(DctcpWindowParams(init_cwnd=64))
        w.on_loss()
        cw = w.cwnd
        w.on_loss()
        assert w.cwnd == cw  # second loss in the same window ignored
        assert w.loss_cuts == 1

    def test_timeout_resets_to_min(self):
        w = DctcpWindow(DctcpWindowParams(init_cwnd=64, min_cwnd=1))
        w.on_timeout()
        assert w.cwnd == 1
        assert w.ssthresh == 32

    def test_window_floor(self):
        w = DctcpWindow(DctcpWindowParams(init_cwnd=1, min_cwnd=1))
        for _ in range(10):
            w.on_loss()
        assert w.cwnd >= 1

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=300))
    def test_property_cwnd_stays_in_bounds(self, events):
        params = DctcpWindowParams(init_cwnd=10, min_cwnd=1, max_cwnd=1000)
        w = DctcpWindow(params)
        seq = 0
        for ce, loss in events:
            if loss:
                w.on_loss()
            else:
                w.on_ack(seq, ce, seq + 5)
                seq += 1
            assert params.min_cwnd <= w.cwnd <= params.max_cwnd
            assert 0.0 <= w.alpha <= 1.0


class TestRttEstimator:
    def test_rto_floor(self):
        est = RttEstimator(min_rto_ns=4 * MILLIS)
        est.update(10_000)  # 10 us RTT
        assert est.rto_ns() == 4 * MILLIS

    def test_rto_tracks_large_rtt(self):
        est = RttEstimator(min_rto_ns=1)
        for _ in range(20):
            est.update(10 * MILLIS)
        assert 10 * MILLIS <= est.rto_ns() <= 20 * MILLIS

    def test_variance_widens_rto(self):
        est = RttEstimator(min_rto_ns=1)
        for i in range(50):
            est.update(MILLIS if i % 2 else 5 * MILLIS)
        assert est.rto_ns() > 5 * MILLIS

    def test_ignores_nonpositive_samples(self):
        est = RttEstimator()
        est.update(0)
        est.update(-5)
        assert est.srtt is None


class TestRetransmitTimer:
    def test_fires_after_rto(self):
        sim = Simulator()
        fired = []
        est = RttEstimator(min_rto_ns=4 * MILLIS)
        timer = RetransmitTimer(sim, est)
        timer.arm(lambda: fired.append(sim.now))
        sim.run(until=10 * MILLIS)
        assert fired == [4 * MILLIS]

    def test_progress_postpones(self):
        sim = Simulator()
        fired = []
        est = RttEstimator(min_rto_ns=4 * MILLIS)
        timer = RetransmitTimer(sim, est)
        timer.arm(fired.append, "first arm")
        sim.at(3 * MILLIS, timer.on_progress, lambda: fired.append(sim.now))
        sim.run(until=6 * MILLIS)
        assert fired == []
        sim.run(until=8 * MILLIS)
        assert fired == [7 * MILLIS]

    def test_backoff_doubles(self):
        sim = Simulator()
        fired = []
        est = RttEstimator(min_rto_ns=1 * MILLIS, max_rto_ns=100 * MILLIS)
        timer = RetransmitTimer(sim, est)

        def refire():
            fired.append(sim.now)
            timer.arm(refire)

        timer.arm(refire)
        sim.run(until=16 * MILLIS)
        # fires at 1, then backoff 2 -> 3ms, then 4 -> 7ms, then 8 -> 15ms
        assert fired == [1 * MILLIS, 3 * MILLIS, 7 * MILLIS, 15 * MILLIS]

    def test_progress_resets_backoff(self):
        sim = Simulator()
        est = RttEstimator(min_rto_ns=1 * MILLIS)
        timer = RetransmitTimer(sim, est)
        timer.arm(lambda: None)
        sim.run(until=2 * MILLIS)  # fired once; backoff now 2
        timer.on_progress(lambda: None)
        assert timer.armed
        assert timer._backoff == 1

    def test_cancel_prevents_fire(self):
        sim = Simulator()
        fired = []
        est = RttEstimator()
        timer = RetransmitTimer(sim, est)
        timer.arm(fired.append, 1)
        timer.cancel()
        sim.run(until=20 * MILLIS)
        assert fired == []

    def test_arm_if_idle_does_not_restart(self):
        sim = Simulator()
        est = RttEstimator(min_rto_ns=4 * MILLIS)
        fired = []
        timer = RetransmitTimer(sim, est)
        timer.arm(lambda: fired.append(sim.now))
        sim.run(until=1 * MILLIS)
        assert timer.armed
        timer.arm_if_idle(fired.append, "re-armed while running")
        sim.run(until=10 * MILLIS)
        assert fired == [4 * MILLIS]  # the deadline set at t=0, not t=1 ms
