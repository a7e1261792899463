"""Tests for the alternative reactive controllers (§4.3 extensibility)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.flexpass import FlexPassParams, FlexPassReceiver, FlexPassSender
from repro.experiments.config import QueueSettings
from repro.experiments.scenarios import flexpass_queue_factory
from repro.net import DumbbellSpec, build_dumbbell
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MB, MILLIS
from repro.transports.base import FlowSpec, FlowStats
from repro.transports.credit_feedback import CREDIT_PER_DATA
from repro.transports.reactive_variants import (
    DelayParams,
    DelayWindow,
    RenoParams,
    RenoWindow,
    make_reactive_window,
)

from tests.util import Completions


class TestRenoWindow:
    def test_slow_start_then_avoidance(self):
        w = RenoWindow(RenoParams(init_cwnd=2, init_ssthresh=8))
        for seq in range(10):
            w.on_ack(seq, False, seq + 2)
        assert w.cwnd > 8  # crossed ssthresh and kept growing

    def test_ignores_ecn(self):
        w = RenoWindow()
        before = w.cwnd
        for seq in range(20):
            w.on_ack(seq, True, seq + 5)  # CE marks everywhere
        assert w.cwnd > before  # loss-based: marks do nothing

    def test_halves_on_loss_once_per_window(self):
        w = RenoWindow(RenoParams(init_cwnd=64))
        w.on_ack(0, False, 64)
        w.on_loss()
        after_first = w.cwnd
        w.on_loss()  # same window: ignored
        assert w.cwnd == after_first
        assert after_first == pytest.approx(65 / 2, rel=0.05)

    def test_timeout_resets(self):
        w = RenoWindow(RenoParams(init_cwnd=32))
        w.on_timeout()
        assert w.cwnd == 1.0

    @given(st.lists(st.sampled_from(["ack", "loss", "timeout"]), max_size=200))
    def test_property_bounds(self, events):
        p = RenoParams(init_cwnd=10, min_cwnd=1, max_cwnd=500)
        w = RenoWindow(p)
        seq = 0
        for e in events:
            if e == "ack":
                w.on_ack(seq, False, seq + 3)
                seq += 1
            elif e == "loss":
                w.on_loss()
            else:
                w.on_timeout()
            assert p.min_cwnd <= w.cwnd <= p.max_cwnd


class TestDelayWindow:
    def test_low_rtt_grows(self):
        w = DelayWindow(DelayParams(init_cwnd=10, t_low_ns=100_000))
        for _ in range(20):
            w.on_rtt_sample(50_000)
        assert w.cwnd > 10

    def test_high_rtt_shrinks(self):
        w = DelayWindow(DelayParams(init_cwnd=100, t_high_ns=200_000))
        for _ in range(20):
            w.on_rtt_sample(1_000_000)
        assert w.cwnd < 100

    def test_rising_gradient_shrinks(self):
        w = DelayWindow(DelayParams(init_cwnd=50, t_low_ns=50_000,
                                    t_high_ns=10_000_000))
        rtt = 100_000.0
        for _ in range(30):
            rtt *= 1.2
            w.on_rtt_sample(rtt)
        assert w.cwnd < 50

    def test_falling_gradient_grows(self):
        w = DelayWindow(DelayParams(init_cwnd=10, t_low_ns=50_000,
                                    t_high_ns=10_000_000))
        rtt = 5_000_000.0
        for _ in range(30):
            rtt *= 0.8
            w.on_rtt_sample(max(rtt, 60_000))
        assert w.cwnd > 10

    @given(st.lists(st.floats(1_000, 10_000_000), min_size=1, max_size=200))
    def test_property_bounds(self, rtts):
        p = DelayParams(init_cwnd=10, min_cwnd=1, max_cwnd=1000)
        w = DelayWindow(p)
        for r in rtts:
            w.on_rtt_sample(r)
            assert p.min_cwnd <= w.cwnd <= p.max_cwnd


class TestFactory:
    def test_known_algorithms(self):
        from repro.transports.congestion import DctcpWindow

        assert isinstance(make_reactive_window("dctcp"), DctcpWindow)
        assert isinstance(make_reactive_window("reno"), RenoWindow)
        assert isinstance(make_reactive_window("delay"), DelayWindow)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_reactive_window("cubic")


class TestFlexPassWithVariants:
    @pytest.mark.parametrize("algorithm", ["reno", "delay"])
    def test_flow_completes_with_variant(self, algorithm):
        sim = Simulator()
        db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings(wq=0.5)),
                            DumbbellSpec(n_pairs=1))
        done = Completions()
        params = FlexPassParams(
            max_credit_rate_bps=10 * GBPS * 0.5 * CREDIT_PER_DATA,
            reactive_algorithm=algorithm,
        )
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 4 * MB, 0,
                        scheme="flexpass", group="new")
        stats = FlowStats()
        FlexPassReceiver(sim, spec, stats, params, on_complete=done)
        sender = FlexPassSender(sim, spec, stats, params)
        sim.at(0, sender.start)
        sim.run(until=80 * MILLIS)
        assert done.flow_ids == {1}
        assert stats.delivered_bytes == 4 * MB
        assert stats.reactive_bytes > 0
