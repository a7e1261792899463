"""End-to-end tests for ExpressPass: credit pacing, feedback, coexistence."""

import pytest

from repro.net.packet import Dscp
from repro.net import DumbbellSpec, build_dumbbell
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, KB, MB, MILLIS
from repro.transports.base import FlowSpec, FlowStats
from repro.transports.credit_feedback import CREDIT_PER_DATA, CreditFeedback, FeedbackParams
from repro.transports.dctcp import DctcpParams, DctcpReceiver, DctcpSender
from repro.transports.expresspass import (
    ExpressPassParams,
    ExpressPassReceiver,
    ExpressPassSender,
)

from tests.util import Completions, expresspass_queue_factory


def xp_params(rate_bps=10 * GBPS, wq=1.0):
    return ExpressPassParams(max_credit_rate_bps=rate_bps * wq * CREDIT_PER_DATA)


def launch_xp(sim, spec, done, params):
    stats = FlowStats()
    ExpressPassReceiver(sim, spec, stats, params, on_complete=done)
    sender = ExpressPassSender(sim, spec, stats, params)
    sim.at(spec.start_ns, sender.start)
    return stats


def launch_dctcp(sim, spec, done):
    stats = FlowStats()
    params = DctcpParams()
    DctcpReceiver(sim, spec, stats, params, on_complete=done)
    sender = DctcpSender(sim, spec, stats, params)
    sim.at(spec.start_ns, sender.start)
    return stats


class TestSingleFlow:
    def test_flow_completes_with_credits(self):
        sim = Simulator()
        db = build_dumbbell(sim, expresspass_queue_factory(), DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 1 * MB, 0, scheme="xp")
        stats = launch_xp(sim, spec, done, xp_params())
        sim.run(until=50 * MILLIS)
        assert done.flow_ids == {1}
        assert stats.credits_sent > 0
        assert stats.delivered_bytes == 1 * MB

    def test_rate_matches_credit_limit(self):
        """Data throughput is pinned at the credit-queue rate limit: with
        wq=0.5 a lone flow gets ~half the link."""
        sim = Simulator()
        db = build_dumbbell(
            sim, expresspass_queue_factory(wq=0.5), DumbbellSpec(n_pairs=1)
        )
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 2 * MB, 0, scheme="xp")
        launch_xp(sim, spec, done, xp_params(wq=0.5))
        sim.run(until=50 * MILLIS)
        assert done.flow_ids == {1}
        # 2 MB at 5 Gbps ~ 3.2 ms (+1 RTT for the credit request)
        fct = done.fct_ms(1)
        assert 3.0 < fct < 4.5

    def test_full_rate_utilization(self):
        sim = Simulator()
        db = build_dumbbell(sim, expresspass_queue_factory(), DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 2 * MB, 0, scheme="xp")
        launch_xp(sim, spec, done, xp_params())
        sim.run(until=50 * MILLIS)
        # 2 MB at ~10 Gbps (84/1584 credit overhead -> data ~94.7% of line)
        fct = done.fct_ms(1)
        assert 1.6 < fct < 2.6

    def test_near_zero_queue(self):
        """Credit-scheduled data does not build queues (the proactive
        property FlexPass wants to preserve)."""
        sim = Simulator()
        db = build_dumbbell(sim, expresspass_queue_factory(), DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 4 * MB, 0, scheme="xp")
        launch_xp(sim, spec, done, xp_params())
        sim.run(until=50 * MILLIS)
        data_q = db.bottleneck.queue(1)
        assert data_q.stats.max_bytes <= 5 * 1584  # a handful of packets


class TestTwoFlows:
    def test_two_flows_share_fairly(self):
        """Per-link credit rate limiting drops excess credits; feedback
        converges both flows to ~half the bottleneck."""
        sim = Simulator()
        db = build_dumbbell(sim, expresspass_queue_factory(), DumbbellSpec(n_pairs=2))
        done = Completions()
        for i in range(2):
            spec = FlowSpec(i + 1, db.senders[i], db.receivers[i], 2 * MB, 0,
                            scheme="xp")
            launch_xp(sim, spec, done, xp_params())
        sim.run(until=100 * MILLIS)
        assert done.flow_ids == {1, 2}
        fcts = [done.fct_ms(1), done.fct_ms(2)]
        # each ~2MB at ~5G -> ~3.4ms; allow convergence slack
        for f in fcts:
            assert f < 9.0
        assert max(fcts) / min(fcts) < 1.6

    def test_credit_drops_at_rate_limiter(self):
        sim = Simulator()
        db = build_dumbbell(sim, expresspass_queue_factory(), DumbbellSpec(n_pairs=2))
        done = Completions()
        for i in range(2):
            spec = FlowSpec(i + 1, db.senders[i], db.receivers[i], 2 * MB, 0,
                            scheme="xp")
            launch_xp(sim, spec, done, xp_params())
        sim.run(until=100 * MILLIS)
        # both receivers start crediting at full rate: the shared reverse
        # bottleneck (right->left) credit queue must shed the excess.
        credit_q = db.topo.port(db.right, db.left).queue(0)
        assert credit_q.stats.dropped_cap > 0


class TestStarvationPremise:
    """Figure 1(a) / Figure 9(a): naive coexistence starves DCTCP."""

    def _run(self, ms=10):
        """Measure while both flows are still active (40 MB at ~10G needs
        >32 ms, so a 10 ms horizon keeps the link contended throughout)."""
        sim = Simulator()
        db = build_dumbbell(sim, expresspass_queue_factory(), DumbbellSpec(n_pairs=2))
        done = Completions()
        size = 40 * MB  # long-running flows
        xp_spec = FlowSpec(1, db.senders[0], db.receivers[0], size, 0, scheme="xp")
        dc_spec = FlowSpec(2, db.senders[1], db.receivers[1], size, 0, scheme="dctcp")
        xp_stats = launch_xp(sim, xp_spec, done, xp_params())
        dc_stats = launch_dctcp(sim, dc_spec, done)
        sim.run(until=ms * MILLIS)
        return xp_stats, dc_stats

    def test_dctcp_starved_by_expresspass(self):
        xp_stats, dc_stats = self._run()
        # ExpressPass receives credits at line rate and ignores ECN; DCTCP
        # collapses to a small fraction (paper: ~5-9% of capacity).
        assert xp_stats.delivered_bytes > 4 * dc_stats.delivered_bytes


class TestCreditFeedbackUnit:
    def _feed(self, fb, echoes):
        for e in echoes:
            fb.note_data_received(e)
        return fb.on_period()

    def test_rate_rises_when_no_loss(self):
        fb = CreditFeedback(1e9, 100_000)
        fb.rate_bps = 1e8
        seq = 0
        for _ in range(50):
            self._feed(fb, range(seq, seq + 10))  # contiguous echoes: no loss
            seq += 10
        assert fb.rate_bps > 1e8

    def test_rate_falls_on_loss(self):
        fb = CreditFeedback(1e9, 100_000)
        start = fb.rate_bps
        seq = 0
        for _ in range(5):
            # every other credit lost: echoes 0,2,4,... -> 50% loss
            self._feed(fb, range(seq, seq + 20, 2))
            seq += 20
        assert fb.rate_bps < start * 0.5

    def test_rate_clamped_to_bounds(self):
        fb = CreditFeedback(1e9, 100_000)
        seq = 0
        for _ in range(100):
            self._feed(fb, range(seq, seq + 40, 4))  # 75% loss repeatedly
            seq += 40
        assert fb.rate_bps >= fb.min_rate
        for _ in range(500):
            self._feed(fb, range(seq, seq + 10))
            seq += 10
        assert fb.rate_bps <= fb.max_rate

    def test_step_grows_multiplicatively(self):
        """Consecutive increases accelerate (aggressiveness alpha)."""
        fb = CreditFeedback(1e12, 100_000, FeedbackParams(alpha=2.0, s_max_bps=1e11))
        fb.rate_bps = 1e6
        rates = []
        seq = 0
        for _ in range(10):
            rates.append(self._feed(fb, range(seq, seq + 10)))
            seq += 10
        deltas = [b - a for a, b in zip(rates, rates[1:])]
        assert deltas[-1] > deltas[0]

    def test_idle_period_keeps_rate(self):
        fb = CreditFeedback(1e9, 100_000)
        before = fb.rate_bps
        fb.on_period()
        assert fb.rate_bps == before

    def test_loss_counted_from_echo_gaps(self):
        fb = CreditFeedback(1e9, 100_000)
        fb.note_data_received(0)
        fb.note_data_received(4)  # credits 1-3 lost
        assert fb._lost == 3
        assert fb._received == 2

    def test_unechoed_data_counts_as_received(self):
        fb = CreditFeedback(1e9, 100_000)
        fb.note_data_received(-1)
        assert fb._received == 1
        assert fb._lost == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CreditFeedback(0, 100)
        with pytest.raises(ValueError):
            CreditFeedback(1e9, 0)
