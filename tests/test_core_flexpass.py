"""End-to-end tests for FlexPass: the testbed behaviours of §6.1."""

import pytest

from repro.core.flexpass import FlexPassParams, FlexPassReceiver, FlexPassSender
from repro.experiments.config import ExperimentConfig, QueueSettings, SchemeName
from repro.experiments.scenarios import flexpass_queue_factory
from repro.net import DumbbellSpec, StarSpec, build_dumbbell, build_star
from repro.net.packet import MSS, data_wire_size
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, KB, MB, MILLIS
from repro.transports.base import FlowSpec, FlowStats
from repro.transports.credit_feedback import CREDIT_PER_DATA
from repro.transports.dctcp import DctcpParams, DctcpReceiver, DctcpSender

from tests.util import Completions


def fp_params(rate_bps=10 * GBPS, wq=0.5, **kw):
    return FlexPassParams(
        max_credit_rate_bps=rate_bps * wq * CREDIT_PER_DATA, **kw
    )


def launch_fp(sim, spec, done, params=None):
    params = params or fp_params()
    stats = FlowStats()
    FlexPassReceiver(sim, spec, stats, params, on_complete=done)
    sender = FlexPassSender(sim, spec, stats, params)
    sim.at(spec.start_ns, sender.start)
    return stats


def launch_dctcp(sim, spec, done):
    stats = FlowStats()
    params = DctcpParams()
    DctcpReceiver(sim, spec, stats, params, on_complete=done)
    sender = DctcpSender(sim, spec, stats, params)
    sim.at(spec.start_ns, sender.start)
    return stats


def fp_factory(wq=0.5):
    return flexpass_queue_factory(QueueSettings(wq=wq))


class TestSingleFlexPassFlow:
    def test_completes_and_delivers_every_byte_once(self):
        sim = Simulator()
        db = build_dumbbell(sim, fp_factory(), DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 2 * MB, 0,
                        scheme="flexpass", group="new")
        stats = launch_fp(sim, spec, done)
        sim.run(until=60 * MILLIS)
        assert done.flow_ids == {1}
        assert stats.delivered_bytes == 2 * MB
        assert stats.proactive_bytes + stats.reactive_bytes == 2 * MB

    def test_lone_flow_fills_link_with_both_subflows(self):
        """Figure 7(a): proactive takes w_q of the link, reactive the rest,
        together ~line rate."""
        sim = Simulator()
        db = build_dumbbell(sim, fp_factory(0.5), DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 8 * MB, 0,
                        scheme="flexpass", group="new")
        stats = launch_fp(sim, spec, done)
        sim.run(until=60 * MILLIS)
        assert done.flow_ids == {1}
        # 8 MB at ~9.5G -> ~6.9ms; require clearly better than wq-only (13.5ms)
        assert done.fct_ms(1) < 10.0
        assert stats.proactive_bytes > 1 * MB
        assert stats.reactive_bytes > 1 * MB

    def test_small_flow_uses_first_rtt(self):
        """Reactive sub-flow sends in the first RTT, beating the 1-RTT
        credit round trip for short flows (the Aeolus-style benefit)."""
        sim = Simulator()
        db = build_dumbbell(sim, fp_factory(), DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 8 * KB, 0,
                        scheme="flexpass", group="new")
        stats = launch_fp(sim, spec, done)
        sim.run(until=20 * MILLIS)
        assert done.flow_ids == {1}
        assert stats.reactive_bytes == 8 * KB  # delivered before any credit
        assert done.fct_ms(1) < 0.2

    def test_zero_timeouts(self):
        sim = Simulator()
        db = build_dumbbell(sim, fp_factory(), DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 4 * MB, 0,
                        scheme="flexpass", group="new")
        stats = launch_fp(sim, spec, done)
        sim.run(until=60 * MILLIS)
        assert stats.timeouts == 0


class TestCoexistence:
    def test_flexpass_and_dctcp_split_link_evenly(self):
        """Figure 7(c)/9(b): DCTCP and FlexPass each take ~half the link;
        the reactive sub-flow yields almost everything to legacy."""
        sim = Simulator()
        db = build_dumbbell(sim, fp_factory(0.5), DumbbellSpec(n_pairs=2))
        done = Completions()
        size = 40 * MB
        fp_stats = launch_fp(sim, FlowSpec(1, db.senders[0], db.receivers[0],
                                           size, 0, scheme="flexpass", group="new"),
                             done)
        dc_stats = launch_dctcp(sim, FlowSpec(2, db.senders[1], db.receivers[1],
                                              size, 0, scheme="dctcp"), done)
        sim.run(until=10 * MILLIS)
        fp_bytes = fp_stats.delivered_bytes
        dc_bytes = dc_stats.delivered_bytes
        total = fp_bytes + dc_bytes
        # both roughly half; neither starved (paper: 51% vs 48%)
        assert 0.35 < fp_bytes / total < 0.65
        # reactive sub-flow must not grab meaningful bandwidth from legacy
        assert fp_stats.reactive_bytes < 0.15 * fp_bytes + 200 * KB

    def test_two_flexpass_flows_share_fairly(self):
        """Figure 7(b): two FlexPass flows split the link, mostly proactive."""
        sim = Simulator()
        db = build_dumbbell(sim, fp_factory(0.5), DumbbellSpec(n_pairs=2))
        done = Completions()
        size = 40 * MB
        stats = [
            launch_fp(sim, FlowSpec(i + 1, db.senders[i], db.receivers[i], size, 0,
                                    scheme="flexpass", group="new"), done)
            for i in range(2)
        ]
        sim.run(until=10 * MILLIS)
        delivered = [s.delivered_bytes for s in stats]
        assert min(delivered) / max(delivered) > 0.6
        # proactive dominates: each flow's proactive sub-flow competes for
        # the wq=0.5 reservation (≈ 0.25 each); reactive fills the rest
        for s in stats:
            assert s.proactive_bytes > 0.3 * s.delivered_bytes

    def test_selective_dropping_bounds_reactive_queue(self):
        """Two FlexPass flows offer Q1 more reactive (red) bytes than its
        selective-drop threshold of 30 full-size packets, within the first
        millisecond: red packets are dropped, and the red backlog fills to
        the threshold and never past it (a packet landing exactly on the
        threshold is admitted)."""
        threshold = 30 * data_wire_size(MSS)
        sim = Simulator()
        qs = QueueSettings(wq=0.5, q1_seldrop_bytes=threshold)
        db = build_dumbbell(sim, flexpass_queue_factory(qs), DumbbellSpec(n_pairs=2))
        done = Completions()
        for i in range(2):
            launch_fp(sim, FlowSpec(i + 1, db.senders[i], db.receivers[i],
                                    20 * MB, 0, scheme="flexpass", group="new"),
                      done)
        sim.run(until=1 * MILLIS)
        q1 = db.bottleneck.queue(1)
        assert q1.stats.dropped_selective > 0
        assert q1.stats.max_red_bytes == threshold


class TestIncastZeroTimeouts:
    def test_flexpass_incast_no_timeouts(self):
        """Figure 8: 8-to-1 incast with 64 kB responses — FlexPass finishes
        every flow without a single RTO."""
        sim = Simulator()
        star = build_star(sim, fp_factory(0.5),
                          StarSpec(n_hosts=9, buffer_bytes=2 * MB))
        done = Completions()
        receiver = star.hosts[0]
        all_stats = []
        fid = 0
        for burst in range(8):  # 64 concurrent flows
            for h in star.hosts[1:]:
                fid += 1
                spec = FlowSpec(fid, h, receiver, 64 * KB, 0,
                                scheme="flexpass", group="new")
                all_stats.append(launch_fp(sim, spec, done))
        sim.run(until=300 * MILLIS)
        assert len(done.flow_ids) == fid
        assert sum(s.timeouts for s in all_stats) == 0


class TestProactiveRetransmission:
    def test_tail_loss_recovered_without_reactive_rto(self):
        """Drop-prone reactive tail: proactive retransmission must recover
        it quickly. We force drops with a tiny selective-drop threshold."""
        sim = Simulator()
        qs = QueueSettings(wq=0.5, q1_seldrop_bytes=6 * KB, q1_ecn_bytes=3 * KB)
        db = build_dumbbell(sim, flexpass_queue_factory(qs), DumbbellSpec(n_pairs=2))
        done = Completions()
        stats = []
        for i in range(2):
            spec = FlowSpec(i + 1, db.senders[i], db.receivers[i], 2 * MB, 0,
                            scheme="flexpass", group="new")
            stats.append(launch_fp(sim, spec, done))
        sim.run(until=100 * MILLIS)
        assert len(done.flow_ids) == 2
        assert all(s.delivered_bytes == 2 * MB for s in stats)

    def test_duplicates_are_discarded_at_reassembly(self):
        sim = Simulator()
        qs = QueueSettings(wq=0.5, q1_seldrop_bytes=6 * KB, q1_ecn_bytes=3 * KB)
        db = build_dumbbell(sim, flexpass_queue_factory(qs), DumbbellSpec(n_pairs=2))
        done = Completions()
        stats = []
        for i in range(2):
            spec = FlowSpec(i + 1, db.senders[i], db.receivers[i], 2 * MB, 0,
                            scheme="flexpass", group="new")
            stats.append(launch_fp(sim, spec, done))
        sim.run(until=100 * MILLIS)
        for s in stats:
            assert s.delivered_bytes == 2 * MB  # exactly once despite dups
