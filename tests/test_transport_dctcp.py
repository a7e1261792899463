"""End-to-end tests for DCTCP on the simulated fabric."""

import pytest

from repro.net import DumbbellSpec, StarSpec, build_dumbbell, build_star
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, KB, MB, MILLIS
from repro.transports.base import FlowSpec, FlowStats
from repro.transports.dctcp import DctcpParams, DctcpReceiver, DctcpSender

from tests.util import Completions, ecn_queue_factory


def launch_dctcp(sim, spec, done, params=None):
    params = params or DctcpParams()
    stats = FlowStats()
    DctcpReceiver(sim, spec, stats, params, on_complete=done)
    sender = DctcpSender(sim, spec, stats, params)
    sim.at(spec.start_ns, sender.start)
    return stats


class TestSingleFlow:
    def test_small_flow_completes(self):
        sim = Simulator()
        db = build_dumbbell(sim, ecn_queue_factory(), DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 10 * KB, 0, scheme="dctcp")
        launch_dctcp(sim, spec, done)
        sim.run(until=50 * MILLIS)
        assert done.flow_ids == {1}

    def test_large_flow_fct_near_line_rate(self):
        """A lone 10 MB flow on a clean 10G path should finish near
        size/rate once the window has opened (no marks, no losses)."""
        sim = Simulator()
        db = build_dumbbell(sim, ecn_queue_factory(), DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 10 * MB, 0, scheme="dctcp")
        stats = launch_dctcp(sim, spec, done)
        sim.run(until=100 * MILLIS)
        assert done.flow_ids == {1}
        ideal_ms = 10 * MB * 8 / (10 * GBPS) * 1e3  # 8 ms
        assert done.fct_ms(1) < ideal_ms * 1.6
        assert stats.timeouts == 0
        assert stats.retransmissions == 0

    def test_no_duplicate_delivery(self):
        sim = Simulator()
        db = build_dumbbell(sim, ecn_queue_factory(), DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 1 * MB, 0, scheme="dctcp")
        stats = launch_dctcp(sim, spec, done)
        sim.run(until=100 * MILLIS)
        assert stats.delivered_bytes == 1 * MB

    def test_one_segment_flow(self):
        sim = Simulator()
        db = build_dumbbell(sim, ecn_queue_factory(), DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 100, 0, scheme="dctcp")
        launch_dctcp(sim, spec, done)
        sim.run(until=10 * MILLIS)
        assert done.flow_ids == {1}
        # 100 B one-way plus ACK: well under 100 us on this topology
        assert done.fct_ms(1) < 0.1


class TestSharing:
    def test_two_flows_share_bottleneck_roughly_fairly(self):
        sim = Simulator()
        db = build_dumbbell(sim, ecn_queue_factory(), DumbbellSpec(n_pairs=2))
        done = Completions()
        stats = []
        for i in range(2):
            spec = FlowSpec(i + 1, db.senders[i], db.receivers[i], 5 * MB, 0,
                            scheme="dctcp")
            stats.append(launch_dctcp(sim, spec, done))
        sim.run(until=200 * MILLIS)
        assert done.flow_ids == {1, 2}
        fcts = [done.fct_ms(1), done.fct_ms(2)]
        # Both finish within ~2.2x of the shared-ideal 8ms... each gets ~5G.
        ideal_shared_ms = 5 * MB * 8 / (5 * GBPS) * 1e3
        for f in fcts:
            assert f < ideal_shared_ms * 2.0
        assert max(fcts) / min(fcts) < 1.5

    def test_ecn_bounds_queue(self):
        """With DCTCP senders, bottleneck occupancy stays near the marking
        threshold K, far below the buffer size."""
        sim = Simulator()
        db = build_dumbbell(sim, ecn_queue_factory(ecn_kb=65), DumbbellSpec(n_pairs=2))
        done = Completions()
        for i in range(2):
            spec = FlowSpec(i + 1, db.senders[i], db.receivers[i], 5 * MB, 0,
                            scheme="dctcp")
            launch_dctcp(sim, spec, done)
        sim.run(until=100 * MILLIS)
        q = db.bottleneck.queue(0)
        assert q.stats.ecn_marked > 0
        # Max occupancy bounded well under the 4.5 MB buffer.
        assert q.stats.max_bytes < 500 * KB


class TestIncastTimeouts:
    def test_severe_incast_causes_timeouts(self):
        """The Figure 8 premise: DCTCP cannot avoid timeouts under high-degree
        synchronized incast (tail losses unrecoverable by dupacks)."""
        sim = Simulator()
        star = build_star(
            sim, ecn_queue_factory(ecn_kb=60),
            StarSpec(n_hosts=9, buffer_bytes=200 * KB, buffer_alpha=0.5),
        )
        done = Completions()
        receiver = star.hosts[0]
        total_timeouts = 0
        all_stats = []
        fid = 0
        for burst in range(10):  # 80 concurrent 64 kB responses
            for h in star.hosts[1:]:
                fid += 1
                spec = FlowSpec(fid, h, receiver, 64 * KB, 0, scheme="dctcp")
                all_stats.append(launch_dctcp(sim, spec, done))
        sim.run(until=400 * MILLIS)
        assert len(done.flow_ids) == fid  # eventually all complete
        total_timeouts = sum(s.timeouts for s in all_stats)
        assert total_timeouts > 0


class TestSenderInternals:
    def test_unregisters_on_finish(self):
        sim = Simulator()
        db = build_dumbbell(sim, ecn_queue_factory(), DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 10 * KB, 0)
        launch_dctcp(sim, spec, done)
        sim.run(until=20 * MILLIS)
        assert spec.src._senders == {}

    def test_flow_spec_validation(self):
        sim = Simulator()
        db = build_dumbbell(sim, ecn_queue_factory(), DumbbellSpec(n_pairs=1))
        with pytest.raises(ValueError):
            FlowSpec(1, db.senders[0], db.senders[0], 100, 0)
        with pytest.raises(ValueError):
            FlowSpec(1, db.senders[0], db.receivers[0], 0, 0)

    def test_segmentation(self):
        sim = Simulator()
        db = build_dumbbell(sim, ecn_queue_factory(), DumbbellSpec(n_pairs=1))
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 3200, 0)
        assert spec.n_segments == 3
        assert spec.segment_payload(0) == 1500
        assert spec.segment_payload(2) == 200
        with pytest.raises(IndexError):
            spec.segment_payload(3)
