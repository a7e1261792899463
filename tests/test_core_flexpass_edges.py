"""Edge-path tests for FlexPass endpoints: summary ACKs, tiny flows,
competing receivers, and sub-flow accounting consistency."""

import pytest

from repro.core.flexpass import (
    PROACTIVE,
    REACTIVE,
    FlexPassParams,
    FlexPassReceiver,
    FlexPassSender,
)
from repro.experiments.config import QueueSettings
from repro.experiments.scenarios import flexpass_queue_factory
from repro.net.packet import Packet, PacketKind
from repro.net import DumbbellSpec, StarSpec, build_dumbbell, build_star
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, KB, MB, MILLIS
from repro.transports.base import FlowSpec, FlowStats
from repro.transports.credit_feedback import CREDIT_PER_DATA

from tests.util import Completions


def params(**kw):
    return FlexPassParams(
        max_credit_rate_bps=10 * GBPS * 0.5 * CREDIT_PER_DATA, **kw
    )


def launch(sim, spec, done=None, p=None):
    p = p or params()
    stats = FlowStats()
    receiver = FlexPassReceiver(sim, spec, stats, p, on_complete=done)
    sender = FlexPassSender(sim, spec, stats, p)
    sim.at(spec.start_ns, sender.start)
    return stats, sender, receiver


class TestTinyFlows:
    def test_single_byte_flow(self):
        sim = Simulator()
        db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings()),
                            DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 1, 0,
                        scheme="flexpass", group="new")
        stats, sender, _ = launch(sim, spec, done)
        sim.run(until=20 * MILLIS)
        assert done.flow_ids == {1}
        assert stats.delivered_bytes == 1
        assert sender.all_acked

    def test_exactly_one_mss(self):
        sim = Simulator()
        db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings()),
                            DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 1500, 0,
                        scheme="flexpass", group="new")
        stats, _, _ = launch(sim, spec, done)
        sim.run(until=20 * MILLIS)
        assert stats.delivered_bytes == 1500
        assert spec.n_segments == 1

    @pytest.mark.parametrize("size", [1499, 1500, 1501, 2999, 3000, 3001])
    def test_segment_boundary_sizes(self, size):
        sim = Simulator()
        db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings()),
                            DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], size, 0,
                        scheme="flexpass", group="new")
        stats, _, _ = launch(sim, spec, done)
        sim.run(until=20 * MILLIS)
        assert stats.delivered_bytes == size


class TestSummaryAcks:
    def test_completed_receiver_answers_stuck_sender(self):
        """A CREDIT_REQUEST arriving after completion must trigger summary
        ACKs so a sender stuck on dropped ACKs converges."""
        sim = Simulator()
        db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings()),
                            DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 50 * KB, 0,
                        scheme="flexpass", group="new")
        stats, sender, receiver = launch(sim, spec, done)
        sim.run(until=20 * MILLIS)
        assert stats.completed

        # Simulate a stuck sender re-requesting credits post-completion.
        acks = []
        sender_host = db.senders[0]
        sender_host.register_sender(1, type("T", (), {
            "on_packet": staticmethod(lambda pkt: acks.append(pkt))
        })())
        req = Packet(PacketKind.CREDIT_REQUEST, 1, spec.src.id, spec.dst.id,
                     84, dscp=3, meta=spec.size_bytes)
        spec.src.send(req)
        sim.run(until=25 * MILLIS)
        kinds = [(p.kind, p.subflow) for p in acks]
        assert (PacketKind.ACK, PROACTIVE) in kinds
        assert (PacketKind.ACK, REACTIVE) in kinds
        # and crucially: no new credits (the pacer stays stopped)
        assert all(p.kind != PacketKind.CREDIT for p in acks)


class TestAccountingConsistency:
    def test_subflow_bytes_partition_delivery(self):
        sim = Simulator()
        db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings()),
                            DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 3 * MB, 0,
                        scheme="flexpass", group="new")
        stats, _, _ = launch(sim, spec, done)
        sim.run(until=60 * MILLIS)
        assert stats.proactive_bytes + stats.reactive_bytes == \
            stats.delivered_bytes == 3 * MB

    def test_many_small_flows_to_one_receiver(self):
        """Concurrent flows at one receiver each get their own credit loop;
        all complete; host demux never crosses wires."""
        sim = Simulator()
        star = build_star(sim, flexpass_queue_factory(QueueSettings()),
                          StarSpec(n_hosts=5))
        done = Completions()
        receiver = star.hosts[0]
        stats_by_size = {}
        fid = 0
        for i, src in enumerate(star.hosts[1:]):
            for k in range(3):
                fid += 1
                size = 10 * KB + fid * 1000  # unique sizes
                spec = FlowSpec(fid, src, receiver, size, 0,
                                scheme="flexpass", group="new")
                stats_by_size[fid] = (size, launch(sim, spec, done)[0])
        sim.run(until=100 * MILLIS)
        assert len(done.flow_ids) == fid
        for size, stats in stats_by_size.values():
            assert stats.delivered_bytes == size

    def test_staggered_starts(self):
        sim = Simulator()
        db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings()),
                            DumbbellSpec(n_pairs=2))
        done = Completions()
        specs = []
        for fid in range(1, 5):
            spec = FlowSpec(fid, db.senders[fid % 2], db.receivers[fid % 2],
                            200 * KB, fid * 2 * MILLIS,
                            scheme="flexpass", group="new")
            launch(sim, spec, done)
            specs.append(spec)
        sim.run(until=100 * MILLIS)
        assert done.flow_ids == {1, 2, 3, 4}
        # FCT measured from each flow's own start
        for spec, (s, st) in zip(specs, done.records):
            assert st.start_ns == spec.start_ns
