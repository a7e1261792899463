"""End-to-end tests for the simplified Homa and the Layering (LY) scheme."""

from repro.experiments.config import QueueSettings
from repro.experiments.scenarios import homa_queue_factory, naive_queue_factory
from repro.net.packet import Dscp, Packet, PacketKind
from repro.net import DumbbellSpec, build_dumbbell
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, KB, MB, MILLIS
from repro.transports.base import FlowSpec, FlowStats
from repro.faults import splice_lossy
from repro.transports.congestion import DctcpWindowParams
from repro.transports.credit_feedback import CREDIT_PER_DATA
from repro.transports.dctcp import DctcpParams, DctcpReceiver, DctcpSender
from repro.transports.expresspass import ExpressPassSender
from repro.transports.homa import HomaParams, HomaReceiver, HomaSender
from repro.transports.layering import LayeringParams, LayeringReceiver, LayeringSender

from tests.util import Completions


def launch_homa(sim, spec, done, params=None):
    params = params or HomaParams()
    stats = FlowStats()
    HomaReceiver(sim, spec, stats, params, on_complete=done)
    sender = HomaSender(sim, spec, stats, params)
    sim.at(spec.start_ns, sender.start)
    return stats


def launch_ly(sim, spec, done):
    params = LayeringParams(max_credit_rate_bps=10 * GBPS * CREDIT_PER_DATA)
    stats = FlowStats()
    LayeringReceiver(sim, spec, stats, params, on_complete=done)
    sender = LayeringSender(sim, spec, stats, params)
    sim.at(spec.start_ns, sender.start)
    return stats


def launch_dctcp(sim, spec, done):
    params = DctcpParams()
    stats = FlowStats()
    DctcpReceiver(sim, spec, stats, params, on_complete=done)
    sender = DctcpSender(sim, spec, stats, params)
    sim.at(spec.start_ns, sender.start)
    return stats


class TestHoma:
    def test_short_flow_completes_unscheduled(self):
        """A flow within RTT-bytes needs no grants at all."""
        sim = Simulator()
        db = build_dumbbell(sim, homa_queue_factory(), DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 30 * KB, 0, scheme="homa")
        stats = launch_homa(sim, spec, done)
        sim.run(until=20 * MILLIS)
        assert done.flow_ids == {1}
        assert stats.credits_sent == 0  # no grants issued
        assert done.fct_ms(1) < 0.2

    def test_long_flow_uses_grants(self):
        sim = Simulator()
        db = build_dumbbell(sim, homa_queue_factory(), DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 2 * MB, 0, scheme="homa")
        stats = launch_homa(sim, spec, done)
        sim.run(until=40 * MILLIS)
        assert done.flow_ids == {1}
        assert stats.credits_sent > 0
        assert stats.delivered_bytes == 2 * MB

    def test_dctcp_queue_of_priority_port_marks_above_65kb(self):
        """Regression: the threshold used to be written into the queue's
        config after the queue had decided it never marks, so prio 0 (the
        DCTCP queue, footnote 3) queued 158 kB without one CE mark."""
        sim = Simulator()
        db = build_dumbbell(sim, homa_queue_factory(), DumbbellSpec(n_pairs=1))
        port = db.bottleneck
        pkts = [Packet(PacketKind.DATA, 1, db.senders[0].id, db.receivers[0].id,
                       1584, dscp=Dscp.LEGACY, ecn_capable=True)
                for _ in range(100)]
        for pkt in pkts:
            assert port.enqueue(pkt)
        # The first packet cuts through; packet i (i >= 1) is the i-th in
        # the queue and is marked once i * 1584 exceeds 65 kB.
        unmarked = 1 + 65 * KB // 1584
        assert [p.ce for p in pkts] == [False] * unmarked + [True] * (100 - unmarked)
        prio0 = port.queue(0)
        assert prio0.config.ecn_threshold_bytes == 65 * KB
        assert prio0.stats.ecn_marked == 100 - unmarked
        assert all(port.queue(p).config.ecn_threshold_bytes is None
                   for p in range(1, 8))

    def _run_contest(self, factory, homa_params, ms=25):
        sim = Simulator()
        db = build_dumbbell(sim, factory, DumbbellSpec(n_pairs=2))
        done = Completions()
        homa_stats, dctcp_stats = [], []
        fid = 0
        for i in range(16):
            fid += 1
            homa_stats.append(launch_homa(
                sim, FlowSpec(fid, db.senders[0], db.receivers[0], 8 * MB, 0,
                              scheme="homa"), done, params=homa_params))
            fid += 1
            dctcp_stats.append(launch_dctcp(
                sim, FlowSpec(fid, db.senders[1], db.receivers[1], 8 * MB, 0,
                              scheme="dctcp"), done))
        sim.run(until=ms * MILLIS)
        return (sum(s.delivered_bytes for s in homa_stats),
                sum(s.delivered_bytes for s in dctcp_stats))

    def test_many_homa_flows_starve_dctcp_without_isolation(self):
        """Figure 1(b): with no coexistence measures (shared data queue),
        Homa's blind full-rate granting starves DCTCP."""
        from repro.experiments.scenarios import homa_shared_queue_factory

        params = HomaParams(grant_prio=0, unscheduled_prio=1, scheduled_prio=1)
        homa_bytes, dctcp_bytes = self._run_contest(
            homa_shared_queue_factory(), params)
        assert homa_bytes > 4 * dctcp_bytes

    def test_strict_priority_protects_dctcp(self):
        """Documented model deviation (DESIGN.md): when DCTCP really sits
        alone in a strictly-higher-priority queue, a work-conserving
        per-packet scheduler protects it — the inversion the paper reports
        requires its switch's buffer-exhaustion dynamics."""
        homa_bytes, dctcp_bytes = self._run_contest(
            homa_queue_factory(), HomaParams())
        assert dctcp_bytes > homa_bytes


class TestLayering:
    def test_flow_completes(self):
        sim = Simulator()
        db = build_dumbbell(sim, naive_queue_factory(QueueSettings()),
                            DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 2 * MB, 0, scheme="ly")
        stats = launch_ly(sim, spec, done)
        sim.run(until=60 * MILLIS)
        assert done.flow_ids == {1}
        assert stats.delivered_bytes == 2 * MB

    def test_window_gate_wastes_credits(self):
        """The LY failure mode (§6.2): credits arriving while the DCTCP
        window is closed are discarded — wasted capacity even when alone."""
        sim = Simulator()
        db = build_dumbbell(sim, naive_queue_factory(QueueSettings()),
                            DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 4 * MB, 0, scheme="ly")
        stats = launch_ly(sim, spec, done)
        sim.run(until=60 * MILLIS)
        assert stats.credits_wasted > 0

    def test_layering_with_an_open_window_is_expresspass(self):
        """LY is the ExpressPass sender plus a window gate: with a window
        that can never close, both senders put the same DATA packets on the
        NIC at the same instants, through two mid-flow losses and their
        dupack recovery."""
        params = LayeringParams(
            max_credit_rate_bps=10 * GBPS * CREDIT_PER_DATA,
            window=DctcpWindowParams(init_cwnd=1 << 19, min_cwnd=1 << 19))

        def wire_trace(sender_cls):
            sim = Simulator()
            db = build_dumbbell(sim, naive_queue_factory(QueueSettings()),
                                DumbbellSpec(n_pairs=1))
            done = Completions()
            spec = FlowSpec(1, db.senders[0], db.receivers[0], 600 * KB, 0,
                            scheme="ly")
            stats = FlowStats()
            LayeringReceiver(sim, spec, stats, params, on_complete=done)
            sender = sender_cls(sim, spec, stats, params)
            sim.at(0, sender.start)
            trace, dropped = [], set()

            def record(pkt):
                if pkt.kind == PacketKind.DATA:
                    trace.append((sim.now, pkt.seq))
                return False

            def drop_once(pkt):
                if (pkt.kind == PacketKind.DATA and pkt.seq in (40, 200)
                        and pkt.seq not in dropped):
                    dropped.add(pkt.seq)
                    return True
                return False

            splice_lossy(db.senders[0].nic_port, record)
            splice_lossy(db.bottleneck, drop_once)
            sim.run(until=60 * MILLIS)
            assert done.flow_ids == {1} and sender.done
            assert stats.retransmissions >= 2 and stats.timeouts == 0
            return trace

        ly, xp = wire_trace(LayeringSender), wire_trace(ExpressPassSender)
        assert len(ly) > 400
        assert ly == xp

    def test_does_not_starve_dctcp(self):
        """Unlike naïve ExpressPass, LY's window reacts to legacy ECN marks
        and shares the link."""
        sim = Simulator()
        db = build_dumbbell(sim, naive_queue_factory(QueueSettings()),
                            DumbbellSpec(n_pairs=2))
        done = Completions()
        size = 40 * MB
        ly = launch_ly(sim, FlowSpec(1, db.senders[0], db.receivers[0], size, 0,
                                     scheme="ly"), done)
        dc = launch_dctcp(sim, FlowSpec(2, db.senders[1], db.receivers[1], size,
                                        0, scheme="dctcp"), done)
        sim.run(until=10 * MILLIS)
        total = ly.delivered_bytes + dc.delivered_bytes
        assert dc.delivered_bytes / total > 0.25  # no starvation
