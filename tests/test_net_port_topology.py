"""Integration tests: ports serialize correctly, topologies route end to end."""

import pytest

from repro.net.packet import Dscp, Packet, PacketKind
from repro.net.queues import PacketQueue, QueueConfig
from repro.net.scheduler import QueueSchedule
from repro.net import (
    ClosSpec,
    DumbbellSpec,
    StarSpec,
    build_clos,
    build_dumbbell,
    build_star,
)
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MICROS, tx_time_ns


def single_queue_factory(name, rate_bps, is_host_nic):
    """All traffic in one FIFO — the simplest valid port."""
    q = PacketQueue(QueueConfig(name="all"))
    classifier = {d.value: 0 for d in Dscp}
    classifier.update({Dscp.HOMA_BASE + p: 0 for p in range(8)})
    return [QueueSchedule(q, priority=0, weight=1.0)], classifier


def mk_data(flow, src, dst, size=1584):
    return Packet(PacketKind.DATA, flow, src, dst, size, dscp=Dscp.LEGACY)


class SinkHostMixin:
    """Capture packets at a host by registering a recording endpoint."""


class Recorder:
    retains_packets = True  # keep delivered objects out of the packet pool

    def __init__(self):
        self.packets = []

    def on_packet(self, pkt):
        self.packets.append(pkt)


class TestDumbbellForwarding:
    def test_packet_crosses_fabric(self):
        sim = Simulator()
        db = build_dumbbell(sim, single_queue_factory, DumbbellSpec(n_pairs=1))
        rec = Recorder()
        db.receivers[0].register_receiver(1, rec)
        pkt = mk_data(1, db.senders[0].id, db.receivers[0].id)
        db.senders[0].send(pkt)
        sim.run()
        assert rec.packets == [pkt]

    def test_latency_is_serialization_plus_propagation(self):
        sim = Simulator()
        spec = DumbbellSpec(n_pairs=1, rate_bps=10 * GBPS, link_delay_ns=4 * MICROS,
                            host_delay_ns=2 * MICROS)
        db = build_dumbbell(sim, single_queue_factory, spec)
        rec = Recorder()
        arrival = {}
        db.receivers[0].register_receiver(1, rec)
        pkt = mk_data(1, db.senders[0].id, db.receivers[0].id, size=1584)
        db.senders[0].send(pkt)
        sim.run()
        # Path: host NIC (6us) -> swL (4us) -> swR (6us) -> host, 3 links,
        # 3 serializations of 1584B at 10G (1267.2 -> 1268 ns each).
        ser = tx_time_ns(1584, 10 * GBPS)
        expected = 3 * ser + (6 + 4 + 6) * MICROS
        assert sim.now == expected

    def test_fifo_preserved_through_fabric(self):
        sim = Simulator()
        db = build_dumbbell(sim, single_queue_factory, DumbbellSpec(n_pairs=1))
        rec = Recorder()
        db.receivers[0].register_receiver(1, rec)
        pkts = [mk_data(1, db.senders[0].id, db.receivers[0].id) for _ in range(20)]
        for p in pkts:
            db.senders[0].send(p)
        sim.run()
        assert rec.packets == pkts

    def test_bottleneck_serializes_two_senders(self):
        """Two 10G senders into one 10G bottleneck: total transfer time is
        governed by the bottleneck, and the bottleneck stays busy."""
        sim = Simulator()
        db = build_dumbbell(sim, single_queue_factory, DumbbellSpec(n_pairs=2))
        recs = [Recorder(), Recorder()]
        db.receivers[0].register_receiver(1, recs[0])
        db.receivers[1].register_receiver(2, recs[1])
        n = 100
        for i in range(n):
            db.senders[0].send(mk_data(1, db.senders[0].id, db.receivers[0].id))
            db.senders[1].send(mk_data(2, db.senders[1].id, db.receivers[1].id))
        sim.run()
        assert len(recs[0].packets) == n and len(recs[1].packets) == n
        # 200 packets * 1584B * 8b / 10Gbps ~ 253 us minimum at the bottleneck
        assert sim.now >= 200 * tx_time_ns(1584, 10 * GBPS)


class TestStar:
    def test_two_to_one_shape(self):
        sim = Simulator()
        star = build_star(sim, single_queue_factory, StarSpec(n_hosts=3))
        rec = Recorder()
        star.hosts[2].register_receiver(5, rec)
        star.hosts[0].send(mk_data(5, star.hosts[0].id, star.hosts[2].id))
        sim.run()
        assert len(rec.packets) == 1

    def test_downlink_port_lookup(self):
        sim = Simulator()
        star = build_star(sim, single_queue_factory, StarSpec(n_hosts=3))
        port = star.downlink(star.hosts[0])
        assert port.name == f"sw->{star.hosts[0].name}"


class TestClos:
    def test_paper_scale_dimensions(self):
        spec = ClosSpec.paper_scale()
        assert spec.n_hosts == 192
        sim = Simulator()
        clos = build_clos(sim, single_queue_factory, spec)
        assert len(clos.hosts) == 192
        names = [sw.name for sw in clos.topo.switches]
        for tier, count in (("core", 8), ("agg", 16), ("tor", 32)):
            assert sum(name.startswith(tier) for name in names) == count

    def test_tor_oversubscription_ratio(self):
        spec = ClosSpec.paper_scale()
        # 6 host links down vs 2 agg uplinks -> 3:1 as in §6.2
        assert spec.hosts_per_tor / spec.aggs_per_pod == 3.0

    def test_all_pairs_reachable(self):
        sim = Simulator()
        clos = build_clos(sim, single_queue_factory, ClosSpec())
        hosts = clos.hosts
        flow = 0
        recs = {}
        for dst in hosts:
            rec = Recorder()
            recs[dst.id] = rec
        # one packet host0 -> every other host
        src = hosts[0]
        for dst in hosts[1:]:
            flow += 1
            dst.register_receiver(flow, recs[dst.id])
            src.send(mk_data(flow, src.id, dst.id))
        sim.run()
        for dst in hosts[1:]:
            assert len(recs[dst.id].packets) == 1, f"no delivery to {dst.name}"
        assert all(sw.routing_failures == 0 for sw in clos.topo.switches)

    def test_cross_pod_traffic_uses_core(self):
        sim = Simulator()
        clos = build_clos(sim, single_queue_factory, ClosSpec())
        src = clos.racks()[0][0]
        dst = clos.racks()[-1][0]  # other pod
        rec = Recorder()
        dst.register_receiver(99, rec)
        src.send(mk_data(99, src.id, dst.id))
        sim.run()
        assert len(rec.packets) == 1
        core_bytes = sum(
            p.link.bytes_delivered
            for c in (clos.node("core0"), clos.node("core1"))
            for p in c.ports.values()
        )
        assert core_bytes > 0

    def test_racks_partition_hosts(self):
        sim = Simulator()
        clos = build_clos(sim, single_queue_factory, ClosSpec())
        racks = clos.racks()
        seen = [h.id for rack in racks for h in rack]
        assert sorted(seen) == sorted(h.id for h in clos.hosts)
        assert clos.rack_of(racks[1][0]) == 1


class TestPortErrors:
    def test_unclassified_dscp_raises(self):
        sim = Simulator()

        def narrow_factory(name, rate, is_host_nic):
            q = PacketQueue(QueueConfig())
            return [QueueSchedule(q)], {Dscp.LEGACY.value: 0}

        db = build_dumbbell(sim, narrow_factory, DumbbellSpec(n_pairs=1))
        bad = Packet(PacketKind.DATA, 1, db.senders[0].id, db.receivers[0].id,
                     100, dscp=Dscp.CREDIT)
        with pytest.raises(KeyError):
            db.senders[0].send(bad)

    def test_stray_feedback_counted_not_crashing(self):
        sim = Simulator()
        db = build_dumbbell(sim, single_queue_factory, DumbbellSpec(n_pairs=1))
        ack = Packet(PacketKind.ACK, 42, db.receivers[0].id, db.senders[0].id, 84,
                     dscp=Dscp.LEGACY)
        db.receivers[0].send(ack)
        sim.run()
        assert db.senders[0].stray_packets == 1
