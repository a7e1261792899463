"""Packet pool: allocation discipline, poisoning, and __slots__ coverage.

The pool is only safe because the ownership rules in DESIGN.md §6d hold:
the final consumer releases, releases of hand-built packets are no-ops,
and (in debug mode) any use after release trips a poison check. These
tests pin each of those properties, plus the absence of ``__dict__`` on
every per-packet-hot class — one stray attribute assignment would silently
reintroduce a dict per instance.
"""

import pytest

from repro.net.buffering import SharedBuffer
from repro.net.link import Link
from repro.net.packet import (
    Color,
    Dscp,
    Packet,
    PacketKind,
    PacketPool,
    alloc_packet,
    free_packet,
    packet_pool,
)
from repro.net.queues import PacketQueue, QueueConfig
from repro.net.scheduler import PortScheduler
from repro.net import DumbbellSpec, build_dumbbell
from repro.sim.engine import EventHandle, Simulator

from tests.test_net_port_topology import single_queue_factory


def _data(pool, flow_id, seq):
    return pool.acquire(PacketKind.DATA, flow_id, 0, 1, 1584, seq=seq,
                        dscp=Dscp.LEGACY)


class TestSlots:
    def test_hot_classes_have_no_dict(self):
        """Every object the per-packet path touches must be dict-free."""
        sim = Simulator()
        db = build_dumbbell(sim, single_queue_factory, DumbbellSpec(n_pairs=1))
        port = db.senders[0].nic_port
        instances = [
            Packet(PacketKind.DATA, 1, 0, 1, 1500),
            EventHandle(0, 0, lambda: None, (), sim),
            PacketQueue(QueueConfig(name="q")),
            SharedBuffer(1 << 20),
            Link(sim, db.receivers[0], 1000),
            port,
            port.scheduler,
            db.senders[0],
            db.left,
            PacketPool(),
        ]
        for obj in instances:
            assert not hasattr(obj, "__dict__"), (
                f"{type(obj).__name__} grew a __dict__"
            )
        with pytest.raises(AttributeError):
            instances[0].not_a_field = 1

    def test_scheduler_has_no_dict(self):
        q = PacketQueue(QueueConfig(name="q"))
        from repro.net.scheduler import QueueSchedule

        sched = PortScheduler([QueueSchedule(q)])
        assert not hasattr(sched, "__dict__")


class TestPoolBasics:
    def test_acquire_reinitializes_reused_packet(self):
        pool = PacketPool()
        p1 = _data(pool, flow_id=1, seq=7)
        p1.ce = True
        pool.release(p1)
        p2 = pool.acquire(PacketKind.ACK, 2, 5, 6, 84, ack=3)
        assert p2 is p1  # freelist reuse
        assert p2.kind == PacketKind.ACK
        assert (p2.flow_id, p2.src, p2.dst, p2.size, p2.ack) == (2, 5, 6, 84, 3)
        assert p2.seq == -1 and p2.ce is False  # fully re-inited
        assert pool.reused == 1

    def test_acquire_matches_packet_init_in_every_slot(self):
        """``acquire`` stores the fields itself instead of calling
        ``Packet.__init__``; fresh or reused, the two must agree."""
        args = (PacketKind.ACK, 9, 3, 4, 84)
        for kwargs in ({}, dict(payload=7, dscp=Dscp.CREDIT, color=Color.RED,
                                ecn_capable=True, seq=5, flow_seq=6, ack=8,
                                sack=(10, 12), subflow=1, sent_at=99, meta=1)):
            ref = Packet(*args, **kwargs)
            pool = PacketPool()
            fresh = pool.acquire(*args, **kwargs)
            fresh.ce = True
            pool.release(fresh)
            reused = pool.acquire(*args, **kwargs)
            assert reused is fresh
            for slot in Packet.__slots__:
                if slot != "_pooled":
                    assert getattr(reused, slot) == getattr(ref, slot), slot

    def test_release_of_hand_built_packet_is_noop(self):
        pool = PacketPool()
        pkt = Packet(PacketKind.DATA, 1, 0, 1, 1500)
        pool.release(pkt)
        assert pool.released == 0
        assert len(pool) == 0

    def test_max_size_bounds_freelist(self):
        pool = PacketPool(max_size=4)
        packets = [_data(pool, 1, i) for i in range(10)]
        for p in packets:
            pool.release(p)
        assert len(pool) == 4
        assert pool.released == 10

    def test_default_pool_roundtrip(self):
        pool = packet_pool()
        before = pool.acquired
        pkt = alloc_packet(PacketKind.DATA, 1, 0, 1, 1584)
        assert pkt._pooled
        free_packet(pkt)
        assert not pkt._pooled
        assert pool.acquired == before + 1

    def test_two_flow_interleaved_stress(self):
        """Acquire/release interleaved across two flows, window-style."""
        pool = PacketPool(max_size=64)
        live = {1: [], 2: []}
        released = 0
        for round_no in range(500):
            flow = 1 + (round_no & 1)
            pkt = _data(pool, flow, seq=round_no)
            assert pkt.flow_id == flow and pkt.seq == round_no
            live[flow].append(pkt)
            # ack-clock the other flow: release its oldest two packets
            other = live[2 - (round_no & 1)]
            for p in other[:2]:
                pool.release(p)
                released += 1
            del other[:2]
        for flow_packets in live.values():
            for p in flow_packets:
                pool.release(p)
                released += 1
        assert pool.acquired == 500
        assert pool.released == released == 500
        assert pool.reused > 0
        assert len(pool) <= 64
        # no packet ended up live in both flows
        assert not (set(map(id, live[1])) & set(map(id, live[2])))


class TestPoisoning:
    def test_released_packet_is_poisoned_in_debug(self):
        pool = PacketPool(debug=True)
        pkt = _data(pool, 1, 1)
        pool.release(pkt)
        assert PacketPool.is_poisoned(pkt)
        assert pkt.size < 0  # any arithmetic on it goes loudly wrong

    def test_double_release_raises_in_debug(self):
        pool = PacketPool(debug=True)
        pkt = _data(pool, 1, 1)
        pool.release(pkt)
        with pytest.raises(RuntimeError, match="double release"):
            pool.release(pkt)

    def test_use_after_release_detected_on_reacquire(self):
        """Mutating a released packet trips the poison check at acquire."""
        pool = PacketPool(debug=True)
        pkt = _data(pool, 1, 1)
        pool.release(pkt)
        pkt.kind = PacketKind.DATA  # use-after-release write
        with pytest.raises(RuntimeError, match="use-after-release"):
            pool.acquire(PacketKind.DATA, 1, 0, 1, 1584)

    def test_no_poison_outside_debug(self):
        pool = PacketPool(debug=False)
        pkt = _data(pool, 1, 9)
        pool.release(pkt)
        assert not PacketPool.is_poisoned(pkt)
        assert pkt.seq == 9  # fields untouched until reuse


class TestPoolThroughFabric:
    def test_sink_recycles_pooled_packets(self):
        """Pooled packets sent across the fabric return to the pool at the
        receiving host once the endpoint consumed them."""
        sim = Simulator()
        db = build_dumbbell(sim, single_queue_factory, DumbbellSpec(n_pairs=1))
        seen = []

        class Sink:  # copies, does not retain
            def on_packet(self, pkt):
                seen.append((pkt.flow_id, pkt.seq))

        db.receivers[0].register_receiver(1, Sink())
        src, dst = db.senders[0], db.receivers[0]
        pool = packet_pool()
        base_released = pool.released
        n = 50
        for i in range(n):
            src.send(alloc_packet(PacketKind.DATA, 1, src.id, dst.id, 1584,
                                  seq=i, dscp=Dscp.LEGACY))
        sim.run()
        assert seen == [(1, i) for i in range(n)]
        assert pool.released - base_released == n
