"""Arrival bursts x one-packet serving x link failure x telemetry.

An egress port starts exactly one packet per serve event, paced or not:
the packet's arrival is scheduled at its serialization end, and the next
serve event is posted for that instant only while backlog remains. A
"burst" here is a back-to-back run of arrivals that builds a backlog.
These tests pin down the properties that serving one packet per event
gives the rest of the system:

* wire timing is back-to-back and FIFO, and an unpaced port spends the
  same events as a port whose pacer never binds;
* a strict-priority arrival leaves at the first serialization end after
  it, ahead of the lower class's backlog, and the shared buffer counts a
  packet's bytes until the serve that starts it;
* a :class:`~repro.faults.link.FaultyLink` spliced under the port makes
  its fault decision at each packet's serialization end, so a mid-drain
  ``fail()`` destroys exactly the frames a real cable cut would;
* a :class:`~repro.metrics.telemetry.TelemetrySampler` watching the port
  leaves the port and its link as they were, and observes the same
  timeline.
"""

import pytest

from repro.faults.link import splice
from repro.metrics.telemetry import TelemetrySampler
from repro.net.buffering import SharedBuffer, UnlimitedBuffer
from repro.net.link import Link
from repro.net.packet import CREDIT_WIRE_BYTES, Dscp, Packet, PacketKind
from repro.net.port import EgressPort
from repro.net.queues import PacketQueue, QueueConfig
from repro.net.ratelimit import TokenBucket
from repro.net.scheduler import QueueSchedule
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, tx_time_ns

SIZE = 1250  # 1250 B at 10G serializes in exactly 1000 ns
RATE = 10 * GBPS
SER = tx_time_ns(SIZE, RATE)


class _Sink:
    """Terminal node recording (arrival_ns, packet)."""

    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, pkt):
        self.arrivals.append((self.sim.now, pkt))


def _mk_port(sim, delay_ns=1000, pacer=None, buffer=None):
    sink = _Sink(sim)
    link = Link(sim, sink, delay_ns)
    q = PacketQueue(QueueConfig(name="data"))
    port = EgressPort(
        sim, "tx", RATE, buffer or UnlimitedBuffer(),
        [QueueSchedule(q, priority=0, weight=1.0, pacer=pacer)],
        {Dscp.LEGACY.value: 0}, link, {},
    )
    return port, sink


def _mk_two_class_port(sim, delay_ns=1000, buffer=None):
    """Strict Q0 (credits) over Q1 (data), no pacer: the shape of Homa's
    shared-queue port, the one shape whose serves never depend on time."""
    sink = _Sink(sim)
    port = EgressPort(
        sim, "tx", RATE, buffer or UnlimitedBuffer(),
        [QueueSchedule(PacketQueue(QueueConfig(name="q0")), priority=0),
         QueueSchedule(PacketQueue(QueueConfig(name="q1")), priority=1)],
        {Dscp.CREDIT.value: 0, Dscp.LEGACY.value: 1},
        Link(sim, sink, delay_ns), {},
    )
    return port, sink


def _pkts(n):
    return [Packet(PacketKind.DATA, i, 0, 1, SIZE, dscp=Dscp.LEGACY)
            for i in range(n)]


def _credit():
    return Packet(PacketKind.CREDIT, 99, 0, 1, CREDIT_WIRE_BYTES,
                  dscp=Dscp.CREDIT)


# ------------------------------------------------- one packet per serve


class TestBurstDequeue:
    def test_backlog_exceeding_burst_drains_with_exact_wire_timing(self):
        """12 packets enqueued at once: every arrival lands at its own
        serialization end plus propagation, in FIFO order."""
        sim = Simulator()
        port, sink = _mk_port(sim, delay_ns=1000)
        pkts = _pkts(12)
        for p in pkts:
            assert port.enqueue(p)
        sim.run()
        assert [p for _, p in sink.arrivals] == pkts  # FIFO preserved
        assert [t for t, _ in sink.arrivals] == [
            (i + 1) * SER + 1000 for i in range(12)
        ]

    def test_burst_path_matches_one_packet_serving(self):
        """A pacer a hundred times the line rate never holds a packet back.
        The unpaced port drains a burst on the same timeline and with the
        same number of events: one delivery per packet, and one serve event
        per packet after the first (cut through when unpaced, served on
        enqueue when paced)."""
        def drain(paced):
            sim = Simulator()
            pacer = TokenBucket(100 * RATE, 12 * SIZE) if paced else None
            port, sink = _mk_port(sim, pacer=pacer)
            for p in _pkts(12):
                port.enqueue(p)
            sim.run()
            return [t for t, _ in sink.arrivals], sim.events_run

        slow_times, slow_events = drain(paced=True)
        fast_times, fast_events = drain(paced=False)
        assert fast_times == slow_times
        assert fast_events == slow_events == 12 + 11

    def test_priority_arrival_overtakes_the_backlog(self):
        """Twelve data packets queue on an unpaced two-class port; a credit
        that arrives while the second one serializes leaves right after it,
        at 2 000 + 68 ns, and lands 1 000 ns later. The data behind it each
        shift by the credit's serialization time."""
        sim = Simulator()
        port, sink = _mk_two_class_port(sim, delay_ns=1000)
        credit = _credit()
        for p in _pkts(12):
            port.enqueue(p)
        sim.at(1500, port.enqueue, credit)
        sim.run()
        cred_ser = tx_time_ns(CREDIT_WIRE_BYTES, RATE)
        assert cred_ser == 68
        assert [p for _, p in sink.arrivals].index(credit) == 2
        assert sink.arrivals[2][0] == 2 * SER + cred_ser + 1000 == 3068
        assert [t for t, p in sink.arrivals if p is not credit][2:] == [
            (i + 1) * SER + cred_ser + 1000 for i in range(2, 12)
        ]

    def test_buffer_counts_each_packet_until_its_serve(self):
        """The shared buffer holds exactly the bytes still queued at every
        instant of a drain: a packet leaves it when its own serve starts
        it, not before."""
        sim = Simulator()
        buf = SharedBuffer(1_000_000, alpha=1.0)
        port, _ = _mk_port(sim, buffer=buf)
        for p in _pkts(12):
            port.enqueue(p)  # the first cuts through, 11 queue
        seen = []
        for i in range(12):
            sim.at(i * SER + SER // 2, lambda: seen.append(
                (buf.used, port.backlog_bytes())))
        sim.run()
        assert seen == [((11 - i) * SIZE,) * 2 for i in range(12)]


# ------------------------------------------------- mid-drain link failure


class TestMidBurstLinkFailure:
    def test_fail_mid_burst_destroys_committed_and_in_flight_frames(self):
        """A fail() at 4.5 serialization times drops every one of 12
        back-to-back packets: 4 mid-propagation, the one serializing and
        the 7 still queued at their own serialization ends."""
        sim = Simulator()
        port, sink = _mk_port(sim, delay_ns=5000)
        faulty = splice(port)
        for p in _pkts(12):
            port.enqueue(p)
        # Serialization ends are (i+1)*SER; with 5000 ns propagation nothing
        # has arrived by 4.5*SER, so packets 0-3 die in flight and 4-11 hit
        # a dead wire at their own serialization ends.
        sim.at(int(4.5 * SER), faulty.fail)
        sim.run()
        assert sink.arrivals == []
        assert faulty.counters.discarded_in_flight == 4
        assert faulty.counters.dropped_link_down == 8
        assert faulty.in_flight() == 0

    def test_fail_mid_burst_partial_delivery_then_recovery(self):
        """Failure after some arrivals: survivors keep FIFO order and exact
        timing; restore() lets fresh traffic through again."""
        sim = Simulator()
        port, sink = _mk_port(sim, delay_ns=1500)
        faulty = splice(port)
        pkts = _pkts(12)
        for p in pkts:
            port.enqueue(p)
        # Arrivals land at (i+1)*SER + 1500. At t=7600: packets 0-5 have
        # arrived, packet 6 (serialized at 7000, due 8500) is on the wire,
        # packets 7-11 have not reached serialization end yet.
        sim.at(7600, faulty.fail)
        sim.at(20_000, faulty.restore)
        late = Packet(PacketKind.DATA, 99, 0, 1, SIZE, dscp=Dscp.LEGACY)
        sim.at(21_000, port.enqueue, late)
        sim.run()
        assert [p for _, p in sink.arrivals[:6]] == pkts[:6]
        assert [t for t, _ in sink.arrivals[:6]] == [
            (i + 1) * SER + 1500 for i in range(6)
        ]
        assert faulty.counters.discarded_in_flight == 1
        assert faulty.counters.dropped_link_down == 5
        assert [p for _, p in sink.arrivals[6:]] == [late]
        assert sink.arrivals[6][0] == 21_000 + SER + 1500

    def test_spliced_link_keeps_serialization_end_fault_semantics(self):
        """The FaultyLink defers carry() to serialization end: a packet
        that starts serializing before a cut and ends after it dies, as
        does the one queued behind it, while the six before arrived."""
        sim = Simulator()
        port, sink = _mk_port(sim, delay_ns=100)
        faulty = splice(port)
        for p in _pkts(8):  # one cut-through + 7 queued
            port.enqueue(p)
        sim.at(int(6.5 * SER), faulty.fail)
        sim.run()
        # Packets 0-5 serialized and (with 100 ns delay) arrived before the
        # cut; 6 was on the wire at the cut and 7 queued behind it.
        assert len(sink.arrivals) == 6
        assert faulty.counters.dropped_link_down == 2


# ------------------------------------------------------ telemetry samplers


class TestTelemetryOnBurstPort:
    def test_watchers_install_no_monitors_and_keep_burst_path(self):
        """Watching a port rebinds neither its link nor its serve event."""
        sim = Simulator()
        port, _ = _mk_port(sim)
        link, serve = port.link, port._serve_cb
        sampler = TelemetrySampler(sim, interval_ns=500, until_ns=20_000)
        sampler.watch_port(port)
        sampler.watch_link(port)
        assert port.link is link
        assert port._serve_cb is serve

    def test_sampler_accounts_burst_drained_bytes_without_timing_skew(self):
        """With the sampler ticking through the drain, arrivals stay on the
        exact back-to-back timeline and the link-utilization counter
        integrates back to the delivered byte total."""
        sim = Simulator()
        port, sink = _mk_port(sim, delay_ns=1000)
        sampler = TelemetrySampler(sim, interval_ns=500, until_ns=20_000)
        sampler.watch_port(port)
        sampler.watch_link(port)
        sampler.start()
        for p in _pkts(12):
            port.enqueue(p)
        sim.run()
        assert [t for t, _ in sink.arrivals] == [
            (i + 1) * SER + 1000 for i in range(12)
        ]
        series = sampler.freeze()
        util = series.values("link.tx.util")
        # util is delta_bytes * 8e9 / (interval * rate); invert to bytes.
        total = sum(util) * 500 * RATE / 8e9
        assert total == pytest.approx(12 * SIZE)
        depths = series.values("port.tx.q0.depth_bytes")
        assert max(depths) > 0  # saw the backlog...
        assert depths[-1] == 0  # ...and its drain

    def test_sampler_on_spliced_link_sees_outage_window(self):
        """Splice first, then watch: the sampler reads the FaultyLink's
        delivery counter, so utilization covers only frames that truly
        arrived and flatlines across the outage."""
        sim = Simulator()
        port, sink = _mk_port(sim, delay_ns=1500)
        faulty = splice(port)
        sampler = TelemetrySampler(sim, interval_ns=500, until_ns=30_000)
        sampler.watch_link(port)
        sampler.start()
        for p in _pkts(12):
            port.enqueue(p)
        sim.at(7600, faulty.fail)
        sim.run()
        series = sampler.freeze()
        util = series.values("link.tx.util")
        total = sum(util) * 500 * RATE / 8e9
        assert total == pytest.approx(6 * SIZE)  # only the 6 survivors
        # Every tick after the cut reads zero utilization.
        post = [v for t, v in zip(series.times("link.tx.util"), util)
                if t > 10_000]
        assert post and all(v == 0.0 for v in post)
