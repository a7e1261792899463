"""Burst dequeue (PR 7) x link failure x telemetry interaction tests.

The burst fast path commits up to ``EgressPort.BURST`` packets onto the
wire in one serve event, with each packet's arrival scheduled at its own
cumulative serialization end. These tests pin down the three properties
that make that safe to compose with the rest of the system:

* wire timing is bit-identical to serving packets one at a time (a port
  whose queue has a pacer that never binds serves one packet per event),
  just with fewer events;
* a :class:`~repro.faults.link.FaultyLink` spliced under a bursting port
  still makes its fault decision at each packet's serialization end, so a
  mid-burst ``fail()`` destroys exactly the frames a real cable cut would
  — committed-but-unserialized frames included;
* a :class:`~repro.metrics.telemetry.TelemetrySampler` watching the port
  leaves the port and its link as they were, so telemetry-on runs keep
  the burst path (and observe the same timeline).
"""

import pytest

from repro.faults.link import splice
from repro.metrics.telemetry import TelemetrySampler
from repro.net.buffering import UnlimitedBuffer
from repro.net.link import Link
from repro.net.packet import Dscp, Packet, PacketKind
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


def _mk_port(sim, delay_ns=1000, pacer=None):
    sink = _Sink(sim)
    link = Link(sim, sink, delay_ns)
    q = PacketQueue(QueueConfig(name="data"))
    port = EgressPort(
        sim, "tx", RATE, UnlimitedBuffer(),
        [QueueSchedule(q, priority=0, weight=1.0, pacer=pacer)],
        {Dscp.LEGACY.value: 0}, link, {},
    )
    return port, sink


def _pkts(n):
    return [Packet(PacketKind.DATA, i, 0, 1, SIZE, dscp=Dscp.LEGACY)
            for i in range(n)]


# -------------------------------------------------------- burst vs oracle


class TestBurstDequeue:
    def test_backlog_exceeding_burst_drains_with_exact_wire_timing(self):
        """12 packets (> BURST=8) enqueued at once: every arrival lands at
        its own serialization end plus propagation, as if served singly."""
        sim = Simulator()
        port, sink = _mk_port(sim, delay_ns=1000)
        assert port._batch_ok
        pkts = _pkts(12)
        for p in pkts:
            assert port.enqueue(p)
        sim.run()
        assert [p for _, p in sink.arrivals] == pkts  # FIFO preserved
        assert [t for t, _ in sink.arrivals] == [
            (i + 1) * SER + 1000 for i in range(12)
        ]

    def test_burst_path_matches_one_packet_serving(self):
        """A pacer a hundred times the line rate never holds a packet back
        but turns burst dequeue off, so that port serves one packet per
        event; timings must match the burst run exactly, while the burst
        run spends fewer scheduled events."""
        def drain(paced):
            sim = Simulator()
            pacer = TokenBucket(100 * RATE, 12 * SIZE) if paced else None
            port, sink = _mk_port(sim, pacer=pacer)
            assert port._batch_ok != paced
            for p in _pkts(12):
                port.enqueue(p)
            sim.run()
            return [t for t, _ in sink.arrivals], sim.events_run

        slow_times, slow_events = drain(paced=True)
        fast_times, fast_events = drain(paced=False)
        assert fast_times == slow_times
        assert fast_events < slow_events


# ------------------------------------------------- mid-burst link failure


class TestMidBurstLinkFailure:
    def test_fail_mid_burst_destroys_committed_and_in_flight_frames(self):
        """All 12 packets are committed to the wire within the first two
        serve events; a fail() at 4.5 serialization times must drop every
        one of them — 4 mid-propagation, 8 still serializing or queued."""
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
        """splice() must not re-enable arrival coalescing: the FaultyLink
        defers carry() to serialization end even for burst-committed
        packets, so a failure between two commits of ONE burst separates
        their fates."""
        sim = Simulator()
        port, sink = _mk_port(sim, delay_ns=100)
        faulty = splice(port)
        for p in _pkts(8):  # one cut-through + one 7-packet burst
            port.enqueue(p)
        sim.at(int(6.5 * SER), faulty.fail)
        sim.run()
        # Packets 0-5 serialized and (with 100 ns delay) arrived before the
        # cut; 6 and 7 were committed in the same burst as 5 but die.
        assert len(sink.arrivals) == 6
        assert faulty.counters.dropped_link_down == 2


# ------------------------------------------------------ telemetry samplers


class TestTelemetryOnBurstPort:
    def test_watchers_install_no_monitors_and_keep_burst_path(self):
        sim = Simulator()
        port, _ = _mk_port(sim)
        link = port.link
        sampler = TelemetrySampler(sim, interval_ns=500, until_ns=20_000)
        sampler.watch_port(port)
        sampler.watch_link(port)
        assert port.link is link
        assert port._batch_ok

    def test_sampler_accounts_burst_drained_bytes_without_timing_skew(self):
        """With the sampler ticking through the drain, arrivals stay on the
        exact burst timeline and the link-utilization counter integrates
        back to the delivered byte total."""
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
