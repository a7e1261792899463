"""Tests for the packet tracer, including path/symmetry assertions."""

import pytest

from repro.audit import AuditConfig
from repro.audit.matrix import matrix_config
from repro.core.flexpass import FlexPassParams, FlexPassReceiver, FlexPassSender
from repro.experiments import runner
from repro.experiments.config import QueueSettings
from repro.experiments.scenarios import flexpass_queue_factory
from repro.faults.link import splice
from repro.metrics.tracing import PacketTracer, TracedLink
from repro.net.packet import PacketKind
from repro.net import ClosSpec, DumbbellSpec, build_clos, build_dumbbell
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, KB, MICROS, MILLIS
from repro.transports.base import FlowSpec, FlowStats
from repro.transports.credit_feedback import CREDIT_PER_DATA
from repro.transports.dctcp import DctcpParams, DctcpReceiver, DctcpSender

from tests.test_net_port_topology import single_queue_factory
from tests.util import Completions


def run_traced_flexpass(size=100 * KB):
    sim = Simulator()
    db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings(wq=0.5)),
                        DumbbellSpec(n_pairs=1))
    tracer = PacketTracer(db.topo.nodes.values(), flow_ids=[1])
    params = FlexPassParams(max_credit_rate_bps=10 * GBPS * 0.5 * CREDIT_PER_DATA)
    spec = FlowSpec(1, db.senders[0], db.receivers[0], size, 0,
                    scheme="flexpass", group="new")
    stats = FlowStats()
    FlexPassReceiver(sim, spec, stats, params)
    sender = FlexPassSender(sim, spec, stats, params)
    sim.at(0, sender.start)
    sim.run(until=60 * MILLIS)
    return db, tracer, stats


def _traced_ports(topo):
    return [port for node in topo.nodes.values()
            for port in node.ports.values()
            if isinstance(port.link, TracedLink)]


class TestTracer:
    def test_records_all_packet_kinds(self):
        _, tracer, _ = run_traced_flexpass()
        kinds = {e.kind for e in tracer.events}
        assert {"DATA", "ACK", "CREDIT", "CREDIT_REQUEST"} <= kinds

    def test_path_of_segment_crosses_fabric(self):
        db, tracer, _ = run_traced_flexpass()
        path = tracer.path_of(1, flow_seq=0)
        # data packet: sender NIC -> swL -> swR (3 transmit events)
        assert len(path) >= 3
        assert path[0].startswith("s0->")
        assert "swL->swR" in path

    def test_flow_filter(self):
        sim = Simulator()
        db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings()),
                            DumbbellSpec(n_pairs=2))
        tracer = PacketTracer(db.topo.nodes.values(), flow_ids=[2])
        for fid in (1, 2):
            spec = FlowSpec(fid, db.senders[fid - 1], db.receivers[fid - 1],
                            20 * KB, 0, scheme="dctcp")
            st = FlowStats()
            DctcpReceiver(sim, spec, st, DctcpParams())
            s = DctcpSender(sim, spec, st, DctcpParams())
            sim.at(0, s.start)
        sim.run(until=20 * MILLIS)
        assert tracer.events
        assert all(e.flow_id == 2 for e in tracer.events)

    def test_overflow_guard(self):
        sim = Simulator()
        db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings()),
                            DumbbellSpec(n_pairs=1))
        tracer = PacketTracer(db.topo.nodes.values(), max_events=5)
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 50 * KB, 0,
                        scheme="dctcp")
        st = FlowStats()
        DctcpReceiver(sim, spec, st, DctcpParams())
        s = DctcpSender(sim, spec, st, DctcpParams())
        sim.at(0, s.start)
        sim.run(until=20 * MILLIS)
        assert len(tracer.events) == 5
        assert tracer.overflowed

    def test_dump_truncates(self):
        _, tracer, _ = run_traced_flexpass()
        out = tracer.dump(limit=3)
        assert "more events" in out

    def test_close_uninstalls_every_hook(self):
        db, tracer, _ = run_traced_flexpass()
        assert _traced_ports(db.topo)
        recorded = len(tracer.events)
        tracer.close()
        assert not _traced_ports(db.topo)
        # idempotent, and recorded events stay queryable
        tracer.close()
        assert len(tracer.events) == recorded

    def test_context_manager_closes_on_exit(self):
        sim = Simulator()
        db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings()),
                            DumbbellSpec(n_pairs=1))
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 20 * KB, 0,
                        scheme="dctcp")
        st = FlowStats()
        DctcpReceiver(sim, spec, st, DctcpParams())
        s = DctcpSender(sim, spec, st, DctcpParams())
        sim.at(0, s.start)
        with PacketTracer(db.topo.nodes.values()) as tracer:
            sim.run(until=20 * MILLIS)
        assert tracer.events
        assert not _traced_ports(db.topo)

    def test_close_leaves_an_externally_relinked_port_alone(self):
        """A fault splice after the tracer wraps the traced link; closing
        the tracer must not strip the splice, and must unwrap the rest."""
        sim = Simulator()
        db = build_dumbbell(sim, single_queue_factory, DumbbellSpec(n_pairs=1))
        plain = {port.name: port.link for port in db.topo.all_ports()}
        tracer = PacketTracer(db.topo.nodes.values())
        port = db.topo.all_ports()[0]
        faulty = splice(port)
        tracer.close()
        assert port.link is faulty and type(faulty.inner) is TracedLink
        for other in db.topo.all_ports()[1:]:
            assert other.link is plain[other.name]


class TestTracingChangesNothing:
    """A tracer on every port is an observer: the run it watches schedules
    the same events, completes the same flows at the same instants, counts
    the same marks and drops, and audits to the same digest."""

    @staticmethod
    def _run(cfg, monkeypatch=None):
        tracers = []
        if monkeypatch is not None:
            attach = runner._attach_telemetry

            def trace_then_attach(sim, cfg, clos, live):
                tracers.append(PacketTracer(clos.topo.nodes.values()))
                return attach(sim, cfg, clos, live)

            monkeypatch.setattr(runner, "_attach_telemetry",
                                trace_then_attach)
        return runner.run_experiment(cfg), tracers

    @pytest.mark.parametrize("scheme, topology",
                             [("homa", "dumbbell"), ("naive", "incast")])
    def test_traced_run_is_the_untraced_run(self, monkeypatch, scheme,
                                            topology):
        cfg = matrix_config(scheme, topology, sim_time_ns=250 * MICROS,
                            audit=AuditConfig(digest=True))
        plain, _ = self._run(cfg)
        traced, [tracer] = self._run(cfg, monkeypatch)
        assert len(tracer.events) > 1000
        assert traced.audit.violations == []
        assert traced.records == plain.records
        assert traced.counters == plain.counters
        assert traced.events_run == plain.events_run
        assert traced.audit.digest == plain.audit.digest


class TestPathSymmetry:
    def test_credits_mirror_data_path_on_clos(self):
        """ExpressPass's core assumption: a flow's credits traverse the
        reverse of its data path (symmetric ECMP)."""
        sim = Simulator()
        clos = build_clos(
            sim, flexpass_queue_factory(QueueSettings(wq=0.5)),
            ClosSpec(n_pods=2, aggs_per_pod=2, tors_per_pod=2, hosts_per_tor=2),
        )
        src = clos.racks()[0][0]
        dst = clos.racks()[-1][0]  # cross-pod: through the core
        tracer = PacketTracer(clos.topo.nodes.values(), flow_ids=[1])
        params = FlexPassParams(
            max_credit_rate_bps=10 * GBPS * 0.5 * CREDIT_PER_DATA)
        spec = FlowSpec(1, src, dst, 400 * KB, 0, scheme="flexpass",
                        group="new")
        stats = FlowStats()
        FlexPassReceiver(sim, spec, stats, params)
        sender = FlexPassSender(sim, spec, stats, params)
        sim.at(0, sender.start)
        sim.run(until=60 * MILLIS)
        assert stats.completed

        def hops(events):
            return {e.port for e in events}

        data_ports = hops(e for e in tracer.events
                          if e.kind == "DATA" and e.subflow == 0)
        credit_ports = hops(e for e in tracer.events if e.kind == "CREDIT")

        def reverse(port_name):
            a, b = port_name.split("->")
            return f"{b}->{a}"

        # every switch-level data hop has its mirror in the credit path
        for port in data_ports:
            assert reverse(port) in credit_ports, (
                f"credit path missed mirror of {port}: {sorted(credit_ports)}"
            )
