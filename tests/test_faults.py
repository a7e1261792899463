"""Tests for the fault-injection subsystem (repro.faults) and resilient
experiment execution (watchdog, run_many hardening)."""

import numpy as np
import pytest

from repro.experiments.config import QueueSettings
from repro.experiments.parallel import FailedResult, run_many
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import flexpass_queue_factory
from repro.faults import (
    BernoulliLoss,
    FaultCounters,
    FaultPlan,
    FaultyLink,
    GilbertElliottLoss,
    KindSelectiveLoss,
    LinkDownEvent,
    LinkFailureSpec,
    LinkLossSpec,
    LinkUpEvent,
    LossyLink,
    schedule_failure_events,
    splice,
)
from repro.core.flexpass import FlexPassParams, FlexPassReceiver, FlexPassSender
from repro.net.packet import Packet, PacketKind
from repro.net import ClosSpec, DumbbellSpec, build_clos, build_dumbbell
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.units import GBPS, MB, MILLIS
from repro.transports.base import FlowSpec, FlowStats
from repro.transports.credit_feedback import CREDIT_PER_DATA
from repro.transports.dctcp import DctcpParams, DctcpReceiver, DctcpSender

from tests.util import Completions, cell, tiny_cfg


def _pkt(kind=PacketKind.DATA, **kw):
    defaults = dict(flow_id=1, src=0, dst=1, size=1584)
    defaults.update(kw)
    return Packet(kind, **defaults)


def _drop_pattern(model, n=400):
    return [model.should_drop(_pkt()) for _ in range(n)]


# ------------------------------------------------------------- loss models


class TestLossModels:
    def test_bernoulli_rate(self):
        model = BernoulliLoss(0.25, np.random.default_rng(1))
        drops = sum(_drop_pattern(model, 4000))
        assert 800 < drops < 1200  # ~1000 expected

    def test_bernoulli_rejects_bad_p(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5, np.random.default_rng(1))

    def test_gilbert_elliott_deterministic_under_fixed_seed(self):
        def make():
            return GilbertElliottLoss(0.05, 0.3, np.random.default_rng(42))

        assert _drop_pattern(make()) == _drop_pattern(make())
        other = GilbertElliottLoss(0.05, 0.3, np.random.default_rng(43))
        assert _drop_pattern(other) != _drop_pattern(make())

    def test_gilbert_elliott_bursts(self):
        """Losses cluster: the burst count is far below the loss count."""
        model = GilbertElliottLoss(0.02, 0.25, np.random.default_rng(7))
        pattern = _drop_pattern(model, 5000)
        losses = sum(pattern)
        assert losses > 0
        assert model.bursts > 0
        # mean burst length 1/0.25 = 4 packets -> far fewer bursts than losses
        assert model.bursts < losses / 2

    def test_kind_selective_only_hits_selected_kinds(self):
        model = KindSelectiveLoss(BernoulliLoss(1.0, np.random.default_rng(1)),
                                  {PacketKind.CREDIT})
        assert not model.should_drop(_pkt(PacketKind.DATA))
        assert model.should_drop(_pkt(PacketKind.CREDIT))


# -------------------------------------------------------------- FaultyLink


class _SinkNode:
    def __init__(self):
        self.received = []

    def receive(self, pkt):
        self.received.append(pkt)


def _direct_link(sim, delay_ns=1000):
    from repro.net.link import Link

    sink = _SinkNode()
    return Link(sim, sink, delay_ns), sink


class TestFaultyLink:
    def test_passthrough_delivers(self):
        sim = Simulator()
        link, sink = _direct_link(sim)
        faulty = FaultyLink(link)
        faulty.carry(_pkt())
        sim.run()
        assert len(sink.received) == 1
        assert faulty.packets_delivered == 1

    def test_loss_model_drops(self):
        sim = Simulator()
        link, sink = _direct_link(sim)
        faulty = FaultyLink(link, loss=BernoulliLoss(1.0, np.random.default_rng(1)))
        faulty.carry(_pkt())
        sim.run()
        assert sink.received == []
        assert faulty.counters.injected_drops == 1

    def test_corruption_counted_at_nic_after_flight_time(self):
        sim = Simulator()
        link, sink = _direct_link(sim, delay_ns=500)
        faulty = FaultyLink(
            link, corruption=BernoulliLoss(1.0, np.random.default_rng(1)))
        faulty.carry(_pkt())
        assert faulty.counters.corrupted == 0  # still on the wire
        sim.run()
        assert sink.received == []
        assert faulty.counters.corrupted == 1

    def test_fail_discards_in_flight_and_blocks_new(self):
        sim = Simulator()
        link, sink = _direct_link(sim, delay_ns=1000)
        faulty = FaultyLink(link)
        faulty.carry(_pkt())
        assert faulty.in_flight() == 1
        faulty.fail()
        faulty.carry(_pkt())  # transmitted into a dead link
        sim.run()
        assert sink.received == []
        assert faulty.counters.discarded_in_flight == 1
        assert faulty.counters.dropped_link_down == 1
        faulty.restore()
        faulty.carry(_pkt())
        sim.run()
        assert len(sink.received) == 1

    def test_lossy_link_records_drops(self):
        sim = Simulator()
        link, sink = _direct_link(sim)
        lossy = LossyLink(link, lambda pkt: pkt.kind == PacketKind.DATA)
        lossy.carry(_pkt(PacketKind.DATA))
        lossy.carry(_pkt(PacketKind.ACK))
        sim.run()
        assert len(lossy.dropped) == 1
        assert len(sink.received) == 1

    def test_splice_is_idempotent(self):
        sim = Simulator()
        db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings()),
                            DumbbellSpec(n_pairs=1))
        first = splice(db.bottleneck,
                       loss=BernoulliLoss(0.0, np.random.default_rng(1)))
        second = splice(db.bottleneck)
        assert first is second
        assert db.bottleneck.link is first


# ----------------------------------------------- link failures + rerouting


def _flexpass_flow(sim, db, size=1 * MB):
    done = Completions()
    spec = FlowSpec(1, db.senders[0], db.receivers[0], size, 0,
                    scheme="flexpass", group="new")
    stats = FlowStats()
    params = FlexPassParams(
        max_credit_rate_bps=10 * GBPS * 0.5 * CREDIT_PER_DATA)
    FlexPassReceiver(sim, spec, stats, params, on_complete=done)
    sender = FlexPassSender(sim, spec, stats, params)
    sim.at(0, sender.start)
    return stats, done


class TestLinkFailureEvents:
    def test_flexpass_survives_mid_transfer_outage(self):
        """The acceptance scenario: dumbbell bottleneck dies mid-transfer,
        comes back, the flow completes exactly once, reroutes >= 1."""
        sim = Simulator()
        db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings(wq=0.5)),
                            DumbbellSpec(n_pairs=1))
        stats, done = _flexpass_flow(sim, db, size=2 * MB)
        counters = schedule_failure_events(sim, db.topo, [
            LinkDownEvent(1 * MILLIS, "swL", "swR"),
            LinkUpEvent(3 * MILLIS, "swL", "swR"),
        ])
        sim.run(until=120 * MILLIS)
        assert done.flow_ids == {1}
        assert stats.delivered_bytes == 2 * MB  # exactly once
        assert counters.reroutes >= 1
        assert counters.link_failures == 1 and counters.link_restores == 1
        assert (counters.discarded_in_flight + counters.dropped_link_down) > 0

    def test_dctcp_survives_mid_transfer_outage(self):
        sim = Simulator()
        db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings()),
                            DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 2 * MB, 0,
                        scheme="dctcp")
        stats = FlowStats()
        DctcpReceiver(sim, spec, stats, DctcpParams(), on_complete=done)
        sender = DctcpSender(sim, spec, stats, DctcpParams())
        sim.at(0, sender.start)
        counters = schedule_failure_events(sim, db.topo, [
            LinkDownEvent(1 * MILLIS, "swL", "swR"),
            LinkUpEvent(3 * MILLIS, "swL", "swR"),
        ])
        sim.run(until=200 * MILLIS)
        assert done.flow_ids == {1}
        assert stats.delivered_bytes == 2 * MB
        assert counters.reroutes >= 1
        assert stats.timeouts >= 1  # the outage forced the RTO path

    def test_clos_reroutes_around_failed_uplink(self):
        """With two aggs per pod, killing one ToR uplink leaves an
        equal-cost alternative: routes reconverge and traffic flows on."""
        sim = Simulator()
        spec = ClosSpec(n_pods=2, aggs_per_pod=2, tors_per_pod=1,
                        hosts_per_tor=1)
        clos = build_clos(sim, flexpass_queue_factory(QueueSettings(wq=0.5)),
                          spec)
        tor = clos.node("tor0.0")
        agg = clos.node("agg0.0")
        hops_before = dict(tor.next_hops)
        done = Completions()
        src, dst = clos.hosts[0], clos.hosts[1]
        fspec = FlowSpec(1, src, dst, 1 * MB, 0, scheme="flexpass",
                         group="new")
        stats = FlowStats()
        params = FlexPassParams(
            max_credit_rate_bps=10 * GBPS * 0.5 * CREDIT_PER_DATA)
        FlexPassReceiver(sim, fspec, stats, params, on_complete=done)
        sender = FlexPassSender(sim, fspec, stats, params)
        sim.at(0, sender.start)
        counters = schedule_failure_events(sim, clos.topo, [
            LinkDownEvent(200_000, tor.name, agg.name),
        ])
        sim.run(until=120 * MILLIS)
        # After the failure every route through the dead agg is gone.
        assert all(agg.id not in hops for hops in tor.next_hops.values())
        assert any(agg.id in hops for hops in hops_before.values())
        assert counters.reroutes >= 1
        assert done.flow_ids == {1}
        assert stats.delivered_bytes == 1 * MB

    def test_unknown_node_name_fails_at_setup(self):
        sim = Simulator()
        db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings()),
                            DumbbellSpec(n_pairs=1))
        with pytest.raises(ValueError, match="swL <-> nonexistent: unknown "
                                             "node 'nonexistent'"):
            schedule_failure_events(sim, db.topo, [
                LinkDownEvent(0, "swL", "nonexistent")])


# ----------------------------------------------------------------- FaultPlan


def _faulty_cfg(**overrides):
    base = dict(
        sim_time_ns=2 * MILLIS,
        seed=5,
        faults=FaultPlan(
            losses=(LinkLossSpec(model="gilbert", rate=1.0,
                                 burst_start=0.002, burst_end=0.2,
                                 kinds=("data",)),),
            failures=(LinkFailureSpec(a="tor0.0", b="agg0.0",
                                      down_ns=500_000, up_ns=1_000_000),),
        ),
    )
    base.update(overrides)
    return tiny_cfg(**base)


class TestFaultPlan:
    def test_plan_is_picklable(self):
        import pickle

        cfg = _faulty_cfg()
        assert pickle.loads(pickle.dumps(cfg)).faults == cfg.faults

    def test_seeded_run_is_bit_for_bit_reproducible(self):
        r1 = cell(_faulty_cfg())
        # re-run: a second simulation of the faulted config must agree
        r2 = run_experiment(_faulty_cfg())
        assert r1.fault_counters == r2.fault_counters
        assert r1.fault_counters.injected_drops > 0
        f1 = [(r.flow_id, r.fct_ns, r.retransmissions) for r in r1.records]
        f2 = [(r.flow_id, r.fct_ns, r.retransmissions) for r in r2.records]
        assert f1 == f2

    def test_different_seed_different_faults(self):
        r1 = cell(_faulty_cfg(seed=5))
        r2 = cell(_faulty_cfg(seed=6))
        assert [(r.flow_id, r.fct_ns) for r in r1.records] != \
               [(r.flow_id, r.fct_ns) for r in r2.records]

    def test_failures_counted_in_result(self):
        res = cell(_faulty_cfg())
        assert res.fault_counters.link_failures == 1
        assert res.fault_counters.link_restores == 1
        assert res.fault_counters.reroutes == 2

    def test_corrupt_spec_counts_at_nic(self):
        cfg = _faulty_cfg(faults=FaultPlan(
            losses=(LinkLossSpec(rate=0.05, corrupt=True, kinds=("data",)),)))
        res = cell(cfg)
        assert res.fault_counters.corrupted > 0
        assert res.fault_counters.injected_drops == 0

    def test_bad_link_pattern_raises(self):
        cfg = _faulty_cfg(faults=FaultPlan(
            losses=(LinkLossSpec(links="nope->nowhere*"),)))
        with pytest.raises(ValueError):
            run_experiment(cfg)

    def test_fault_annotation_marks_degraded_runs(self):
        from repro.metrics.summary import degraded_title, fault_annotation

        res = cell(_faulty_cfg())
        note = fault_annotation(res)
        assert "faults" in note and "reroutes" in note
        assert degraded_title("t", res).startswith("t [")
        clean = cell(_faulty_cfg(faults=None))
        assert fault_annotation(clean) == ""


# ----------------------------------------------------------------- watchdog


class TestWatchdog:
    def test_max_events_aborts_with_reason(self):
        sim = Simulator()

        def reschedule():
            sim.after(10, reschedule)

        sim.after(0, reschedule)
        sim.run(max_events=100)
        assert sim.aborted
        assert "max_events" in sim.abort_reason

    def test_wall_clock_budget_aborts(self):
        sim = Simulator()

        def reschedule():
            sim.after(10, reschedule)

        sim.after(0, reschedule)
        sim.run(max_events=1_000_000, wall_clock_s=0.0)
        assert sim.aborted
        assert "wall-clock" in sim.abort_reason

    def test_clean_finish_is_not_an_abort(self):
        sim = Simulator()
        sim.after(5, lambda: None)
        sim.run(until=100, max_events=1000, wall_clock_s=60.0)
        assert not sim.aborted
        assert sim.now == 100

    def test_runner_returns_partial_result_flagged_aborted(self):
        cfg = _faulty_cfg(faults=None, max_events=5000)
        res = cell(cfg)
        assert res.aborted
        assert "watchdog" in res.abort_reason
        assert res.events_run <= 5000
        assert len(res.records) >= 0  # partial but well-formed

    def test_abort_flag_resets_on_next_run(self):
        sim = Simulator()
        for i in range(10):
            sim.at(i, lambda: None)
        sim.run(max_events=3)
        assert sim.aborted
        sim.run()
        assert not sim.aborted


# ------------------------------------------------------ run_many resilience


def _poison_cfg():
    # workload_cdf() raises KeyError for an unknown workload inside the
    # worker -- a realistic "one config in the sweep is broken" case.
    return tiny_cfg(workload="no-such-workload")


class TestRunManyResilience:
    def test_serial_poisoned_config_yields_failed_result(self):
        cfgs = [tiny_cfg(), _poison_cfg(), tiny_cfg(seed=7)]
        results = run_many(cfgs, processes=1)
        assert len(results) == 3
        assert not isinstance(results[0], FailedResult)
        assert isinstance(results[1], FailedResult)
        assert not isinstance(results[2], FailedResult)
        failed = results[1]
        assert failed.config.workload == "no-such-workload"
        assert "no-such-workload" in failed.traceback

    def test_pool_poisoned_config_does_not_crash(self):
        cfgs = [tiny_cfg(), _poison_cfg()]
        results = run_many(cfgs, processes=2)
        assert len(results) == 2
        assert isinstance(results[1], FailedResult)
        assert results[0].completed > 0

    def test_retry_marks_deterministic_failures(self):
        results = run_many([_poison_cfg()], processes=1, max_retries=1)
        assert isinstance(results[0], FailedResult)
        assert results[0].retried

    def test_faulted_configs_survive_the_pool(self):
        """A config carrying a FaultPlan pickles through workers and back."""
        cfgs = [_faulty_cfg(seed=s) for s in (5, 6)]
        results = run_many(cfgs, processes=2)
        assert all(not isinstance(r, FailedResult) for r in results)
        assert all(r.fault_counters.link_failures == 1 for r in results)
