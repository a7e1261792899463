"""Integration tests for the experiment harness (config, runner, sweeps)."""

import dataclasses
import itertools

import pytest

import repro.experiments.sweep as sweep_mod
from repro.experiments.cache import config_key
from repro.experiments.config import QueueSettings, SchemeName
from repro.experiments.runner import flow_specs, run_experiment
from repro.experiments.scenarios import (
    flexpass_queue_factory,
    make_scheme_setup,
    naive_queue_factory,
    owf_queue_factory,
)
from repro.experiments.sweep import (
    SweepCell,
    default_sweep_config,
    deployment_sweep,
    fig10_rows,
    fig12_rows,
    fig17_seldrop_sweep,
    fig18_wq_sweep,
)
from repro.metrics.telemetry import TelemetryConfig
from repro.net.packet import Dscp
from repro.net import build_clos
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.units import GBPS, KB, MILLIS
from repro.transports.base import FlowSpec, FlowStats
from repro.workloads.distributions import workload_cdf
from repro.workloads.gen import (
    OpenLoopSource,
    PoissonArrivals,
    TrafficConfig,
    UniformPairs,
)

from tests.util import cell, tiny_cfg


class TestQueueFactories:
    def test_flexpass_three_queues(self):
        schedules, classifier = flexpass_queue_factory(QueueSettings(wq=0.5))(
            "p", 10 * GBPS, False
        )
        assert len(schedules) == 3
        assert schedules[0].priority == 0 and schedules[0].pacer is not None
        assert schedules[1].weight == pytest.approx(0.5)
        assert classifier[Dscp.CREDIT.value] == 0
        assert classifier[Dscp.REACTIVE_DATA.value] == 1
        assert classifier[Dscp.LEGACY.value] == 2

    def test_flexpass_credit_rate_scaled_by_wq(self):
        for wq in (0.4, 0.6):
            schedules, _ = flexpass_queue_factory(QueueSettings(wq=wq))(
                "p", 10 * GBPS, False
            )
            rate = schedules[0].pacer.rate_bps
            assert rate == int(10 * GBPS * wq * 84 / 1584)

    def test_naive_shares_one_data_queue(self):
        schedules, classifier = naive_queue_factory(QueueSettings())(
            "p", 10 * GBPS, False
        )
        assert len(schedules) == 2
        data_targets = {classifier[Dscp.PROACTIVE_DATA.value],
                        classifier[Dscp.LEGACY.value]}
        assert data_targets == {1}

    def test_owf_weights_match_fraction(self):
        schedules, _ = owf_queue_factory(QueueSettings(), 0.3)("p", 10 * GBPS, False)
        assert schedules[1].weight == pytest.approx(0.3)
        assert schedules[2].weight == pytest.approx(0.7)

    def test_owf_fraction_clamped(self):
        schedules, _ = owf_queue_factory(QueueSettings(), 0.0)("p", 10 * GBPS, False)
        assert schedules[1].weight > 0

    def test_unknown_scheme_rejected(self):
        cfg = tiny_cfg()
        object.__setattr__(cfg, "scheme", "bogus")
        with pytest.raises(ValueError):
            make_scheme_setup(cfg)


class TestLaunchers:
    @pytest.mark.parametrize("scheme", list(SchemeName), ids=lambda s: s.value)
    def test_flows_share_one_frozen_params(self, scheme):
        """A launcher builds its scheme's params once per cell: two flows
        hold the same object, and it refuses writes, so sharing it is
        checked rather than assumed."""
        cfg = tiny_cfg(scheme=scheme, deployment=1.0)
        setup = make_scheme_setup(cfg)
        sim = Simulator()
        hosts = build_clos(sim, setup.queue_factory, cfg.clos).hosts
        first, second = (
            setup.launch_new(sim, FlowSpec(i, hosts[0], hosts[i + 1], 10_000,
                                           0, group="new"),
                             FlowStats(), None).params
            for i in range(2))
        assert first is second
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(first, dataclasses.fields(first)[0].name, None)


class TestBuildFlowSpecs:
    """``flow_specs``: the run's traffic as labelled ``FlowSpec``s."""

    @staticmethod
    def _clos(cfg):
        return build_clos(Simulator(), make_scheme_setup(cfg).queue_factory,
                          cfg.clos)

    def _specs(self, cfg):
        return [spec for spec, _children in
                flow_specs(cfg, self._clos(cfg), RngRegistry(cfg.seed))]

    def test_groups_assigned_by_deployment(self):
        specs = self._specs(tiny_cfg(deployment=0.5))
        assert specs
        assert {s.group for s in specs} == {"new", "legacy"}
        # rack granularity: a host pair always lands in the same group,
        # and the scheme label follows the group
        by_pair = {}
        for s in specs:
            assert by_pair.setdefault((s.src.id, s.dst.id), s.group) == s.group
            assert s.scheme == ("flexpass" if s.group == "new" else "dctcp")

    def test_dctcp_scheme_all_legacy(self):
        specs = self._specs(tiny_cfg(scheme=SchemeName.DCTCP, deployment=1.0))
        assert all(s.group == "legacy" for s in specs)

    def test_foreground_flows_tagged(self):
        specs = self._specs(tiny_cfg(
            traffic=TrafficConfig.paper(foreground_fraction=0.1),
            sim_time_ns=10 * MILLIS))
        assert {s.role for s in specs} == {"bg", "fg"}
        assert all(s.size_bytes == 8 * KB for s in specs if s.role == "fg")

    def test_default_traffic_is_the_bg_source(self):
        """The default config's flows are ``OpenLoopSource("bg",
        UniformPairs, ...)`` drawn on ``rng.stream("traffic.bg")``."""
        cfg = tiny_cfg()
        clos = self._clos(cfg)
        cdf = workload_cdf(cfg.workload)
        offered = cfg.load * len(clos.hosts) * cfg.clos.rate_bps / 8.0 / 1e9
        source = OpenLoopSource(
            "bg", UniformPairs(clos.hosts), cdf,
            PoissonArrivals(offered / cdf.realized_mean_bytes(cfg.size_scale)),
            cfg.sim_time_ns, size_scale=cfg.size_scale)
        want = source.flows(RngRegistry(cfg.seed).stream("traffic.bg"))
        got = flow_specs(cfg, clos, RngRegistry(cfg.seed))
        n = 0
        for (spec, children), t in zip(got, itertools.islice(want, 50)):
            assert (spec.flow_id, spec.src, spec.dst, spec.size_bytes,
                    spec.start_ns, spec.role, children) == \
                (t.flow_id, t.src, t.dst, t.size_bytes, t.start_ns, "bg", ())
            n += 1
        assert n == 50


class TestRunExperiment:
    def test_run_produces_records(self):
        res = cell(tiny_cfg())
        assert len(res.records) > 20
        assert res.completed > 0
        assert res.routing_failures == 0
        assert res.events_run > 0

    def test_deterministic_given_seed(self):
        # re-run: two simulations of one config must agree
        r1 = run_experiment(tiny_cfg(seed=11))
        r2 = run_experiment(tiny_cfg(seed=11))
        f1 = [(r.flow_id, r.fct_ns) for r in r1.records]
        f2 = [(r.flow_id, r.fct_ns) for r in r2.records]
        assert f1 == f2

    def test_different_seed_different_traffic(self):
        r1 = cell(tiny_cfg(seed=1))
        r2 = cell(tiny_cfg(seed=2))
        assert [(r.flow_id, r.size_bytes) for r in r1.records] != \
               [(r.flow_id, r.size_bytes) for r in r2.records]

    def test_all_schemes_run(self):
        for scheme in SchemeName:
            res = cell(tiny_cfg(scheme=scheme))
            assert res.completed > 0, scheme

    def test_q1_sampling(self):
        cfg = tiny_cfg(scheme=SchemeName.FLEXPASS)
        res = cell(cfg.with_(
            telemetry=TelemetryConfig.ports_only(cfg.sim_time_ns)))
        q1_avg_kb, q1_p90_kb, q1_avg_red_kb, _ = res.q1_occupancy_kb()
        # p90 can legitimately sit below the mean for heavy-tailed samples;
        # just require sampling to have produced sane numbers.
        assert q1_avg_kb >= 0.0
        assert q1_p90_kb >= 0.0
        assert q1_avg_red_kb <= q1_avg_kb + 1e-9

    def test_same_key_means_same_result(self):
        """A result is a function of its config: sampling Q1 costs extra
        events, so it must be asked for on the config, where the key sees
        it, and two runs of one config must agree to the event."""
        plain = tiny_cfg(scheme=SchemeName.FLEXPASS, deployment=1.0)
        sampled = plain.with_(
            telemetry=TelemetryConfig.ports_only(plain.sim_time_ns))
        assert config_key(plain) != config_key(sampled)
        q1 = {}
        for name, cfg in (("plain", plain), ("sampled", sampled)):
            # re-run: a key must name one result, event for event
            a, b = run_experiment(cfg), run_experiment(cfg)
            assert a.events_run == b.events_run
            assert a.q1_occupancy_kb() == b.q1_occupancy_kb()
            q1[name] = a.q1_occupancy_kb()
        assert q1["plain"] == (0.0, 0.0, 0.0, 0.0)
        assert q1["sampled"][0] > 0.0

    def test_fct_filters(self):
        res = cell(tiny_cfg())
        s_all = res.fct()
        s_small = res.fct(small=True)
        assert s_small.count <= s_all.count
        new = res.fct(group="new")
        legacy = res.fct(group="legacy")
        assert new.count + legacy.count == s_all.count


class TestSweep:
    def test_deployment_sweep_shares_baseline(self):
        base = tiny_cfg()
        grid = deployment_sweep(base, schemes=(SchemeName.FLEXPASS,
                                               SchemeName.NAIVE),
                                deployments=(0.0, 1.0))
        assert grid[("flexpass", 0.0)] is grid[("naive", 0.0)]
        assert len(grid) == 4

    def test_projection_rows(self):
        base = tiny_cfg()
        grid = deployment_sweep(base, schemes=(SchemeName.FLEXPASS,),
                                deployments=(0.0, 1.0))
        rows10 = fig10_rows(grid)
        rows12 = fig12_rows(grid)
        assert len(rows10) == len(rows12) == 2

    @pytest.mark.parametrize("sweep,knob", [
        (fig17_seldrop_sweep, "q1_seldrop_bytes"),
        (fig18_wq_sweep, "wq"),
    ])
    def test_parameter_sweeps_keep_the_other_queue_settings(
            self, monkeypatch, sweep, knob):
        """Figs 17/18 vary one QueueSettings field; every other field of
        the base — here a non-default credit buffer — reaches every cell."""
        class Seen(Exception):
            pass

        def spy(configs):
            raise Seen(configs)

        monkeypatch.setattr(sweep_mod, "run_many", spy)
        base = tiny_cfg(queues=QueueSettings(credit_buffer_bytes=4000,
                                             q2_ecn_bytes=77_000))
        with pytest.raises(Seen) as seen:
            sweep(base)
        (configs,) = seen.value.args
        assert len(configs) >= 4
        assert {c.queues.credit_buffer_bytes for c in configs} == {4000}
        assert {c.queues.q2_ecn_bytes for c in configs} == {77_000}
        assert len({getattr(c.queues, knob) for c in configs}) >= 4

    def test_default_sweep_config_overridable(self):
        cfg = default_sweep_config(load=0.7, seed=9)
        assert cfg.load == 0.7
        assert cfg.seed == 9

    def test_sweepcell_from_result(self):
        res = cell(tiny_cfg())
        row = SweepCell.from_result(res)
        assert row.flows == len(res.records)
        assert row.scheme == "flexpass"
