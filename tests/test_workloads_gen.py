"""Tests for the streaming traffic-generation suite (repro.workloads.gen).

Covers the generator protocol (constant memory, seed stability, flow-id
strides), composition (merge isolation), pinned flow streams of the §6.2
sources (draw order), the parametric distributions/arrival
processes/locality matrices, coflow child release through a real
experiment (and the horizon rule for replies), spec-string parsing, and
cache keying of the ``TrafficConfig`` block. See DESIGN.md §6k.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.experiments.cache import config_key
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import default_sweep_config
from repro.sim.rng import RngRegistry
from repro.sim.units import GBPS, KB, MILLIS
from repro.workloads.distributions import (
    WEBSEARCH,
    BimodalSizes,
    BoundedParetoSizes,
    LognormalSizes,
)
from repro.workloads.gen import (
    SOURCE_ID_STRIDE,
    CoflowSource,
    GroupedPairs,
    IncastSource,
    MatrixPairs,
    OnOffArrivals,
    OpenLoopSource,
    ParetoArrivals,
    PoissonArrivals,
    SourceConfig,
    TrafficConfig,
    UniformPairs,
    build_sources,
    merge_sources,
    parse_arrivals,
    parse_locality,
    parse_sizes,
    stream_digest,
    stub_groups,
    stub_hosts,
)

from tests.util import cell

HORIZON = 1 << 62  # effectively unbounded; cap streams with islice


def _bg_source(name="bg", rate=0.001, sim_time_ns=HORIZON, first_flow_id=1):
    return OpenLoopSource(name, UniformPairs(stub_hosts(8)), WEBSEARCH,
                          PoissonArrivals(rate), sim_time_ns,
                          size_scale=8.0, first_flow_id=first_flow_id)


class TestArrivalProcesses:
    def test_poisson_mean_gap(self):
        assert PoissonArrivals(0.25).mean_gap_ns() == 4.0

    def test_invalid_rate_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                PoissonArrivals(bad)

    def test_pareto_preserves_long_run_rate(self):
        # alpha=2.5 has finite variance, so the sample mean converges.
        proc = ParetoArrivals(0.01, alpha=2.5)
        rng = np.random.default_rng(3)
        gaps = list(itertools.islice(proc.gaps(rng), 200_000))
        assert np.mean(gaps) == pytest.approx(100.0, rel=0.05)

    def test_pareto_needs_heavy_tail_exponent(self):
        with pytest.raises(ValueError, match="alpha"):
            ParetoArrivals(0.01, alpha=1.0)

    def test_pareto_is_burstier_than_poisson(self):
        rng = np.random.default_rng(5)
        heavy = list(itertools.islice(
            ParetoArrivals(0.01, alpha=1.5).gaps(rng), 50_000))
        rng = np.random.default_rng(5)
        memless = list(itertools.islice(
            PoissonArrivals(0.01).gaps(rng), 50_000))
        assert np.std(heavy) > 2.0 * np.std(memless)

    def test_onoff_preserves_long_run_rate(self):
        # Rare OFF-period gaps dominate the variance, so the sample mean
        # converges slowly; 10% still separates "rate preserved" from any
        # duty-cycle bookkeeping error (those are off by 1/duty = 5x).
        proc = OnOffArrivals(0.01, on_ns=5_000.0, off_ns=20_000.0)
        rng = np.random.default_rng(7)
        gaps = list(itertools.islice(proc.gaps(rng), 400_000))
        assert np.mean(gaps) == pytest.approx(100.0, rel=0.1)

    def test_onoff_burst_rate_scales_with_duty_cycle(self):
        proc = OnOffArrivals(0.01, on_ns=5_000.0, off_ns=20_000.0)
        assert proc.burst_rate_per_ns == pytest.approx(0.05)  # duty 1/5

    def test_onoff_validation(self):
        with pytest.raises(ValueError):
            OnOffArrivals(0.01, on_ns=0.0, off_ns=10.0)
        with pytest.raises(ValueError):
            OnOffArrivals(0.01, on_ns=10.0, off_ns=-1.0)


class TestPairPickers:
    def test_uniform_never_self_pairs(self):
        picker = UniformPairs(stub_hosts(4))
        rng = np.random.default_rng(1)
        for _ in range(2_000):
            src, dst = picker.pick(rng)
            assert src.id != dst.id

    def test_grouped_intra_fraction_honored(self):
        groups = stub_groups(16, 4)
        picker = GroupedPairs(groups, 0.75)
        gof = {h.id: gi for gi, g in enumerate(groups) for h in g}
        rng = np.random.default_rng(2)
        intra = sum(gof[s.id] == gof[d.id]
                    for s, d in (picker.pick(rng) for _ in range(20_000)))
        assert intra / 20_000 == pytest.approx(0.75, abs=0.02)

    def test_matrix_row_frequencies_match(self):
        groups = stub_groups(12, 3)
        matrix = [[0.6, 0.3, 0.1],
                  [0.2, 0.5, 0.3],
                  [0.1, 0.1, 0.8]]
        picker = MatrixPairs(groups, matrix)
        gof = {h.id: gi for gi, g in enumerate(groups) for h in g}
        rng = np.random.default_rng(3)
        counts = np.zeros((3, 3))
        n = 60_000
        for _ in range(n):
            s, d = picker.pick(rng)
            counts[gof[s.id], gof[d.id]] += 1
        freqs = counts / counts.sum(axis=1, keepdims=True)
        assert np.allclose(freqs, matrix, atol=0.02)

    def test_matrix_validation(self):
        groups = stub_groups(4, 2)
        with pytest.raises(ValueError, match="sums to"):
            MatrixPairs(groups, [[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(ValueError, match="negative"):
            MatrixPairs(groups, [[1.5, -0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="must be 2x2"):
            MatrixPairs(groups, [[1.0]])

    def test_matrix_singleton_diagonal_leaves_group(self):
        # Group 0 has one host; a diagonal pick cannot self-pair and must
        # fall through to the next group cyclically.
        groups = [stub_hosts(3)[:1], stub_hosts(3)[1:]]
        picker = MatrixPairs(groups, [[1.0, 0.0], [0.0, 1.0]])
        rng = np.random.default_rng(4)
        for _ in range(500):
            src, dst = picker.pick(rng)
            assert src.id != dst.id

    def test_intra_matrix_helper_is_row_stochastic(self):
        m = MatrixPairs.intra_matrix(4, 0.7)
        for i, row in enumerate(m):
            assert sum(row) == pytest.approx(1.0)
            assert row[i] == pytest.approx(0.7)
        assert MatrixPairs.intra_matrix(1, 0.3) == [[1.0]]

    def test_grouped_equals_matrix_special_case_statistically(self):
        """GroupedPairs is the diagonal-intra matrix with the remainder
        spread by group size — equal-size groups make that uniform, so
        the two pickers must agree in distribution."""
        groups = stub_groups(16, 4)
        gof = {h.id: gi for gi, g in enumerate(groups) for h in g}

        def intra_rate(picker, seed):
            rng = np.random.default_rng(seed)
            picks = (picker.pick(rng) for _ in range(30_000))
            return sum(gof[s.id] == gof[d.id] for s, d in picks) / 30_000

        g = intra_rate(GroupedPairs(groups, 0.6), 9)
        m = intra_rate(MatrixPairs(groups, MatrixPairs.intra_matrix(4, 0.6)),
                       10)
        assert g == pytest.approx(m, abs=0.02)


class TestStreamingProtocol:
    def test_seed_stable_digest(self):
        def digest(seed):
            stream = merge_sources([_bg_source()], RngRegistry(seed))
            return stream_digest(itertools.islice(stream, 5_000))

        assert digest(11) == digest(11)
        assert digest(11) != digest(12)

    def test_starts_nondecreasing_across_composition(self):
        sources = [_bg_source("a", 0.001),
                   _bg_source("b", 0.003, first_flow_id=SOURCE_ID_STRIDE + 1)]
        stream = merge_sources(sources, RngRegistry(1))
        starts = [t.start_ns for t in itertools.islice(stream, 3_000)]
        assert starts == sorted(starts)

    def test_merge_isolation(self):
        """Composing sources must not perturb any one source's stream:
        each draws from its own named RNG stream."""
        def specs_of(name, composed_with=None):
            sources = [_bg_source(name, 0.001)]
            if composed_with:
                sources.append(_bg_source(
                    composed_with, 0.005,
                    first_flow_id=SOURCE_ID_STRIDE + 1))
            stream = merge_sources(sources, RngRegistry(3))
            firsts = (t for t in stream if t.flow_id < SOURCE_ID_STRIDE)
            return [(t.flow_id, t.src.id, t.dst.id, t.size_bytes, t.start_ns)
                    for t in itertools.islice(firsts, 2_000)]

        assert specs_of("a") == specs_of("a", composed_with="noise")

    def test_duplicate_source_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            merge_sources([_bg_source("x"), _bg_source("x", 0.002)],
                          RngRegistry(1))

    def test_flow_id_strides_disjoint(self):
        traffic = TrafficConfig(sources=(
            SourceConfig(name="bg", load_share=0.8),
            SourceConfig(name="fg", kind="incast", load_share=0.2),
        ))
        sources = build_sources(
            traffic, stub_hosts(16), stub_groups(16, 4), load=0.6,
            rate_bps=10 * GBPS, sim_time_ns=HORIZON, size_scale=8.0)
        stream = merge_sources(sources, RngRegistry(5))
        ids_by_source = {}
        for t in itertools.islice(stream, 4_000):
            ids_by_source.setdefault(t.flow_id // SOURCE_ID_STRIDE,
                                     []).append(t.flow_id)
        assert set(ids_by_source) == {0, 1}
        assert min(ids_by_source[0]) == 1
        assert min(ids_by_source[1]) == SOURCE_ID_STRIDE + 1

    def test_constant_memory_at_scale(self):
        """20k merged flows must stream without materializing: the traced
        allocation peak stays far below the ~4.8 MB the same 20k flows
        take as a list. (CI's workloads smoke holds 1M flows to a budget.)"""
        sources = [_bg_source("a", 0.002),
                   _bg_source("b", 0.001, first_flow_id=SOURCE_ID_STRIDE + 1)]
        stream = merge_sources(sources, RngRegistry(9))
        tracemalloc.start()
        digest = stream_digest(itertools.islice(stream, 20_000))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert digest.flows == 20_000
        assert peak < 1 * 1024 * 1024

    def test_digest_counts_children(self):
        hosts = stub_hosts(6)
        src = CoflowSource("jobs", hosts, WEBSEARCH, PoissonArrivals(0.0005),
                           fanout=3, request_bytes=2 * KB,
                           sim_time_ns=HORIZON, size_scale=64.0)
        specs = list(itertools.islice(
            src.flows(RngRegistry(2).stream("t")), 30))
        d = stream_digest(specs)
        assert d.flows == 60  # 30 requests + 30 dependent replies
        assert d.total_bytes == sum(
            t.size_bytes + sum(c.size_bytes for c in t.children)
            for t in specs)


class TestCoflowSource:
    def _source(self, think_ns=500):
        return CoflowSource("jobs", stub_hosts(8), WEBSEARCH,
                            PoissonArrivals(0.0005), fanout=3,
                            request_bytes=2 * KB, sim_time_ns=HORIZON,
                            size_scale=64.0, think_ns=think_ns)

    def test_request_reply_structure(self):
        src = self._source()
        for t in itertools.islice(src.flows(RngRegistry(1).stream("t")), 50):
            assert t.role == "req"
            assert t.size_bytes == 2 * KB
            assert len(t.children) == 1
            reply = t.children[0]
            assert reply.role == "reply"
            assert reply.flow_id == t.flow_id + 1
            # Reply start is RELATIVE (think time); it travels the
            # reverse direction of its request.
            assert reply.start_ns == 500
            assert (reply.src.id, reply.dst.id) == (t.dst.id, t.src.id)
            assert t.src.id != t.dst.id

    def test_workers_distinct_per_job(self):
        src = self._source()
        stream = src.flows(RngRegistry(4).stream("t"))
        jobs = {}
        for t in itertools.islice(stream, 90):
            jobs.setdefault(t.start_ns, []).append(t)
        for batch in jobs.values():
            aggs = {t.src.id for t in batch}
            assert len(aggs) == 1
            workers = [t.dst.id for t in batch]
            assert len(set(workers)) == len(workers)

    def test_bytes_per_job_uses_realized_reply_mean(self):
        src = self._source()
        expected = 3 * (2 * KB + WEBSEARCH.realized_mean_bytes(64.0))
        assert src.bytes_per_job() == pytest.approx(expected)

    def test_validation(self):
        hosts = stub_hosts(4)
        with pytest.raises(ValueError, match="fanout"):
            CoflowSource("j", hosts, WEBSEARCH, PoissonArrivals(0.001),
                         fanout=4, request_bytes=KB, sim_time_ns=HORIZON)
        with pytest.raises(ValueError, match="at least 2 hosts"):
            CoflowSource("j", hosts[:1], WEBSEARCH, PoissonArrivals(0.001),
                         fanout=1, request_bytes=KB, sim_time_ns=HORIZON)
        with pytest.raises(ValueError, match="think_ns"):
            CoflowSource("j", hosts, WEBSEARCH, PoissonArrivals(0.001),
                         fanout=2, request_bytes=KB, sim_time_ns=HORIZON,
                         think_ns=-1)

    def test_children_released_in_real_experiment(self):
        """End-to-end: replies must be launched by the flow-finish
        callback and appear in the experiment's records."""
        cfg = default_sweep_config(
            sim_time_ns=2 * MILLIS,
            deployment=0.0,
            traffic=TrafficConfig(sources=(
                SourceConfig(name="bg", load_share=0.7),
                SourceConfig(name="jobs", kind="coflow", load_share=0.3,
                             fanout=3),
            )),
        )
        result = cell(cfg)
        roles = {}
        for r in result.records:
            roles[r.role] = roles.get(r.role, 0) + 1
        assert roles.get("req", 0) > 0
        assert roles.get("reply", 0) > 0
        # Every reply observed came from a completed request.
        completed_reqs = sum(1 for r in result.records
                             if r.role == "req" and r.completed)
        assert roles["reply"] <= completed_reqs

    def test_reply_past_the_horizon_is_not_launched(self):
        """A reply whose ``now + think_ns`` lands at or past the horizon
        follows the rule for top-level arrivals: it is never launched, so
        it cannot show up as a never-started, censored record."""
        from repro.experiments.config import ExperimentConfig, SchemeName
        from repro.net.topology import ClosSpec

        think_ns = 600_000
        cfg = ExperimentConfig(
            scheme=SchemeName.DCTCP, deployment=0.0, load=0.3,
            sim_time_ns=MILLIS, size_scale=8.0, seed=1,
            clos=ClosSpec(n_pods=1, aggs_per_pod=1, tors_per_pod=2,
                          hosts_per_tor=3),
            traffic=TrafficConfig(sources=(
                SourceConfig(name="jobs", kind="coflow", fanout=2,
                             think_ns=think_ns),)),
        )
        records = cell(cfg).records
        replies = [r for r in records if r.role == "reply"]
        assert replies, "some requests finish early enough to be answered"
        assert all(think_ns <= r.start_ns < cfg.sim_time_ns for r in replies)
        assert all(r.start_ns >= 0 for r in records)


class TestParsers:
    def test_parse_sizes_variants(self):
        assert parse_sizes("empirical:datamining").name == "datamining"
        assert parse_sizes("datamining").name == "datamining"
        assert parse_sizes("empirical", "hadoop").name == "hadoop"
        assert isinstance(
            parse_sizes("lognormal:mean_kb=64,sigma=1.5"), LognormalSizes)
        assert isinstance(
            parse_sizes("pareto:min_kb=2,alpha=1.3,max_mb=8"),
            BoundedParetoSizes)
        assert isinstance(
            parse_sizes("bimodal:small_kb=16,large_mb=4,large_frac=0.2"),
            BimodalSizes)

    def test_parse_sizes_errors(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_sizes("weibull:k=2")
        with pytest.raises(ValueError, match="unknown"):
            parse_sizes("lognormal:mean_kb=64,bogus=1")

    def test_parse_arrivals_variants(self):
        assert isinstance(parse_arrivals("poisson", 0.01), PoissonArrivals)
        p = parse_arrivals("pareto:alpha=1.7", 0.01)
        assert isinstance(p, ParetoArrivals) and p.alpha == 1.7
        o = parse_arrivals("onoff:on_us=50,off_us=200", 0.01)
        assert isinstance(o, OnOffArrivals)
        assert o.on_ns == 50_000.0 and o.off_ns == 200_000.0
        assert o.rate_per_ns == 0.01

    def test_parse_locality_variants(self):
        hosts = stub_hosts(12)
        groups = stub_groups(12, 3)
        assert isinstance(parse_locality("uniform", hosts, groups),
                          UniformPairs)
        g = parse_locality("grouped:intra=0.8", hosts, groups)
        assert isinstance(g, GroupedPairs) and g.intra_fraction == 0.8
        m = parse_locality("matrix:intra=0.5", hosts, groups)
        assert isinstance(m, MatrixPairs)
        assert m.matrix[0][0] == pytest.approx(0.5)

    def test_build_sources_validation(self):
        hosts, groups = stub_hosts(8), stub_groups(8, 2)

        def build(traffic, n_hosts=8):
            return build_sources(
                traffic, hosts[:n_hosts], groups, load=0.5,
                rate_bps=10 * GBPS, sim_time_ns=MILLIS, size_scale=8.0)

        with pytest.raises(ValueError, match="load_share"):
            build(TrafficConfig(sources=(SourceConfig(load_share=0.0),)))
        with pytest.raises(ValueError, match="unknown kind"):
            build(TrafficConfig(sources=(SourceConfig(kind="closed"),)))
        with pytest.raises(ValueError, match="at least one source"):
            build(TrafficConfig(sources=()))

    def test_build_sources_rate_targets_realized_load(self):
        """An open source's λ x realized mean must equal its share of the
        offered byte rate."""
        traffic = TrafficConfig(sources=(SourceConfig(load_share=1.0),))
        src, = build_sources(
            traffic, stub_hosts(8), stub_groups(8, 2), load=0.5,
            rate_bps=10 * GBPS, sim_time_ns=MILLIS, size_scale=8.0,
            default_workload="websearch")
        offered = 0.5 * 8 * 10 * GBPS / 8.0 / 1e9
        realized = WEBSEARCH.realized_mean_bytes(8.0)
        assert src.arrivals.rate_per_ns * realized == pytest.approx(offered)


class TestTrafficConfigCacheKey:
    def test_traffic_block_keys_the_cache(self):
        base = default_sweep_config()
        variant = default_sweep_config(
            traffic=TrafficConfig(sources=(
                SourceConfig(arrivals="onoff:on_us=50,off_us=200"),)))
        mixed = default_sweep_config(
            traffic=TrafficConfig.paper(foreground_fraction=0.1))
        assert len({config_key(base), config_key(variant),
                    config_key(mixed)}) == 3
        # the default block is a value, not a separate "unset" state
        assert config_key(base) == config_key(default_sweep_config(
            traffic=TrafficConfig(sources=(SourceConfig(),))))


class TestAdapterStreamIdentity:
    """Pinned flow streams of the §6.2 sources, each on an explicit
    ``np.random.Generator``: ``OpenLoopSource`` draws gap, pair, size per
    flow (uniform and grouped pickers), ``IncastSource`` draws gap,
    receiver per event. The digests were recorded from the materialised
    Poisson/incast loops that preceded the sources and have reproduced
    bit-for-bit ever since; any change to a source's draw order moves them.

    The pins are of the sources, not of ``build_sources``: they use the
    arrival rates, generators and id numbering they were recorded with
    (analytic-mean λ, foreground ids after the background's), all passed
    in explicitly below.
    """

    # (scheme, audit topology) -> (flow count, sha256) under _digest below
    PINS = {
        ("dctcp", "dumbbell"):
            (123, "c88de0d5dbe1ba2bf63a070236bcd854"
                  "583cae9e3f0384ee5f7b56f583644a0a"),
        ("flexpass", "clos"):
            (482, "e7bbfc1067bd151ec999e7ca437182fb"
                  "8eb6e06f81c0b6411ac822d7c55cdbe7"),
        ("ly", "incast"):
            (537, "b2e560f21ca2fd6f59561df3874e9d80"
                  "02c0f9e50fea2c98173917b8e74f73f4"),
    }
    REGIONAL_PIN = (910, "0d1505277469f2e2913bccf459f0f380"
                         "c69b03b89e37c9e4b44e1145ebb27b11")

    @staticmethod
    def _digest(cfg, foreground_fraction=0.0, intra=None):
        import hashlib

        from repro.experiments.scenarios import (build_topology,
                                                 make_scheme_setup)
        from repro.sim.engine import Simulator
        from repro.workloads.deployment import DeploymentPlan
        from repro.workloads.distributions import workload_cdf

        clos = build_topology(Simulator(),
                              make_scheme_setup(cfg).queue_factory, cfg)
        rng = RngRegistry(cfg.seed)
        deployment = 0.0 if cfg.scheme.value == "dctcp" else cfg.deployment
        plan = DeploymentPlan(clos.racks(), deployment,
                              rng.stream("deployment"))
        hosts, cdf = clos.hosts, workload_cdf(cfg.workload)
        offered_bps = cfg.load * len(hosts) * cfg.reference_rate_bps
        lam = offered_bps / (cdf.mean_bytes(cfg.size_scale) * 8.0) / 1e9
        if intra is None:
            pairs = UniformPairs(hosts)
        else:
            regions = sorted(clos.hosts_by_region().items())
            pairs = GroupedPairs([members for _, members in regions], intra)
        flows = list(OpenLoopSource(
            "bg", pairs, cdf, PoissonArrivals(lam), cfg.sim_time_ns,
            size_scale=cfg.size_scale).flows(rng.stream("arrivals")))
        if foreground_fraction > 0.0:
            bg_bytes_per_ns = offered_bps / 8 / 1e9
            fg_bytes_per_ns = (bg_bytes_per_ns * foreground_fraction
                               / (1.0 - foreground_fraction))
            event_bytes = (len(hosts) - 1) * 4 * 8 * KB
            flows += IncastSource(
                "fg", hosts, 8 * KB, 4,
                PoissonArrivals(fg_bytes_per_ns / event_bytes),
                cfg.sim_time_ns, first_flow_id=len(flows) + 1,
            ).flows(rng.stream("incast"))
        h = hashlib.sha256()
        for t in flows:
            group = plan.flow_group(t.src, t.dst)
            scheme = cfg.scheme.value if group == "new" else "dctcp"
            h.update(f"{t.flow_id},{t.src.id},{t.dst.id},{t.size_bytes},"
                     f"{t.start_ns},{scheme},{group},{t.role};".encode())
        return len(flows), h.hexdigest()

    @pytest.mark.parametrize("scheme,topo", sorted(PINS))
    def test_matrix_cells_reproduce(self, scheme, topo):
        from repro.audit.matrix import matrix_config

        cfg = matrix_config(scheme, topo, sim_time_ns=2_000_000)
        fg = 0.3 if topo == "incast" else 0.0
        assert self._digest(cfg, foreground_fraction=fg) == \
            self.PINS[(scheme, topo)]

    def test_regional_grouped_cell_reproduces(self):
        from pathlib import Path

        from repro.experiments.scenarios import regional_fabric_config

        yaml_path = Path(__file__).resolve().parent.parent / "examples" / \
            "regional_fabric.yaml"
        cfg = regional_fabric_config(str(yaml_path), size_scale=16.0,
                                     sim_time_ns=2_000_000)
        assert self._digest(cfg, intra=0.8) == self.REGIONAL_PIN


class TestIncastSourceValidation:
    def test_rejects_degenerate_pools(self):
        with pytest.raises(ValueError, match="at least 2 hosts"):
            IncastSource("fg", stub_hosts(1), request_bytes=8 * KB,
                         flows_per_sender=4,
                         arrivals=PoissonArrivals(0.001),
                         sim_time_ns=MILLIS)
        with pytest.raises(ValueError, match="request_bytes"):
            IncastSource("fg", stub_hosts(4), request_bytes=0,
                         flows_per_sender=4,
                         arrivals=PoissonArrivals(0.001),
                         sim_time_ns=MILLIS)
        with pytest.raises(ValueError, match="flows_per_sender"):
            IncastSource("fg", stub_hosts(4), request_bytes=8 * KB,
                         flows_per_sender=0,
                         arrivals=PoissonArrivals(0.001),
                         sim_time_ns=MILLIS)


class TestBulkSource:
    """``kind="bulk"``: the testbed figures' long-lived flows."""

    def _dumbbell_cfg(self, *sources, **overrides):
        from repro.experiments.config import ExperimentConfig, SchemeName
        from repro.net import DumbbellSpec, dumbbell_to_topology_spec

        params = dict(
            scheme=SchemeName.FLEXPASS, deployment=1.0, sim_time_ns=MILLIS,
            topology_spec=dumbbell_to_topology_spec(DumbbellSpec(n_pairs=2)),
            traffic=TrafficConfig(sources=sources))
        params.update(overrides)
        return ExperimentConfig(**params)

    def _labelled(self, cfg):
        from repro.experiments.runner import flow_specs
        from repro.experiments.scenarios import (build_topology,
                                                 make_scheme_setup)
        from repro.sim.engine import Simulator

        queues = make_scheme_setup(cfg).queue_factory
        fabric = build_topology(Simulator(), queues, cfg)
        return [spec for spec, _ in
                flow_specs(cfg, fabric, RngRegistry(cfg.seed))]

    def test_round_robin_from_time_zero(self):
        cfg = self._dumbbell_cfg(SourceConfig(
            name="b", kind="bulk", hosts=("r0", "s0", "s1"),
            request_bytes=5 * KB, flows_per_sender=3))
        specs = self._labelled(cfg)
        assert [s.flow_id for s in specs] == [1, 2, 3, 4, 5, 6]
        assert [s.src.name for s in specs] == ["s0", "s1"] * 3
        assert {s.dst.name for s in specs} == {"r0"}
        assert {s.start_ns for s in specs} == {0}
        assert {s.size_bytes for s in specs} == {5 * KB}

    def test_legacy_source_runs_dctcp_at_full_deployment(self):
        cfg = self._dumbbell_cfg(
            SourceConfig(name="new", kind="bulk", hosts=("r0", "s0"),
                         request_bytes=KB, flows_per_sender=1),
            SourceConfig(name="old", kind="bulk", hosts=("r1", "s1"),
                         request_bytes=KB, flows_per_sender=1, legacy=True))
        specs = self._labelled(cfg)
        assert [(s.flow_id, s.group, s.scheme) for s in specs] == [
            (1, "new", "flexpass"),
            (SOURCE_ID_STRIDE + 1, "legacy", "dctcp")]

    def test_draws_nothing_from_its_stream(self):
        from repro.workloads.gen import BulkSource

        rng = RngRegistry(3).stream("traffic.b")
        before = rng.state
        flows = list(BulkSource("b", stub_hosts(4), KB, 2).flows(rng))
        assert len(flows) == 6
        assert rng.state == before

    @pytest.mark.parametrize("hosts,match", [
        (("r0", "s9"), "source 'b': unknown host 's9'"),
        (("r0",), "source 'b': bulk needs a receiver and at least one sender"),
    ])
    def test_bad_hosts_fail_before_the_run(self, hosts, match):
        cfg = self._dumbbell_cfg(SourceConfig(
            name="b", kind="bulk", hosts=hosts, request_bytes=KB))
        with pytest.raises(ValueError, match=match):
            run_experiment(cfg)

    def test_hosts_and_legacy_are_bulk_only(self):
        for bad in (SourceConfig(hosts=("h0", "h1")),
                    SourceConfig(legacy=True)):
            with pytest.raises(ValueError, match="bulk sources only"):
                build_sources(TrafficConfig(sources=(bad,)), stub_hosts(4),
                              stub_groups(4, 2), load=0.5, rate_bps=10 * GBPS,
                              sim_time_ns=MILLIS, size_scale=1.0)
