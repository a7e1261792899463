"""Unit + property tests for workload generation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net import ClosSpec, build_clos
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.units import GBPS, KB, MILLIS
from repro.workloads.deployment import DeploymentPlan
from repro.workloads.distributions import (
    CACHEFOLLOWER,
    DATAMINING,
    HADOOP,
    WEBSEARCH,
    EmpiricalCdf,
    workload_cdf,
)
from repro.workloads.gen import (
    SOURCE_ID_STRIDE,
    SourceConfig,
    TrafficConfig,
    build_sources,
    merge_sources,
    parse_sizes,
)

from tests.test_net_port_topology import single_queue_factory


def small_clos(sim=None):
    return build_clos(sim or Simulator(), single_queue_factory,
                      ClosSpec(n_pods=2, aggs_per_pod=1, tors_per_pod=2,
                               hosts_per_tor=2))


def paper_sources(hosts, foreground_fraction=0.0, load=0.5, sim_ms=20,
                  size_scale=4.0, workload="websearch"):
    """The §6.2 traffic block instantiated on ``hosts`` at 10 Gbps."""
    return build_sources(
        TrafficConfig.paper(foreground_fraction=foreground_fraction),
        hosts, [hosts], load=load, rate_bps=10 * GBPS,
        sim_time_ns=sim_ms * MILLIS, size_scale=size_scale,
        default_workload=workload)


class TestEmpiricalCdf:
    def test_samples_within_support(self):
        rng = np.random.default_rng(1)
        for cdf in (WEBSEARCH, DATAMINING, CACHEFOLLOWER, HADOOP):
            lo = cdf._xs[0]
            hi = cdf._xs[-1]
            for _ in range(200):
                s = cdf.sample(rng)
                assert lo <= s <= hi

    def test_scale_divides_sizes(self):
        rng1 = np.random.default_rng(7)
        rng2 = np.random.default_rng(7)
        a = WEBSEARCH.sample(rng1, scale=1.0)
        b = WEBSEARCH.sample(rng2, scale=10.0)
        assert b == max(1, int(a / 10))

    def test_median_matches_cdf(self):
        """Empirical median of many samples should sit where CDF=0.5."""
        rng = np.random.default_rng(3)
        samples = [WEBSEARCH.sample(rng) for _ in range(4000)]
        med = float(np.median(samples))
        assert 0.35 < WEBSEARCH.fraction_below(med) < 0.65

    def test_mean_is_tail_dominated_for_websearch(self):
        # >50% of web-search flows are small but the mean is hundreds of kB
        assert WEBSEARCH.fraction_below(100 * KB) > 0.5
        assert WEBSEARCH.mean_bytes() > 200 * KB

    def test_datamining_half_single_packet(self):
        assert DATAMINING.fraction_below(1000) >= 0.49

    def test_mean_scales(self):
        assert WEBSEARCH.mean_bytes(scale=2.0) == pytest.approx(
            WEBSEARCH.mean_bytes() / 2.0
        )

    def test_workload_lookup(self):
        assert workload_cdf("websearch") is WEBSEARCH
        with pytest.raises(ValueError):
            workload_cdf("nope")

    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([(100, 0.0)])  # too few
        with pytest.raises(ValueError):
            EmpiricalCdf([(100, 0.0), (50, 1.0)])  # not increasing
        with pytest.raises(ValueError):
            EmpiricalCdf([(100, 0.5), (200, 1.0)])  # doesn't start at 0
        with pytest.raises(ValueError):
            EmpiricalCdf([(100, 0.0), (200, 0.9)])  # doesn't end at 1

    @given(st.floats(0.001, 0.999))
    def test_property_inverse_is_monotone(self, u):
        assert WEBSEARCH._inverse(u) <= WEBSEARCH._inverse(min(u + 0.0005, 1.0))


def _quadrature_mean(cdf: EmpiricalCdf, steps: int) -> float:
    """Midpoint quadrature over the inverse CDF (the pre-closed-form
    estimator, kept as the regression reference): ``steps`` midpoints per
    non-flat segment, each mapped through ``_inverse``'s log-linear rule."""
    ys, lxs = np.asarray(cdf._ys), np.asarray(cdf._log_xs)
    seg = np.flatnonzero(ys[1:] != ys[:-1])
    y0, dy = ys[seg, None], (ys[seg + 1] - ys[seg])[:, None]
    u = y0 + dy * (np.arange(steps) + 0.5) / steps
    lx0 = lxs[seg, None]
    sizes = np.exp(lx0 + (u - y0) / dy * (lxs[seg + 1, None] - lx0))
    return float(np.sum(sizes * dy / steps))


class TestMeanBytesClosedForm:
    """The log-linear segment mean is exact: quadrature must converge TO it."""

    @pytest.mark.parametrize("name", ["websearch", "datamining",
                                      "cachefollower", "hadoop"])
    def test_matches_high_resolution_quadrature(self, name):
        cdf = workload_cdf(name)
        exact = cdf.mean_bytes()
        hi_res = _quadrature_mean(cdf, 20_000)
        # 20k midpoint steps per segment: well past the old 200-step
        # estimator, tight enough to certify the closed form.
        assert exact == pytest.approx(hi_res, rel=1e-8)

    @pytest.mark.parametrize("name", ["websearch", "datamining",
                                      "cachefollower", "hadoop"])
    def test_quadrature_converges_toward_closed_form(self, name):
        """Refining the quadrature must shrink its distance to the closed
        form — the signature of an exact value, not a third estimate."""
        cdf = workload_cdf(name)
        exact = cdf.mean_bytes()
        err_coarse = abs(_quadrature_mean(cdf, 50) - exact)
        err_fine = abs(_quadrature_mean(cdf, 2_000) - exact)
        assert err_fine < err_coarse

    @pytest.mark.parametrize("name", ["websearch", "datamining",
                                      "cachefollower", "hadoop"])
    def test_lambda_shift_vs_old_estimator(self, name):
        """The offered-load fix: λ = offered / mean moves by the mean's
        correction. The old 200-step estimate was close but systematically
        off; the shift must be small (sanity) and nonzero (the bug was
        real)."""
        cdf = workload_cdf(name)
        exact = cdf.mean_bytes()
        old = _quadrature_mean(cdf, 200)
        lam_ratio = old / exact  # λ_new / λ_old at fixed offered load
        assert lam_ratio != 1.0
        assert abs(lam_ratio - 1.0) < 1e-3

    def test_arrival_rate_uses_realized_mean(self):
        """λ must divide by the realized (truncated-and-clamped) mean of
        what ``sample`` actually returns, not the analytic mean of the
        continuous law — the offered-load bias fix."""
        clos = small_clos()
        bg, = paper_sources(clos.hosts, load=0.6, sim_ms=1,
                            workload="datamining")
        lam = bg.arrivals.rate_per_ns
        mean_bits = DATAMINING.realized_mean_bytes(4.0) * 8.0
        expected = 0.6 * len(clos.hosts) * 10 * GBPS / mean_bits / 1e9
        assert lam == pytest.approx(expected, rel=1e-12)


def _realized_grid_oracle(cdf: EmpiricalCdf, scale: float,
                          n: int = 1 << 22) -> float:
    """Midpoint quadrature of ``E[max(1, int(X / scale))]`` over the
    inverse CDF — independent of both the layer-cake sum in
    ``realized_mean_bytes`` and the branchy ``sample`` path. For a monotone
    integrand the midpoint-sum error is bounded by ``(max - min) / n``,
    i.e. relative error well under 1e-4 for every pair tested below."""
    u = (np.arange(n) + 0.5) / n
    log_sizes = np.interp(u, cdf._ys, cdf._log_xs)
    sizes = np.maximum(1, (np.exp(log_sizes) / scale).astype(np.int64))
    return float(np.mean(sizes))


class TestRealizedMean:
    """``E[max(1, int(X / scale))]`` — the divisor behind arrival rates."""

    @pytest.mark.parametrize("name", ["websearch", "datamining",
                                      "cachefollower", "hadoop"])
    @pytest.mark.parametrize("scale", [1.0, 8.0, 4096.0])
    def test_matches_quadrature_oracle(self, name, scale):
        cdf = workload_cdf(name)
        assert cdf.realized_mean_bytes(scale) == pytest.approx(
            _realized_grid_oracle(cdf, scale), rel=2e-4)

    @pytest.mark.parametrize("name", ["websearch", "cachefollower"])
    def test_matches_monte_carlo(self, name):
        """The closed form must sit within four standard errors of what
        the actual sampler returns — ties the math to ``sample``'s
        contract rather than to another formula."""
        cdf = workload_cdf(name)
        scale = 4096.0
        rng = np.random.default_rng(42)
        sizes = np.asarray([cdf.sample(rng, scale) for _ in range(200_000)],
                           dtype=float)
        se = float(sizes.std()) / math.sqrt(len(sizes))
        assert abs(cdf.realized_mean_bytes(scale) - float(sizes.mean())) \
            < 4.0 * se

    def test_clamp_inflates_small_flow_workloads(self):
        """Where ``scale`` pushes mass toward 1-byte flows the clamp
        inflates the realized mean above the analytic one (cachefollower
        at scale 4096: ~+1.1%); at benign scales truncation deflates it
        by about half a byte instead."""
        assert CACHEFOLLOWER.realized_mean_bytes(4096.0) > \
            CACHEFOLLOWER.mean_bytes(4096.0) * 1.01
        r8 = WEBSEARCH.realized_mean_bytes(8.0)
        assert r8 < WEBSEARCH.mean_bytes(8.0)
        assert r8 == pytest.approx(WEBSEARCH.mean_bytes(8.0) - 0.5, abs=0.05)

    @pytest.mark.parametrize("name", ["websearch", "datamining",
                                      "cachefollower", "hadoop", "lognormal",
                                      "pareto", "bimodal"])
    @pytest.mark.parametrize("scale", [1.0, 8.0, 1000.0, 4096.0])
    def test_closed_form_survival_sum_matches_term_by_term(self, name,
                                                           scale):
        """Each law's ``survival_sum`` must equal the plain sum of its
        ``survival``: for a CDF segment by segment with ``lgamma``,
        including a ``k`` whose ``k * scale`` lands exactly on a knot; for
        Pareto with the sizes at or below its minimum counted as ones."""
        model = parse_sizes(name)
        terms = 1 << 12
        want = math.fsum(model.survival(k * scale)
                         for k in range(2, terms + 1))
        assert model.survival_sum(scale, terms) == pytest.approx(want,
                                                                 rel=1e-12)

    def test_invalid_scale_raises(self):
        with pytest.raises(ValueError):
            WEBSEARCH.realized_mean_bytes(0.0)
        with pytest.raises(ValueError):
            WEBSEARCH.realized_mean_bytes(-1.0)

    def test_offered_load_regression_nominal_vs_empirical(self):
        """The old λ divided by the analytic mean, so the *empirical* load
        (λ x realized bytes-per-flow) overshot the nominal wherever the
        clamp bites. The fixed λ realizes the nominal load exactly."""
        clos = small_clos()
        scale = 4096.0
        bg, = paper_sources(clos.hosts, load=0.6, sim_ms=1, size_scale=scale,
                            workload="cachefollower")
        capacity = len(clos.hosts) * 10 * GBPS / 8.0 / 1e9  # bytes/ns
        realized = CACHEFOLLOWER.realized_mean_bytes(scale)
        empirical = bg.arrivals.rate_per_ns * realized / capacity
        assert empirical == pytest.approx(0.6, rel=1e-9)
        lam_old = 0.6 * capacity / CACHEFOLLOWER.mean_bytes(scale)
        overshoot = lam_old * realized / capacity
        assert overshoot > 0.6 * 1.01  # the bug was worth fixing


def _vectorized_sample(cdf: EmpiricalCdf, rng, n: int,
                       scale: float = 1.0):
    """``n`` sizes through a numpy-vectorized inverse CDF: the same
    log-linear rule as ``EmpiricalCdf._inverse``, branch-free, as an
    independent reference for the scalar ``sample``. ``rng.random(n)``
    reads the stream positions ``n`` scalar draws read. Sizes may differ
    from ``sample`` by one unit in the last place (``np.exp`` vs
    ``math.exp`` rounding)."""
    xs = np.asarray(cdf._xs)
    ys = np.asarray(cdf._ys)
    log_xs = np.asarray(cdf._log_xs)
    u = rng.random(n)
    idx = np.minimum(np.searchsorted(ys, u, side="left"), len(ys) - 1)
    low = idx <= 0
    i = np.where(low, 1, idx)  # safe segment index for the interp math
    y0 = ys[i - 1]
    dy = ys[i] - y0
    flat = dy == 0.0
    frac = (u - y0) / np.where(flat, 1.0, dy)
    lx0 = log_xs[i - 1]
    size = np.exp(lx0 + frac * (log_xs[i] - lx0))
    size = np.where(flat, xs[i], size)
    size = np.where(low, xs[0], size) / scale
    # int64 cast truncates toward zero, matching ``int()`` on positives.
    return np.maximum(1, size.astype(np.int64)).tolist()


class TestSampleManyVectorized:
    """Many scalar ``sample`` draws against :func:`_vectorized_sample`."""

    @pytest.mark.parametrize("name", ["websearch", "datamining",
                                      "cachefollower", "hadoop"])
    @pytest.mark.parametrize("scale", [1.0, 4.0])
    def test_matches_scalar_path(self, name, scale):
        """The scalar loop must consume the identical RNG stream as the
        vectorized inverse and (over this horizon) return identical sizes."""
        cdf = workload_cdf(name)
        r_vec = np.random.default_rng(11)
        r_scalar = np.random.default_rng(11)
        batch = _vectorized_sample(cdf, r_vec, 5_000, scale=scale)
        loop = [cdf.sample(r_scalar, scale) for _ in range(5_000)]
        assert batch == loop
        # Both paths must leave the generator at the same stream position.
        assert r_vec.random() == r_scalar.random()

    def test_returns_python_ints(self):
        rng = np.random.default_rng(0)
        sizes = [WEBSEARCH.sample(rng) for _ in range(10)]
        assert all(type(s) is int for s in sizes)

    def test_empty_batch(self):
        """A draw consumes exactly one uniform of the stream."""
        rng = np.random.default_rng(0)
        fresh = np.random.default_rng(0)
        WEBSEARCH.sample(rng)
        fresh.random()
        assert rng.random() == fresh.random()

    def test_extreme_scale_clamps_to_one(self):
        rng = np.random.default_rng(2)
        sizes = [WEBSEARCH.sample(rng, scale=1e12) for _ in range(100)]
        assert sizes == [1] * 100


@st.composite
def _cdf_points(draw):
    """Random but valid EmpiricalCdf knot lists.

    Zero increments produce flat (zero-mass) segments, including runs of
    them at the very start of the CDF — the ``u`` below/at the first knot
    regime that the vectorized path special-cases."""
    n = draw(st.integers(2, 6))
    xs = sorted(draw(st.lists(st.integers(1, 10**7), min_size=n,
                              max_size=n, unique=True)))
    incs = draw(st.lists(st.integers(0, 10), min_size=n - 1,
                         max_size=n - 1))
    if sum(incs) == 0:
        incs[-1] = 1
    total = sum(incs)
    acc, raw = 0, [0]
    for inc in incs:
        acc += inc
        raw.append(acc)
    ys = [r / total for r in raw]
    return list(zip(xs, ys))


class TestSampleManyProperty:
    """:func:`_vectorized_sample` vs the scalar ``sample`` loop on
    arbitrary CDFs."""

    @given(points=_cdf_points(), scale=st.floats(0.5, 1e6),
           seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_property_batch_matches_scalar(self, points, scale, seed, n):
        """Both paths must consume identical RNG stream positions and
        agree per draw. Sizes are compared within one unit: ``np.exp``
        and ``math.exp`` may round a last-place ULP apart, which the
        ``int()`` truncation can widen to at most one byte."""
        cdf = EmpiricalCdf(points, name="hyp")
        r_vec = np.random.default_rng(seed)
        r_scalar = np.random.default_rng(seed)
        batch = _vectorized_sample(cdf, r_vec, n, scale=scale)
        loop = [cdf.sample(r_scalar, scale) for _ in range(n)]
        assert len(batch) == n
        assert all(abs(a - b) <= 1 for a, b in zip(batch, loop))
        assert all(s >= 1 for s in batch)
        # Both paths must leave the generator at the same stream position.
        assert r_vec.random() == r_scalar.random()


class TestPoissonTraffic:
    """The default ``bg`` source of ``build_sources``: Poisson arrivals,
    uniform pairs, workload-CDF sizes."""

    def _flows(self, load=0.5, sim_ms=20, seed=1):
        clos = small_clos()
        bg, = paper_sources(clos.hosts, load=load, sim_ms=sim_ms)
        return clos, list(bg.flows(RngRegistry(seed).stream("traffic.bg")))

    def test_offered_load_close_to_target(self):
        clos, flows = self._flows(load=0.5, sim_ms=50)
        total_bits = sum(f.size_bytes for f in flows) * 8
        capacity_bits = len(clos.hosts) * 10 * GBPS * 0.05
        measured = total_bits / capacity_bits
        assert 0.35 < measured < 0.65

    def test_arrivals_sorted_and_within_horizon(self):
        _, flows = self._flows()
        starts = [f.start_ns for f in flows]
        assert starts == sorted(starts)
        assert all(0 <= s < 20 * MILLIS for s in starts)

    def test_src_dst_distinct(self):
        _, flows = self._flows()
        assert all(f.src.id != f.dst.id for f in flows)

    def test_flow_ids_unique_and_sequential(self):
        _, flows = self._flows()
        ids = [f.flow_id for f in flows]
        assert ids == list(range(1, len(ids) + 1))

    def test_deterministic_for_seed(self):
        _, f1 = self._flows(seed=5)
        _, f2 = self._flows(seed=5)
        assert [(f.size_bytes, f.start_ns) for f in f1] == \
               [(f.size_bytes, f.start_ns) for f in f2]

    def test_full_load_is_legal(self):
        # load 1.0 is the paper-scale saturation operating point
        bg, = paper_sources(small_clos().hosts, load=1.0, sim_ms=1)
        assert bg.arrivals.rate_per_ns > 0


class TestInputChecks:
    """The one place each input is checked: ``build_sources`` for the
    load, ``TrafficConfig.paper`` for its two fractions."""

    @pytest.mark.parametrize("field,value", [
        ("load", 0.0), ("load", 1.01),
        ("foreground_fraction", -0.1), ("foreground_fraction", 1.0),
        ("locality_intra", -0.01), ("locality_intra", 1.5),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be in"):
            if field == "load":
                paper_sources(small_clos().hosts, load=value)
            else:
                TrafficConfig.paper(**{field: value})

    def test_paper_block_shape(self):
        assert TrafficConfig.paper() == TrafficConfig()
        bg, fg = TrafficConfig.paper(foreground_fraction=0.1,
                                     locality_intra=0.8).sources
        assert (bg.name, bg.kind, bg.locality, bg.load_share) == \
            ("bg", "open", "grouped:intra=0.8", 1.0)
        assert (fg.name, fg.kind, fg.role) == ("fg", "incast", "fg")
        # fg / (fg + bg) == 0.1 with the background share left at 1
        assert fg.load_share / (fg.load_share + bg.load_share) == \
            pytest.approx(0.1)


class TestIncast:
    """The ``fg`` source of ``TrafficConfig.paper(foreground_fraction=f)``."""

    def _incast(self, fraction=0.1, sim_ms=50):
        clos = small_clos()
        sources = paper_sources(clos.hosts, foreground_fraction=fraction,
                                sim_ms=sim_ms)
        return clos, list(merge_sources(sources, RngRegistry(2)))

    def test_event_structure(self):
        clos, flows = self._incast()
        flows = [f for f in flows if f.role == "fg"]
        assert flows, "expected at least one incast event"
        by_start = {}
        for f in flows:
            by_start.setdefault(f.start_ns, []).append(f)
        n = len(clos.hosts)
        for start, batch in by_start.items():
            # (n-1) senders x 4 flows toward one receiver
            assert len(batch) == (n - 1) * 4
            receivers = {f.dst.id for f in batch}
            assert len(receivers) == 1
            assert all(f.size_bytes == 8 * KB for f in batch)

    def test_volume_fraction(self):
        """Realised fg / (fg + bg) byte share tracks the requested
        fraction: the incast source rides on top of an unchanged
        background load."""
        _, flows = self._incast(fraction=0.1, sim_ms=200)
        fg_bytes = sum(f.size_bytes for f in flows if f.role == "fg")
        bg_bytes = sum(f.size_bytes for f in flows if f.role == "bg")
        measured = fg_bytes / (fg_bytes + bg_bytes)
        assert 0.05 < measured < 0.2

    def test_zero_fraction_no_events(self):
        _, flows = self._incast(fraction=0.0)
        assert flows and all(f.role == "bg" for f in flows)

    def test_flow_ids_start_at_offset(self):
        """The second source numbers its flows from its own id stride, so
        ids never depend on how many background flows were drawn."""
        _, flows = self._incast()
        assert min(f.flow_id for f in flows if f.role == "fg") == \
            SOURCE_ID_STRIDE + 1

    @pytest.mark.parametrize("n_hosts", [0, 1])
    def test_fewer_than_two_hosts_rejected(self, n_hosts):
        """A sender pool of < 2 hosts must fail loudly when the source is
        built, not as a ZeroDivisionError deep in the rate math."""
        hosts = [_FakeHost(i) for i in range(n_hosts)]
        incast_only = TrafficConfig((SourceConfig(name="fg", kind="incast"),))
        with pytest.raises(ValueError, match="at least 2 hosts"):
            build_sources(incast_only, hosts, [hosts], load=0.5,
                          rate_bps=10 * GBPS, sim_time_ns=MILLIS,
                          size_scale=1.0)


class _FakeHost:
    """Rack occupant stub: DeploymentPlan only reads ``.id``."""

    def __init__(self, host_id):
        self.id = host_id


class TestDeploymentPlan:
    def _racks(self):
        return small_clos().racks()

    def test_fraction_zero_nothing_upgraded(self):
        racks = self._racks()
        plan = DeploymentPlan(racks, 0.0, np.random.default_rng(1))
        assert plan.upgraded_hosts == set()
        assert plan.flow_group(racks[0][0], racks[1][0]) == "legacy"

    def test_fraction_one_everything_upgraded(self):
        racks = self._racks()
        plan = DeploymentPlan(racks, 1.0, np.random.default_rng(1))
        assert plan.flow_group(racks[0][0], racks[-1][0]) == "new"

    def test_rack_granularity(self):
        racks = self._racks()
        plan = DeploymentPlan(racks, 0.5, np.random.default_rng(1))
        for idx, rack in enumerate(racks):
            states = {plan.is_upgraded(h) for h in rack}
            assert len(states) == 1, "hosts within a rack must match"

    def test_both_endpoints_required(self):
        racks = self._racks()
        plan = DeploymentPlan(racks, 0.5, np.random.default_rng(3))
        up = [r for r in racks if plan.is_upgraded(r[0])]
        down = [r for r in racks if not plan.is_upgraded(r[0])]
        if up and down:
            assert plan.flow_group(up[0][0], down[0][0]) == "legacy"
        if len(up) >= 2:
            assert plan.flow_group(up[0][0], up[1][0]) == "new"

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            DeploymentPlan(self._racks(), 1.5, np.random.default_rng(0))

    @given(st.floats(0.0, 1.0), st.integers(0, 100))
    @settings(max_examples=30)
    def test_property_upgraded_rack_count(self, fraction, seed):
        racks = self._racks()
        plan = DeploymentPlan(racks, fraction, np.random.default_rng(seed))
        expected = math.floor(fraction * len(racks) + 0.5)
        assert len(plan.upgraded_racks) == expected

    @pytest.mark.parametrize("n_racks", [4, 8, 16])
    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75])
    def test_rack_count_rounds_half_up(self, fraction, n_racks):
        """Pin the sweep grid's upgraded-rack counts (round-half-up).

        ``int(round())`` banker's-rounds exact .5 products to the even
        neighbour; the deployment sweep must never lose half a rack."""
        racks = [[_FakeHost(r * 100 + h) for h in range(4)]
                 for r in range(n_racks)]
        plan = DeploymentPlan(racks, fraction, np.random.default_rng(7))
        assert len(plan.upgraded_racks) == math.floor(
            fraction * n_racks + 0.5)
        assert len(plan.upgraded_hosts) == 4 * len(plan.upgraded_racks)

    def test_rack_count_half_up_beats_bankers(self):
        # 0.25 * 2 racks = 0.5 -> one rack upgraded (round() gives 0);
        # 0.25 * 10 racks = 2.5 -> three racks (round() gives 2)
        racks2 = [[_FakeHost(r * 10 + h) for h in range(2)] for r in range(2)]
        plan = DeploymentPlan(racks2, 0.25, np.random.default_rng(1))
        assert len(plan.upgraded_racks) == 1
        racks10 = [[_FakeHost(r * 10 + h) for h in range(2)]
                   for r in range(10)]
        plan = DeploymentPlan(racks10, 0.25, np.random.default_rng(1))
        assert len(plan.upgraded_racks) == 3
