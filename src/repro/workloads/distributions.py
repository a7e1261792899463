"""Flow-size distributions: the §6.2 empirical CDFs + parametric models.

Four realistic workloads drive the paper's simulations:

* ``websearch``     — the DCTCP web-search cluster [2];
* ``datamining``    — the VL2 data-mining cluster [14];
* ``cachefollower`` — Facebook cache-follower machines [41];
* ``hadoop``        — Facebook Hadoop machines [41].

The CDFs below are piecewise transcriptions of the published distributions
(the exact traces are not public; DESIGN.md records this substitution).
Sampling uses inverse-transform with log-linear interpolation between knots,
appropriate for sizes spanning five decades.

Alongside them, :class:`LognormalSizes`, :class:`BoundedParetoSizes`, and
:class:`BimodalSizes` provide parametric size models for the streaming
generator suite (:mod:`repro.workloads.gen`), all conforming to the same
:class:`SizeModel` protocol.

Every model distinguishes the *analytic* mean (``mean_bytes``: the mean of
the continuous law divided by ``scale``) from the *realized* mean
(``realized_mean_bytes``: the mean of what ``sample`` actually returns,
``E[max(1, int(X / scale))]``). Truncation and the 1-byte clamp inflate the
realized mean on small-flow distributions at large ``scale`` — dividing the
offered byte rate by the analytic mean therefore overshoots the nominal
load (cachefollower at scale 4096 realizes ~1.1% hot). Arrival-rate
computations
must use the realized mean; see DESIGN.md §6k.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.rng import Stream

#: Cutoff for the exact term-by-term survival sum of
#: :meth:`SizeModel.realized_mean_bytes`; beyond it the tail closes in
#: continuous form (error < tail_mass / 2 sampled bytes — by Markov,
#: relative error under 1/(2 * 2^16)).
_REALIZED_SUM_TERMS = 1 << 16


class SizeModel:
    """Protocol shared by the empirical CDFs and parametric size models.

    ``sample`` must return ``max(1, int(draw / scale))`` for one underlying
    draw; ``survival``/``survival_sum``/``partial_mean_above`` describe
    the continuous law in unscaled bytes and power the exact realized-mean
    computation.
    """

    name: str = "sizes"

    def _draw(self, rng: "Stream") -> float:
        raise NotImplementedError

    def sample(self, rng: "Stream", scale: float = 1.0) -> int:
        """Draw one flow size (bytes), optionally divided by ``scale``."""
        return max(1, int(self._draw(rng) / scale))

    def survival(self, size: float) -> float:
        """``P(X > size)`` in unscaled bytes."""
        raise NotImplementedError

    def survival_sum(self, scale: float, terms: int) -> float:
        """``sum(survival(k * scale) for k in 2..terms)``."""
        raise NotImplementedError

    def partial_mean_above(self, size_bytes: float) -> float:
        """``E[X * 1{X > a}]`` in unscaled bytes (closed form)."""
        raise NotImplementedError

    def mean_bytes(self, scale: float = 1.0) -> float:
        """Mean of the continuous law divided by ``scale`` (analytic)."""
        raise NotImplementedError

    def realized_mean_bytes(self, scale: float = 1.0) -> float:
        """Mean of what :meth:`sample` actually returns.

        ``E[max(1, int(X / scale))]`` — the truncated-and-clamped mean.
        This is the correct divisor for arrival-rate (offered load)
        computations; :meth:`mean_bytes` undershoots it whenever ``scale``
        pushes mass toward single-digit sizes.

        Uses the layer-cake identity ``E[max(1, floor(v))] = 1 + sum_{k>=2}
        P(v >= k)`` with ``v = X / scale``. The sum runs exactly up to
        ``k = 2^16``; the remainder ``E[(floor(v) - K)^+]`` closes as
        ``E[(v - K)^+] - P(v > K)/2`` (the equidistributed-fraction
        correction), where ``E[(v - K)^+]`` comes from the model's
        closed-form partial mean. The absolute error is bounded by
        ``P(v > K)/2 <= E[v]/2K``, i.e. relative error below ``2^-17`` for
        any law.
        """
        if scale <= 0.0:
            raise ValueError(f"scale must be positive, got {scale}")
        total = 1.0 + self.survival_sum(scale, _REALIZED_SUM_TERMS)
        edge = float(_REALIZED_SUM_TERMS) * scale
        tail_mass = self.survival(edge)
        if tail_mass > 0.0:
            excess = (self.partial_mean_above(edge) / scale
                      - _REALIZED_SUM_TERMS * tail_mass)
            total += max(0.0, excess - 0.5 * tail_mass)
        return total

    def describe(self) -> str:
        return self.name


class EmpiricalCdf(SizeModel):
    """Piecewise CDF over flow sizes in bytes."""

    def __init__(self, points: Sequence[Tuple[float, float]], name: str = "") -> None:
        if len(points) < 2:
            raise ValueError("need at least two CDF points")
        xs = [float(p[0]) for p in points]
        ys = [float(p[1]) for p in points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError(f"{name}: sizes must be strictly increasing")
        if any(b < a for a, b in zip(ys, ys[1:])):
            raise ValueError(f"{name}: CDF must be nondecreasing")
        if ys[0] != 0.0 or ys[-1] != 1.0:
            raise ValueError(f"{name}: CDF must start at 0 and end at 1")
        if xs[0] < 1:
            raise ValueError(f"{name}: smallest size must be >= 1 byte")
        self.name = name
        self._xs: List[float] = xs
        self._ys: List[float] = ys
        self._log_xs: List[float] = [math.log(x) for x in xs]

    def sample(self, rng: "Stream", scale: float = 1.0) -> int:
        """Draw one flow size (bytes), optionally divided by ``scale``."""
        u = rng.random()
        size = self._inverse(u)
        return max(1, int(size / scale))

    def _inverse(self, u: float) -> float:
        ys = self._ys
        idx = bisect.bisect_left(ys, u)
        if idx <= 0:
            return self._xs[0]
        if idx >= len(ys):
            return self._xs[-1]
        y0, y1 = ys[idx - 1], ys[idx]
        if y1 == y0:
            return self._xs[idx]
        frac = (u - y0) / (y1 - y0)
        lx0, lx1 = self._log_xs[idx - 1], self._log_xs[idx]
        return math.exp(lx0 + frac * (lx1 - lx0))

    def mean_bytes(self, scale: float = 1.0) -> float:
        """Mean flow size under log-linear interpolation (closed form).

        Within a segment the inverse CDF is ``x(f) = x0 * (x1/x0)**f`` with
        ``f`` uniform on [0, 1), so the segment's conditional mean is
        ``∫x(f)df = (x1 - x0) / (ln x1 - ln x0)`` — the logarithmic mean of
        the endpoints — weighted by the segment's probability mass. The
        midpoint quadrature this replaces underestimated convex segments,
        which skewed the Poisson arrival rate high on heavy-tailed CDFs
        (datamining's 100–500 MB tail) for every offered-load sweep.
        """
        xs, ys, lxs = self._xs, self._ys, self._log_xs
        # Zero-mass segments contribute nothing; xs strictly increasing
        # keeps every denominator positive.
        return math.fsum((ys[i] - ys[i - 1]) * (xs[i] - xs[i - 1])
                         / (lxs[i] - lxs[i - 1])
                         for i in range(1, len(xs))) / scale

    def fraction_below(self, size_bytes: float) -> float:
        """CDF value at ``size_bytes`` (log-linear interpolation)."""
        if size_bytes <= self._xs[0]:
            return self._ys[0]
        if size_bytes >= self._xs[-1]:
            return 1.0
        lx = math.log(size_bytes)
        idx = bisect.bisect_right(self._log_xs, lx)
        lx0, lx1 = self._log_xs[idx - 1], self._log_xs[idx]
        y0, y1 = self._ys[idx - 1], self._ys[idx]
        if lx1 == lx0:
            return y1
        return y0 + (y1 - y0) * (lx - lx0) / (lx1 - lx0)

    def survival(self, size: float) -> float:
        return 1.0 - self.fraction_below(size)

    def survival_sum(self, scale: float, terms: int) -> float:
        """The survival sum segment by segment, in closed form.

        On segment ``i`` the survival is linear in ``ln k``: ``1 - y0 -
        m * (ln k + ln scale - ln x0)`` with ``m = dy / dln x``, so the
        ``k`` whose ``k * scale`` falls in it sum to a count times a
        constant minus ``m * sum(ln k)``, and ``sum(ln k)`` over ``lo..hi``
        is ``lgamma(hi + 1) - lgamma(lo)``. Sizes at or below the first
        knot survive with probability one, sizes past the last with zero.
        """
        xs, ys, lxs = self._xs, self._ys, self._log_xs
        ln_scale = math.log(scale)
        # segment i holds the k with xs[i - 1] <= k * scale < xs[i]
        total = float(max(0, min(terms, math.ceil(xs[0] / scale) - 1) - 1))
        for i in range(1, len(xs)):
            lo = max(2, math.ceil(xs[i - 1] / scale))
            hi = min(terms, math.ceil(xs[i] / scale) - 1)
            if hi < lo:
                continue
            m = (ys[i] - ys[i - 1]) / (lxs[i] - lxs[i - 1])
            total += ((hi - lo + 1) * (1.0 - ys[i - 1]
                                        - m * (ln_scale - lxs[i - 1]))
                      - m * (math.lgamma(hi + 1) - math.lgamma(lo)))
        return total

    def partial_mean_above(self, size_bytes: float) -> float:
        """``E[X * 1{X > a}]``: the log-mean mass of segments above ``a``.

        Within a segment ``x(f) = x0 * (x1/x0)**f`` with ``f`` uniform, so
        the portion above ``a`` contributes ``dy * (x1 - max(a, x0)) /
        (ln x1 - ln x0)`` — the same closed form as :meth:`mean_bytes`
        with the lower endpoint moved up to ``a``.
        """
        a = float(size_bytes)
        if a >= self._xs[-1]:
            return 0.0
        total = 0.0
        for i in range(1, len(self._xs)):
            x1 = self._xs[i]
            if x1 <= a:
                continue
            dy = self._ys[i] - self._ys[i - 1]
            if dy == 0.0:
                continue
            lo = max(a, self._xs[i - 1])
            total += dy * (x1 - lo) / (self._log_xs[i] - self._log_xs[i - 1])
        return total


class LognormalSizes(SizeModel):
    """Lognormal flow sizes parameterized by mean and shape ``sigma``."""

    def __init__(self, mean_bytes: float, sigma: float,
                 name: str = "") -> None:
        if mean_bytes < 1.0:
            raise ValueError(f"mean_bytes must be >= 1, got {mean_bytes}")
        if sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self._mean = float(mean_bytes)
        self.sigma = float(sigma)
        self._mu = math.log(self._mean) - 0.5 * self.sigma ** 2
        self.name = name or f"lognormal(mean={mean_bytes:g},sigma={sigma:g})"

    def _draw(self, rng: "Stream") -> float:
        return rng.lognormal(self._mu, self.sigma)

    def survival(self, size: float) -> float:
        if size <= 0.0:
            return 1.0
        return 0.5 * math.erfc((math.log(size) - self._mu)
                               / (self.sigma * math.sqrt(2.0)))

    def survival_sum(self, scale: float, terms: int) -> float:
        log, mu, c = math.log, self._mu, self.sigma * math.sqrt(2.0)
        return 0.5 * math.fsum(map(math.erfc, [(log(k * scale) - mu) / c
                                               for k in range(2, terms + 1)]))

    def partial_mean_above(self, size_bytes: float) -> float:
        a = float(size_bytes)
        if a <= 0.0:
            return self._mean
        z = (math.log(a) - self._mu - self.sigma ** 2) \
            / (self.sigma * math.sqrt(2.0))
        return self._mean * 0.5 * math.erfc(z)

    def mean_bytes(self, scale: float = 1.0) -> float:
        return self._mean / scale


class BoundedParetoSizes(SizeModel):
    """Pareto(``alpha``) flow sizes truncated to ``[min_bytes, max_bytes]``.

    The unbounded Pareto has infinite mean for ``alpha <= 1``; the upper
    truncation keeps every moment finite while preserving the power-law
    body — the standard heavy-tailed flow-size model.
    """

    def __init__(self, min_bytes: float, alpha: float, max_bytes: float,
                 name: str = "") -> None:
        if min_bytes < 1.0:
            raise ValueError(f"min_bytes must be >= 1, got {min_bytes}")
        if max_bytes <= min_bytes:
            raise ValueError(
                f"max_bytes ({max_bytes}) must exceed min_bytes ({min_bytes})")
        if alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.xm = float(min_bytes)
        self.cap = float(max_bytes)
        self.alpha = float(alpha)
        #: total mass of the untruncated law inside [xm, cap]
        self._z = 1.0 - (self.xm / self.cap) ** self.alpha
        self.name = name or (f"pareto(min={min_bytes:g},alpha={alpha:g},"
                             f"max={max_bytes:g})")

    def _draw(self, rng: "Stream") -> float:
        u = rng.random()
        return self.xm * (1.0 - u * self._z) ** (-1.0 / self.alpha)

    def survival(self, size: float) -> float:
        if size <= self.xm:
            return 1.0
        if size >= self.cap:
            return 0.0
        return ((self.xm / size) ** self.alpha
                - (self.xm / self.cap) ** self.alpha) / self._z

    def survival_sum(self, scale: float, terms: int) -> float:
        # 1 up to xm, the power law up to cap, 0 past it
        xm, al, z = self.xm, self.alpha, self._z
        ones = max(0, min(terms, math.floor(xm / scale)) - 1)
        lo = max(2, math.floor(xm / scale) + 1)
        hi = min(terms, math.ceil(self.cap / scale) - 1)
        tail = (xm / self.cap) ** al
        return ones + math.fsum([((xm / (k * scale)) ** al - tail) / z
                                 for k in range(lo, hi + 1)])

    def partial_mean_above(self, size_bytes: float) -> float:
        a = max(float(size_bytes), self.xm)
        if a >= self.cap:
            return 0.0
        al, xm, cap = self.alpha, self.xm, self.cap
        if al == 1.0:
            return xm / self._z * math.log(cap / a)
        return (al * xm ** al / self._z
                * (a ** (1.0 - al) - cap ** (1.0 - al)) / (al - 1.0))

    def mean_bytes(self, scale: float = 1.0) -> float:
        return self.partial_mean_above(self.xm) / scale


class BimodalSizes(SizeModel):
    """Mixture of two lognormal modes (mice + elephants).

    A fraction ``large_frac`` of flows draws from the large mode; the rest
    from the small mode. ``sample`` consumes two uniforms (mode pick, then
    the lognormal draw) — documented because stream-position tests care.
    """

    def __init__(self, small_bytes: float, large_bytes: float,
                 large_frac: float, sigma: float = 0.5,
                 name: str = "") -> None:
        if not 0.0 < large_frac < 1.0:
            raise ValueError(
                f"large_frac must be in (0,1), got {large_frac}")
        if large_bytes <= small_bytes:
            raise ValueError(
                f"large mode ({large_bytes}) must exceed small mode "
                f"({small_bytes})")
        self.small = LognormalSizes(small_bytes, sigma)
        self.large = LognormalSizes(large_bytes, sigma)
        self.large_frac = float(large_frac)
        self.name = name or (f"bimodal(small={small_bytes:g},"
                             f"large={large_bytes:g},frac={large_frac:g})")

    def _draw(self, rng: "Stream") -> float:
        mode = self.large if rng.random() < self.large_frac else self.small
        return mode._draw(rng)

    def survival(self, size: float) -> float:
        p = self.large_frac
        return ((1.0 - p) * self.small.survival(size)
                + p * self.large.survival(size))

    def survival_sum(self, scale: float, terms: int) -> float:
        p = self.large_frac
        return ((1.0 - p) * self.small.survival_sum(scale, terms)
                + p * self.large.survival_sum(scale, terms))

    def partial_mean_above(self, size_bytes: float) -> float:
        p = self.large_frac
        return (1.0 - p) * self.small.partial_mean_above(size_bytes) \
            + p * self.large.partial_mean_above(size_bytes)

    def mean_bytes(self, scale: float = 1.0) -> float:
        p = self.large_frac
        return ((1.0 - p) * self.small.mean_bytes()
                + p * self.large.mean_bytes()) / scale


_KB = 1_000
_MB = 1_000_000

#: Web search [2] — bimodal: >50% of flows under ~60 kB, heavy 1-30 MB tail.
WEBSEARCH = EmpiricalCdf(
    [
        (1 * _KB, 0.0),
        (6 * _KB, 0.15),
        (13 * _KB, 0.30),
        (19 * _KB, 0.45),
        (33 * _KB, 0.60),
        (53 * _KB, 0.70),
        (133 * _KB, 0.80),
        (667 * _KB, 0.90),
        (1_340 * _KB, 0.95),
        (3_300 * _KB, 0.98),
        (6_700 * _KB, 0.99),
        (20 * _MB, 1.0),
    ],
    name="websearch",
)

#: Data mining [14] — extremely heavy-tailed: half the flows fit in one
#: packet while the top 1% reach hundreds of MB.
DATAMINING = EmpiricalCdf(
    [
        (100, 0.0),
        (1 * _KB, 0.50),
        (2 * _KB, 0.60),
        (4 * _KB, 0.70),
        (10 * _KB, 0.80),
        (400 * _KB, 0.90),
        (3_200 * _KB, 0.95),
        (100 * _MB, 0.99),
        (500 * _MB, 1.0),
    ],
    name="datamining",
)

#: Cache follower [41] — dominated by sub-10 kB responses with a modest tail.
CACHEFOLLOWER = EmpiricalCdf(
    [
        (100, 0.0),
        (300, 0.30),
        (1 * _KB, 0.50),
        (2 * _KB, 0.60),
        (5 * _KB, 0.70),
        (10 * _KB, 0.80),
        (100 * _KB, 0.90),
        (1 * _MB, 0.97),
        (10 * _MB, 1.0),
    ],
    name="cachefollower",
)

#: Hadoop [41] — mostly small control/shuffle messages, 10 MB tail.
HADOOP = EmpiricalCdf(
    [
        (150, 0.0),
        (300, 0.10),
        (1 * _KB, 0.30),
        (2 * _KB, 0.50),
        (10 * _KB, 0.70),
        (100 * _KB, 0.90),
        (1 * _MB, 0.95),
        (10 * _MB, 1.0),
    ],
    name="hadoop",
)

WORKLOADS: Dict[str, EmpiricalCdf] = {
    "websearch": WEBSEARCH,
    "datamining": DATAMINING,
    "cachefollower": CACHEFOLLOWER,
    "hadoop": HADOOP,
}


def workload_cdf(name: str) -> EmpiricalCdf:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
