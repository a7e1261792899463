"""Streaming, composable traffic generation.

Every traffic source is a :class:`TrafficSource`: a named, *streaming*
iterator of :class:`TrafficSpec`s in nondecreasing start order, constant
memory at millions of flows. Sources compose with
:func:`merge_sources` — a lazy merge-by-start-time over per-source RNG
streams from :class:`repro.sim.rng.RngRegistry`, so:

* **seed stability** — every source draws from its own named stream
  (``traffic.<name>``); adding, removing, or reordering one source never
  perturbs another's flows;
* **constant memory** — nothing is materialized; ``heapq.merge`` holds one
  pending spec per source;
* **fixed draw order** — each flow consumes its stream as gap, then pair,
  then size, so a source's flows are pinned by digest in the tests.

Building blocks: size models live in
:mod:`repro.workloads.distributions`; here are the interarrival processes
(Poisson, heavy-tailed Pareto, ON/OFF-modulated), pair pickers (uniform,
grouped-locality, full locality matrix), and the sources themselves
(open-loop, synchronized incast, coflow/job scatter-gather with dependent
children released on parent completion, and long-lived bulk flows between
named hosts).

Declarative configuration: :class:`TrafficConfig` (a frozen block of
:class:`SourceConfig`\\ s, every field cache-canonicalizable) is
``ExperimentConfig.traffic`` — the only way a run describes its traffic;
:func:`build_sources` turns it into live sources and the runner pumps the
merged stream lazily into the simulator. See DESIGN.md §6k.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import itertools
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.workloads.distributions import (
    BimodalSizes,
    BoundedParetoSizes,
    EmpiricalCdf,
    LognormalSizes,
    SizeModel,
    WORKLOADS,
    workload_cdf,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.sim.rng import RngRegistry, Stream

#: Flow-id block per source in a composed suite: source ``i`` numbers its
#: flows from ``i * SOURCE_ID_STRIDE + 1``, so ids stay disjoint and stable
#: regardless of how the merged streams interleave.
SOURCE_ID_STRIDE = 10_000_000


@dataclass
class TrafficSpec:
    """One generated flow before endpoint creation.

    ``children`` carries dependent flows (coflow/job replies): each child's
    ``start_ns`` is a *relative* offset in nanoseconds after the parent
    completes; the runner releases them through the flow-finish callback.
    A ``legacy`` flow runs DCTCP whatever the deployment.
    """

    flow_id: int
    src: "Host"
    dst: "Host"
    size_bytes: int
    start_ns: int
    role: str = "bg"
    children: Tuple["TrafficSpec", ...] = ()
    legacy: bool = False


@dataclass(frozen=True)
class StubHost:
    """Minimal ``Host`` stand-in (only ``.id``) for offline sampling."""

    id: int


def stub_hosts(n: int) -> List[StubHost]:
    """``n`` stub hosts for sampling generators without a fabric."""
    return [StubHost(i) for i in range(n)]


def stub_groups(n_hosts: int, n_groups: int) -> List[List[StubHost]]:
    """Stub hosts partitioned into ``n_groups`` near-equal racks."""
    hosts = stub_hosts(n_hosts)
    n_groups = max(1, min(n_groups, n_hosts))
    per = (n_hosts + n_groups - 1) // n_groups
    return [hosts[i:i + per] for i in range(0, n_hosts, per)]


# ------------------------------------------------------------ arrivals


class ArrivalProcess:
    """Interarrival-gap process with a configured long-run rate."""

    def __init__(self, rate_per_ns: float) -> None:
        if rate_per_ns <= 0.0:
            raise ValueError(f"arrival rate must be positive, got "
                             f"{rate_per_ns}")
        self.rate_per_ns = float(rate_per_ns)

    def mean_gap_ns(self) -> float:
        return 1.0 / self.rate_per_ns

    def gaps(self, rng: Stream) -> Iterator[float]:
        """Infinite stream of interarrival gaps (ns, float)."""
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: one exponential draw per flow.

    The gap is drawn as ``rng.exponential(1.0 / rate)``.
    """

    def gaps(self, rng: Stream) -> Iterator[float]:
        mean = 1.0 / self.rate_per_ns
        while True:
            yield rng.exponential(mean)

    def describe(self) -> str:
        return "poisson"


class ParetoArrivals(ArrivalProcess):
    """Heavy-tailed (Lomax) gaps with the same long-run rate as Poisson.

    ``gap = mean * (alpha - 1) * Lomax(alpha)`` has mean ``1/rate`` for
    ``alpha > 1`` but far heavier tails — long silences punctuated by
    tight bursts. Lower ``alpha`` = burstier (variance is infinite below
    ``alpha = 2``).
    """

    def __init__(self, rate_per_ns: float, alpha: float = 1.5) -> None:
        super().__init__(rate_per_ns)
        if alpha <= 1.0:
            raise ValueError(
                f"pareto arrivals need alpha > 1 for a finite mean gap, "
                f"got {alpha}")
        self.alpha = float(alpha)

    def gaps(self, rng: Stream) -> Iterator[float]:
        unit = (self.alpha - 1.0) / self.rate_per_ns
        while True:
            yield unit * rng.pareto(self.alpha)

    def describe(self) -> str:
        return f"pareto(alpha={self.alpha:g})"


class OnOffArrivals(ArrivalProcess):
    """Markov-modulated ON/OFF bursts preserving the long-run rate.

    The source alternates exponential ON periods (mean ``on_ns``), during
    which arrivals are Poisson at ``rate / duty_cycle``, and silent OFF
    periods (mean ``off_ns``). Long-run rate stays ``rate_per_ns`` while
    short-term intensity is ``1/duty`` times hotter — the classic burst
    model for stressing buffers at equal offered load.
    """

    def __init__(self, rate_per_ns: float, on_ns: float,
                 off_ns: float) -> None:
        super().__init__(rate_per_ns)
        if on_ns <= 0.0:
            raise ValueError(f"on_ns must be positive, got {on_ns}")
        if off_ns < 0.0:
            raise ValueError(f"off_ns must be >= 0, got {off_ns}")
        self.on_ns = float(on_ns)
        self.off_ns = float(off_ns)
        duty = self.on_ns / (self.on_ns + self.off_ns)
        self.burst_rate_per_ns = self.rate_per_ns / duty

    def gaps(self, rng: Stream) -> Iterator[float]:
        burst_mean = 1.0 / self.burst_rate_per_ns
        remaining_on = rng.exponential(self.on_ns)
        while True:
            # ON-time needed until the next arrival; wall time adds the
            # OFF periods crossed while accumulating it.
            need = rng.exponential(burst_mean)
            elapsed = 0.0
            while need > remaining_on:
                need -= remaining_on
                elapsed += remaining_on + rng.exponential(self.off_ns)
                remaining_on = rng.exponential(self.on_ns)
            remaining_on -= need
            yield elapsed + need

    def describe(self) -> str:
        return f"onoff(on={self.on_ns:g}ns,off={self.off_ns:g}ns)"


# ------------------------------------------------------------ pair pickers


class PairPicker:
    """Draws (src, dst) host pairs; src != dst always."""

    hosts: List["Host"]

    def pick(self, rng: Stream) -> Tuple["Host", "Host"]:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class UniformPairs(PairPicker):
    """Uniform all-to-all pairs (the paper's §6.2 background pick).

    Draw order per pair: src index over ``n``, then dst index over
    ``n - 1`` bumped past the source.
    """

    def __init__(self, hosts: Sequence["Host"]) -> None:
        if len(hosts) < 2:
            raise ValueError("need at least two hosts")
        self.hosts = list(hosts)

    def pick(self, rng: Stream) -> Tuple["Host", "Host"]:
        n = len(self.hosts)
        a = int(rng.integers(0, n))
        b = int(rng.integers(0, n - 1))
        if b >= a:
            b += 1
        return self.hosts[a], self.hosts[b]

    def describe(self) -> str:
        return "uniform"


class GroupedPairs(PairPicker):
    """Two-level locality: stay inside the sender's group with probability
    ``intra_fraction``.

    Draw order per pair: src index, the intra/inter coin, then the dst
    index within the chosen side. A singleton group must leave and a
    single group must stay, whatever the coin says.
    """

    def __init__(self, groups: Sequence[Sequence["Host"]],
                 intra_fraction: float) -> None:
        if not 0.0 <= intra_fraction <= 1.0:
            raise ValueError(
                f"intra_fraction must be in [0,1], got {intra_fraction}")
        self.groups = [list(g) for g in groups if g]
        if not self.groups:
            raise ValueError("need at least one non-empty host group")
        self.hosts = [h for g in self.groups for h in g]
        if len(self.hosts) < 2:
            raise ValueError("need at least two hosts")
        self.intra_fraction = float(intra_fraction)
        self._group_of = {
            id(h): gi for gi, g in enumerate(self.groups) for h in g
        }
        self._index_in_group = {
            id(h): i for g in self.groups for i, h in enumerate(g)
        }

    def pick(self, rng: Stream) -> Tuple["Host", "Host"]:
        src = self.hosts[int(rng.integers(0, len(self.hosts)))]
        return src, self.pick_dst(src, rng)

    def pick_dst(self, src: "Host", rng: Stream) -> "Host":
        gi = self._group_of[id(src)]
        local = self.groups[gi]
        want_intra = rng.random() < self.intra_fraction
        if want_intra and len(local) < 2:
            want_intra = False  # singleton group: must leave
        if not want_intra and len(local) == len(self.hosts):
            want_intra = True  # single group: must stay
        if want_intra:
            k = int(rng.integers(0, len(local) - 1))
            if k >= self._index_in_group[id(src)]:
                k += 1
            return local[k]
        remote_count = len(self.hosts) - len(local)
        k = int(rng.integers(0, remote_count))
        for gj, g in enumerate(self.groups):
            if gj == gi:
                continue
            if k < len(g):
                return g[k]
            k -= len(g)
        raise AssertionError("unreachable: remote pick out of range")

    def describe(self) -> str:
        return f"grouped(intra={self.intra_fraction:g})"


class MatrixPairs(PairPicker):
    """Full locality matrix over host groups (racks or regions).

    ``matrix[i][j]`` is the probability a flow from group ``i`` lands in
    group ``j`` (rows must sum to 1). Generalizes :class:`GroupedPairs`,
    which is the special case ``diag = intra`` with the remainder spread
    proportionally to group size. A diagonal pick from a singleton group
    falls through to the next group cyclically (a host cannot send to
    itself), mirroring the grouped degradation rule.
    """

    def __init__(self, groups: Sequence[Sequence["Host"]],
                 matrix: Sequence[Sequence[float]]) -> None:
        self.groups = [list(g) for g in groups if g]
        if not self.groups:
            raise ValueError("need at least one non-empty host group")
        self.hosts = [h for g in self.groups for h in g]
        if len(self.hosts) < 2:
            raise ValueError("need at least two hosts")
        n = len(self.groups)
        rows = [tuple(float(p) for p in row) for row in matrix]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(
                f"locality matrix must be {n}x{n} for {n} groups")
        for i, row in enumerate(rows):
            if any(p < 0.0 for p in row):
                raise ValueError(f"matrix row {i} has a negative entry")
            total = sum(row)
            if not 0.999999 <= total <= 1.000001:
                raise ValueError(
                    f"matrix row {i} sums to {total:g}, expected 1")
        self.matrix = rows
        self._cum = [list(itertools.accumulate(row)) for row in rows]
        self._group_of = {
            id(h): gi for gi, g in enumerate(self.groups) for h in g
        }
        self._index_in_group = {
            id(h): i for g in self.groups for i, h in enumerate(g)
        }

    def pick(self, rng: Stream) -> Tuple["Host", "Host"]:
        src = self.hosts[int(rng.integers(0, len(self.hosts)))]
        gi = self._group_of[id(src)]
        u = rng.random()
        gj = min(bisect.bisect_right(self._cum[gi], u),
                 len(self.groups) - 1)
        if gj == gi:
            local = self.groups[gi]
            if len(local) >= 2:
                k = int(rng.integers(0, len(local) - 1))
                if k >= self._index_in_group[id(src)]:
                    k += 1
                return src, local[k]
            gj = (gj + 1) % len(self.groups)  # singleton: next group over
        g = self.groups[gj]
        return src, g[int(rng.integers(0, len(g)))]

    @staticmethod
    def intra_matrix(n_groups: int, intra: float) -> List[List[float]]:
        """Diagonal-``intra`` matrix with the remainder spread uniformly."""
        if n_groups == 1:
            return [[1.0]]
        off = (1.0 - intra) / (n_groups - 1)
        return [[intra if i == j else off for j in range(n_groups)]
                for i in range(n_groups)]

    def describe(self) -> str:
        return f"matrix({len(self.groups)}x{len(self.groups)})"


# ------------------------------------------------------------ sources


class TrafficSource:
    """A named, streaming source of :class:`TrafficSpec`.

    ``flows(rng)`` must yield specs in nondecreasing ``start_ns`` order
    and hold O(1) state — never a materialized list.
    """

    name: str = "source"

    def flows(self, rng: Stream) -> Iterator[TrafficSpec]:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class OpenLoopSource(TrafficSource):
    """Open-loop unicast flows: arrivals x pairs x sizes.

    RNG draw order per flow: gap, then pair, then size. The gap that
    crosses the horizon is drawn and discarded; nothing is drawn after it.
    """

    def __init__(self, name: str, pairs: PairPicker, sizes: SizeModel,
                 arrivals: ArrivalProcess, sim_time_ns: int,
                 size_scale: float = 1.0, role: str = "bg",
                 first_flow_id: int = 1) -> None:
        self.name = name
        self.pairs = pairs
        self.sizes = sizes
        self.arrivals = arrivals
        self.sim_time_ns = int(sim_time_ns)
        self.size_scale = float(size_scale)
        self.role = role
        self.first_flow_id = int(first_flow_id)

    def flows(self, rng: Stream) -> Iterator[TrafficSpec]:
        t = 0.0
        fid = self.first_flow_id
        horizon = self.sim_time_ns
        pick = self.pairs.pick
        sample = self.sizes.sample
        scale = self.size_scale
        role = self.role
        for gap in self.arrivals.gaps(rng):
            t += gap
            start = int(t)
            if start >= horizon:
                return
            src, dst = pick(rng)
            size = sample(rng, scale)
            yield TrafficSpec(fid, src, dst, size, start, role=role)
            fid += 1

    def describe(self) -> str:
        return (f"{self.name}: open-loop {self.arrivals.describe()} x "
                f"{self.pairs.describe()} x {self.sizes.describe()}")


class IncastSource(TrafficSource):
    """Synchronized incast events (§6.2 foreground traffic).

    Each event picks one receiver; every other host sends
    ``flows_per_sender`` requests of ``request_bytes`` at the same instant.
    RNG draw order per event: gap, then receiver index; senders are
    enumerated in host order, so ids are contiguous within an event.
    """

    def __init__(self, name: str, hosts: Sequence["Host"],
                 request_bytes: int, flows_per_sender: int,
                 arrivals: ArrivalProcess, sim_time_ns: int,
                 role: str = "fg", first_flow_id: int = 1) -> None:
        if len(hosts) < 2:
            raise ValueError(
                f"incast needs at least 2 hosts (a receiver and a sender), "
                f"got {len(hosts)}")
        if request_bytes < 1:
            raise ValueError(f"request_bytes must be >= 1, got "
                             f"{request_bytes}")
        if flows_per_sender < 1:
            raise ValueError(f"flows_per_sender must be >= 1, got "
                             f"{flows_per_sender}")
        self.name = name
        self.hosts = list(hosts)
        self.request_bytes = int(request_bytes)
        self.flows_per_sender = int(flows_per_sender)
        self.arrivals = arrivals
        self.sim_time_ns = int(sim_time_ns)
        self.role = role
        self.first_flow_id = int(first_flow_id)

    def flows(self, rng: Stream) -> Iterator[TrafficSpec]:
        t = 0.0
        fid = self.first_flow_id
        n = len(self.hosts)
        for gap in self.arrivals.gaps(rng):
            t += gap
            start = int(t)
            if start >= self.sim_time_ns:
                return
            receiver = self.hosts[int(rng.integers(0, n))]
            for sender in self.hosts:
                if sender.id == receiver.id:
                    continue
                for _ in range(self.flows_per_sender):
                    yield TrafficSpec(fid, sender, receiver,
                                      self.request_bytes, start,
                                      role=self.role)
                    fid += 1

    def describe(self) -> str:
        return (f"{self.name}: incast {len(self.hosts) - 1} senders x "
                f"{self.flows_per_sender} x {self.request_bytes}B")


class CoflowSource(TrafficSource):
    """Scatter-gather jobs with dependent reply flows (coflow-style).

    Each job picks an aggregator and ``fanout`` distinct workers; the
    aggregator scatters a ``request_bytes`` request to every worker, and
    each worker's reply (sampled from ``sizes``) is *released only when
    its request completes*, after ``think_ns`` of service time. Replies
    ride on the request specs as ``children`` with relative starts; the
    runner launches them from the flow-finish callback, so reply timing is
    closed-loop — it depends on how fast the fabric served the request.
    """

    def __init__(self, name: str, hosts: Sequence["Host"], sizes: SizeModel,
                 arrivals: ArrivalProcess, fanout: int, request_bytes: int,
                 sim_time_ns: int, size_scale: float = 1.0,
                 think_ns: int = 0, first_flow_id: int = 1) -> None:
        if len(hosts) < 2:
            raise ValueError(
                f"coflow jobs need at least 2 hosts, got {len(hosts)}")
        if not 1 <= fanout <= len(hosts) - 1:
            raise ValueError(
                f"fanout must be in [1, {len(hosts) - 1}] for "
                f"{len(hosts)} hosts, got {fanout}")
        if request_bytes < 1:
            raise ValueError(f"request_bytes must be >= 1, got "
                             f"{request_bytes}")
        if think_ns < 0:
            raise ValueError(f"think_ns must be >= 0, got {think_ns}")
        self.name = name
        self.hosts = list(hosts)
        self.sizes = sizes
        self.arrivals = arrivals
        self.fanout = int(fanout)
        self.request_bytes = int(request_bytes)
        self.sim_time_ns = int(sim_time_ns)
        self.size_scale = float(size_scale)
        self.think_ns = int(think_ns)
        self.first_flow_id = int(first_flow_id)

    def bytes_per_job(self) -> float:
        """Expected bytes per job: requests + realized replies."""
        return self.fanout * (self.request_bytes
                              + self.sizes.realized_mean_bytes(
                                  self.size_scale))

    def flows(self, rng: Stream) -> Iterator[TrafficSpec]:
        t = 0.0
        fid = self.first_flow_id
        n = len(self.hosts)
        for gap in self.arrivals.gaps(rng):
            t += gap
            start = int(t)
            if start >= self.sim_time_ns:
                return
            agg_i = int(rng.integers(0, n))
            agg = self.hosts[agg_i]
            workers = rng.choice(n - 1, size=self.fanout, replace=False)
            for w in workers:
                wi = int(w)
                if wi >= agg_i:
                    wi += 1
                worker = self.hosts[wi]
                reply = TrafficSpec(
                    fid + 1, worker, agg,
                    self.sizes.sample(rng, self.size_scale),
                    self.think_ns, role="reply",
                )
                yield TrafficSpec(fid, agg, worker, self.request_bytes,
                                  start, role="req", children=(reply,))
                fid += 2

    def describe(self) -> str:
        return (f"{self.name}: coflow fanout={self.fanout} "
                f"req={self.request_bytes}B replies={self.sizes.describe()}")


class BulkSource(TrafficSource):
    """Long-lived bulk flows, all present from t = 0 (the testbed figures).

    ``hosts[0]`` receives. In each of ``flows_per_sender`` rounds every
    sender in ``hosts[1:]`` starts one ``size_bytes`` flow, in host order.
    Nothing is drawn from the RNG stream.
    """

    def __init__(self, name: str, hosts: Sequence["Host"], size_bytes: int,
                 flows_per_sender: int, role: str = "bg",
                 legacy: bool = False, first_flow_id: int = 1) -> None:
        self.name = name
        self.hosts = list(hosts)
        self.size_bytes = size_bytes
        self.flows_per_sender = flows_per_sender
        self.role = role
        self.legacy = legacy
        self.first_flow_id = first_flow_id

    def flows(self, rng: Stream) -> Iterator[TrafficSpec]:
        receiver, senders = self.hosts[0], self.hosts[1:]
        for i in range(self.flows_per_sender * len(senders)):
            yield TrafficSpec(self.first_flow_id + i, senders[i % len(senders)],
                              receiver, self.size_bytes, 0, role=self.role,
                              legacy=self.legacy)


# ------------------------------------------------------------ composition


def merge_sources(sources: Sequence[TrafficSource],
                  registry: "RngRegistry",
                  prefix: str = "traffic") -> Iterator[TrafficSpec]:
    """Lazily merge sources by start time, one RNG stream per source.

    Stream names are ``<prefix>.<source.name>``, so a source's flows are a
    pure function of (experiment seed, source name, source parameters) —
    composing sources never perturbs any one of them. Duplicate names
    would silently share a stream, so they are rejected.
    """
    names = [s.name for s in sources]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate source names: {sorted(names)}")
    streams = [s.flows(registry.stream(f"{prefix}.{s.name}"))
               for s in sources]
    return heapq.merge(*streams, key=lambda t: (t.start_ns, t.flow_id))


@dataclass(frozen=True)
class StreamDigest:
    """Summary of a flow stream: count, volume, and an order-sensitive hash."""

    flows: int
    total_bytes: int
    sha256: str


def _spec_line(t: TrafficSpec) -> bytes:
    return (f"{t.flow_id},{t.src.id},{t.dst.id},{t.size_bytes},"
            f"{t.start_ns},{t.role};").encode()


def stream_digest(specs: Iterable[TrafficSpec]) -> StreamDigest:
    """Consume a stream and digest it (children hashed with their parent).

    Constant memory: nothing is retained but the running hash, so this is
    also the canonical way to prove seed stability at millions of flows.
    """
    h = hashlib.sha256()
    count = 0
    total = 0
    for t in specs:
        count += 1
        total += t.size_bytes
        h.update(_spec_line(t))
        for c in t.children:
            count += 1
            total += c.size_bytes
            h.update(b"+" + _spec_line(c))
    return StreamDigest(count, total, h.hexdigest())


# ------------------------------------------------------------ declarative


@dataclass(frozen=True)
class SourceConfig:
    """One declarative traffic source (all fields cache-canonicalizable).

    ``sizes`` / ``arrivals`` / ``locality`` use a small spec grammar,
    ``kind:key=value,key=value`` (see the ``parse_*`` functions):

    * sizes: ``empirical[:workload]``, ``lognormal:mean_kb=60,sigma=1.5``,
      ``pareto:min_kb=1,alpha=1.3,max_mb=100``,
      ``bimodal:small_kb=2,large_mb=1,large_frac=0.05,sigma=0.5``
    * arrivals: ``poisson``, ``pareto:alpha=1.5``,
      ``onoff:on_us=50,off_us=450``
    * locality: ``uniform``, ``grouped:intra=0.8``, ``matrix:intra=0.7``
    """

    name: str = "bg"
    #: ``open`` (unicast open-loop), ``incast``, ``coflow``, or ``bulk``
    kind: str = "open"
    sizes: str = "empirical"
    arrivals: str = "poisson"
    locality: str = "uniform"
    #: this source's share of the experiment's offered load
    load_share: float = 1.0
    role: str = "bg"
    #: incast / coflow request size, bulk flow size (all unscaled)
    request_bytes: int = 8_000
    #: incast: flows each sender contributes per event; bulk: rounds
    flows_per_sender: int = 4
    #: coflow: workers per job
    fanout: int = 4
    #: coflow: service delay between request completion and reply release
    think_ns: int = 0
    #: bulk: host names, the receiver first and then the senders
    hosts: Tuple[str, ...] = ()
    #: bulk: the flows run DCTCP whatever the deployment
    legacy: bool = False


@dataclass(frozen=True)
class TrafficConfig:
    """The traffic of one run: ``ExperimentConfig.traffic``.

    The runner streams flows from these sources, merged by start time.
    The default is the paper's Figure 10 traffic: one uniform Poisson
    ``bg`` source at the experiment's full load.
    """

    sources: Tuple[SourceConfig, ...] = field(
        default_factory=lambda: (SourceConfig(),))

    @classmethod
    def paper(cls, foreground_fraction: float = 0.0,
              locality_intra: Optional[float] = None) -> "TrafficConfig":
        """The §6.2 traffic: Poisson background plus optional incast.

        ``foreground_fraction`` is the share of *total* bytes sent by the
        synchronized-incast ``fg`` source (0.1 in Figure 11). Background
        load stays the experiment's ``load``, so the incast source gets
        ``load_share = f / (1 - f)`` on top of it. ``locality_intra``
        keeps that fraction of background flows inside the sender's group
        (region or rack); ``None`` is uniform all-to-all.
        """
        if not 0.0 <= foreground_fraction < 1.0:
            raise ValueError(f"foreground_fraction must be in [0,1), got "
                             f"{foreground_fraction}")
        locality = "uniform"
        if locality_intra is not None:
            if not 0.0 <= locality_intra <= 1.0:
                raise ValueError(f"locality_intra must be in [0,1], got "
                                 f"{locality_intra}")
            locality = f"grouped:intra={float(locality_intra)!r}"
        sources = [SourceConfig(locality=locality)]
        if foreground_fraction > 0.0:
            sources.append(SourceConfig(
                name="fg", kind="incast", role="fg",
                load_share=foreground_fraction / (1.0 - foreground_fraction)))
        return cls(tuple(sources))


def _parse_spec(spec: str) -> Tuple[str, Dict[str, str], List[str]]:
    """Split ``kind:a=1,b=2`` / ``kind:positional`` into its parts."""
    kind, _, rest = spec.partition(":")
    kwargs: Dict[str, str] = {}
    positional: List[str] = []
    for part in rest.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if sep:
            kwargs[key.strip()] = value.strip()
        else:
            positional.append(part)
    return kind.strip(), kwargs, positional


def _num(kwargs: Dict[str, str], key: str, default: float,
         spec: str) -> float:
    raw = kwargs.pop(key, None)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{spec!r}: {key} must be a number, got {raw!r}") \
            from None


def _reject_unknown(kwargs: Dict[str, str], spec: str) -> None:
    if kwargs:
        raise ValueError(f"{spec!r}: unknown keys {sorted(kwargs)}")


def parse_sizes(spec: str, default_workload: str = "websearch") -> SizeModel:
    """Build a size model from its spec string (see :class:`SourceConfig`)."""
    kind, kwargs, positional = _parse_spec(spec)
    if kind in WORKLOADS:  # bare workload name shorthand
        return workload_cdf(kind)
    if kind == "empirical":
        workload = positional[0] if positional \
            else kwargs.pop("workload", default_workload)
        _reject_unknown(kwargs, spec)
        return workload_cdf(workload)
    if kind == "lognormal":
        model = LognormalSizes(
            mean_bytes=_num(kwargs, "mean_kb", 60.0, spec) * 1_000,
            sigma=_num(kwargs, "sigma", 1.5, spec))
        _reject_unknown(kwargs, spec)
        return model
    if kind == "pareto":
        model = BoundedParetoSizes(
            min_bytes=_num(kwargs, "min_kb", 1.0, spec) * 1_000,
            alpha=_num(kwargs, "alpha", 1.3, spec),
            max_bytes=_num(kwargs, "max_mb", 100.0, spec) * 1_000_000)
        _reject_unknown(kwargs, spec)
        return model
    if kind == "bimodal":
        model = BimodalSizes(
            small_bytes=_num(kwargs, "small_kb", 2.0, spec) * 1_000,
            large_bytes=_num(kwargs, "large_mb", 1.0, spec) * 1_000_000,
            large_frac=_num(kwargs, "large_frac", 0.05, spec),
            sigma=_num(kwargs, "sigma", 0.5, spec))
        _reject_unknown(kwargs, spec)
        return model
    raise ValueError(
        f"unknown size model {spec!r}; choose empirical[:workload], "
        f"lognormal, pareto, bimodal, or a workload name "
        f"{sorted(WORKLOADS)}")


def parse_arrivals(spec: str, rate_per_ns: float) -> ArrivalProcess:
    """Build an arrival process at ``rate_per_ns`` from its spec string."""
    kind, kwargs, positional = _parse_spec(spec)
    if positional:
        raise ValueError(f"{spec!r}: arrival specs take key=value only")
    if kind == "poisson":
        _reject_unknown(kwargs, spec)
        return PoissonArrivals(rate_per_ns)
    if kind == "pareto":
        proc = ParetoArrivals(rate_per_ns,
                              alpha=_num(kwargs, "alpha", 1.5, spec))
        _reject_unknown(kwargs, spec)
        return proc
    if kind == "onoff":
        proc = OnOffArrivals(
            rate_per_ns,
            on_ns=_num(kwargs, "on_us", 100.0, spec) * 1_000,
            off_ns=_num(kwargs, "off_us", 900.0, spec) * 1_000)
        _reject_unknown(kwargs, spec)
        return proc
    raise ValueError(f"unknown arrival process {spec!r}; choose poisson, "
                     f"pareto, or onoff")


def parse_locality(spec: str, hosts: Sequence["Host"],
                   groups: Sequence[Sequence["Host"]]) -> PairPicker:
    """Build a pair picker from its spec string.

    ``groups`` is the fabric's partition (racks, or regions for
    declarative fabrics); ``uniform`` ignores it.
    """
    kind, kwargs, positional = _parse_spec(spec)
    if positional:
        raise ValueError(f"{spec!r}: locality specs take key=value only")
    if kind == "uniform":
        _reject_unknown(kwargs, spec)
        return UniformPairs(hosts)
    if kind == "grouped":
        picker = GroupedPairs(groups,
                              intra_fraction=_num(kwargs, "intra", 0.8,
                                                  spec))
        _reject_unknown(kwargs, spec)
        return picker
    if kind == "matrix":
        intra = _num(kwargs, "intra", 0.7, spec)
        _reject_unknown(kwargs, spec)
        live = [g for g in groups if g]
        return MatrixPairs(live, MatrixPairs.intra_matrix(len(live), intra))
    raise ValueError(f"unknown locality {spec!r}; choose uniform, grouped, "
                     f"or matrix")


def build_sources(traffic: TrafficConfig, hosts: Sequence["Host"],
                  groups: Sequence[Sequence["Host"]], *, load: float,
                  rate_bps: float, sim_time_ns: int, size_scale: float,
                  default_workload: str = "websearch"
                  ) -> List[TrafficSource]:
    """Instantiate a :class:`TrafficConfig` against a concrete host set.

    Each source's arrival rate is set so its *realized* offered bytes are
    ``load_share * load`` of aggregate access capacity — rates divide by
    the realized (truncated/clamped) mean, not the analytic one.
    ``load`` 1.0 is offered load equal to access capacity, the paper-scale
    full-load point; open-loop rates stay finite there, so it is legal.
    """
    if not 0.0 < load <= 1.0:
        raise ValueError(f"load must be in (0,1], got {load}")
    if not traffic.sources:
        raise ValueError("TrafficConfig needs at least one source")
    sources: List[TrafficSource] = []
    for i, sc in enumerate(traffic.sources):
        if sc.load_share <= 0.0:
            raise ValueError(
                f"source {sc.name!r}: load_share must be positive, got "
                f"{sc.load_share}")
        if sc.kind != "bulk" and (sc.hosts or sc.legacy):
            raise ValueError(f"source {sc.name!r}: hosts and legacy apply "
                             f"to bulk sources only")
        first_id = i * SOURCE_ID_STRIDE + 1
        offered_bytes_per_ns = (sc.load_share * load * len(hosts)
                                * rate_bps / 8.0 / 1e9)
        sizes = parse_sizes(sc.sizes, default_workload)
        if sc.kind == "open":
            lam = offered_bytes_per_ns / sizes.realized_mean_bytes(size_scale)
            sources.append(OpenLoopSource(
                sc.name, parse_locality(sc.locality, hosts, groups), sizes,
                parse_arrivals(sc.arrivals, lam), sim_time_ns,
                size_scale=size_scale, role=sc.role,
                first_flow_id=first_id))
        elif sc.kind == "incast":
            if len(hosts) < 2:
                raise ValueError(
                    f"source {sc.name!r}: incast needs at least 2 hosts, "
                    f"got {len(hosts)}")
            event_bytes = ((len(hosts) - 1) * sc.flows_per_sender
                           * sc.request_bytes)
            rate = offered_bytes_per_ns / event_bytes
            sources.append(IncastSource(
                sc.name, hosts, sc.request_bytes, sc.flows_per_sender,
                parse_arrivals(sc.arrivals, rate), sim_time_ns,
                role=sc.role or "fg", first_flow_id=first_id))
        elif sc.kind == "bulk":
            sources.append(BulkSource(
                sc.name, _bulk_hosts(sc, hosts), sc.request_bytes,
                sc.flows_per_sender, role=sc.role, legacy=sc.legacy,
                first_flow_id=first_id))
        elif sc.kind == "coflow":
            probe = CoflowSource(
                sc.name, hosts, sizes,
                PoissonArrivals(1.0),  # placeholder rate for volume probe
                sc.fanout, sc.request_bytes, sim_time_ns,
                size_scale=size_scale, think_ns=sc.think_ns,
                first_flow_id=first_id)
            rate = offered_bytes_per_ns / probe.bytes_per_job()
            probe.arrivals = parse_arrivals(sc.arrivals, rate)
            sources.append(probe)
        else:
            raise ValueError(
                f"source {sc.name!r}: unknown kind {sc.kind!r}; choose "
                f"open, incast, coflow, or bulk")
    return sources


def _bulk_hosts(sc: SourceConfig, hosts: Sequence["Host"]) -> List["Host"]:
    """Check a bulk source and resolve its host names against the fabric."""
    if len(sc.hosts) < 2:
        raise ValueError(
            f"source {sc.name!r}: bulk needs a receiver and at least one "
            f"sender in hosts, got {sc.hosts!r}")
    if sc.request_bytes < 1 or sc.flows_per_sender < 1:
        raise ValueError(
            f"source {sc.name!r}: bulk needs request_bytes >= 1 and "
            f"flows_per_sender >= 1")
    by_name = {h.name: h for h in hosts}
    for name in sc.hosts:
        if name not in by_name:
            raise ValueError(f"source {sc.name!r}: unknown host {name!r}")
    return [by_name[name] for name in sc.hosts]
