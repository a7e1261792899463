"""Per-figure reproduction harness (microbenchmarks: Figures 1, 5a, 7, 8, 9).

Each ``figNN_*`` function builds the paper's scenario (scaled for pure-Python
execution), runs it, and returns a small result object whose ``rows()`` /
``print_report()`` emit the same series the paper plots. The deployment
sweeps (Figures 10-18) live in :mod:`repro.experiments.sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.counters import FaultCounters

from repro.experiments.config import ExperimentConfig, QueueSettings, SchemeName
from repro.experiments.scenarios import (
    dctcp_launcher,
    expresspass_launcher,
    flexpass_launcher,
    flexpass_queue_factory,
    homa_launcher,
    homa_shared_queue_factory,
    naive_queue_factory,
)
from repro.metrics.summary import format_table
from repro.metrics.telemetry import TelemetrySampler
from repro.metrics.throughput import starvation_fraction
from repro.net import (
    DumbbellSpec,
    StarSpec,
    build_dumbbell,
    build_star,
)
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, KB, MB, MILLIS
from repro.transports.base import FlowSpec, FlowStats

RATE = 10 * GBPS

#: timeline resolution for the throughput figures (the paper plots 1 ms bins)
_BIN_NS = 1 * MILLIS


# ----------------------------------------------------------------- launchers
#
# Every figure goes through the same audited launch path as the sweeps:
# :func:`repro.experiments.scenarios.make_scheme_setup`'s launcher builders,
# parameterized by a figure-scale ExperimentConfig.


def _figure_cfg(scheme: SchemeName = SchemeName.FLEXPASS,
                wq: float = 0.5) -> ExperimentConfig:
    """The config the figure topologies imply: 10 Gbps links, weight wq."""
    return ExperimentConfig(scheme=scheme, queues=QueueSettings(wq=wq))


def _start(sim, launcher, spec, stats, done=None) -> None:
    """Create endpoints via a scenarios launcher and schedule the start."""
    sender = launcher(sim, spec, stats, done)
    sim.at(spec.start_ns, sender.start)


# ------------------------------------------------------------------ sampling


def _goodput_sampler(sim, cums: Callable[[], Dict[str, float]],
                     horizon_ns: int) -> TelemetrySampler:
    """Telemetry sampler recording per-category goodput, in Gbps per bin.

    ``cums`` returns cumulative delivered bytes per category (all
    categories, every call, so every series covers every bin); the counter
    scale 8/bin turns per-bin byte deltas into Gbps.
    """
    sampler = TelemetrySampler(sim, interval_ns=_BIN_NS,
                               max_samples=horizon_ns // _BIN_NS + 8,
                               until_ns=horizon_ns)
    sampler.add_counter_map(cums, scale=8.0 / _BIN_NS)
    sampler.start()
    return sampler


def _series(sampler: TelemetrySampler, categories: Sequence[str],
            horizon_ns: int) -> Dict[str, List[float]]:
    tel = sampler.freeze()
    return {c: (tel.aligned_values(c, horizon_ns) if c in tel
                else [0.0] * max(1, horizon_ns // _BIN_NS))
            for c in categories}


# ------------------------------------------------------------------ Figure 1


@dataclass
class ThroughputFigure:
    """A throughput-vs-time comparison on one bottleneck."""

    title: str
    bin_ms: float
    series: Dict[str, List[float]]  # category -> Gbps per bin
    capacity_gbps: float

    def share(self, category: str) -> float:
        total = sum(sum(s) for s in self.series.values())
        return sum(self.series[category]) / total if total else 0.0

    def starvation(self, category: str, threshold: float = 0.2) -> float:
        return starvation_fraction(self.series[category], self.capacity_gbps,
                                   threshold)

    def rows(self) -> List[Tuple[object, ...]]:
        return [
            (name, f"{self.share(name) * 100:.1f}%",
             f"{self.starvation(name) * 100:.1f}%")
            for name in sorted(self.series)
        ]

    def print_report(self) -> None:
        print(f"\n== {self.title} ==")
        print(format_table(("traffic", "bandwidth share", "starvation time"),
                           self.rows()))


def fig01a_expresspass_vs_dctcp(duration_ms: int = 40,
                                flow_mb: int = 60) -> ThroughputFigure:
    """Figure 1(a): one ExpressPass flow starves one DCTCP flow on a 10G
    dumbbell when both share the data queue (naïve coexistence)."""
    sim = Simulator()
    cfg = _figure_cfg(SchemeName.NAIVE)
    db = build_dumbbell(sim, naive_queue_factory(QueueSettings()),
                        DumbbellSpec(n_pairs=2))
    xp_stats, dc_stats = FlowStats(), FlowStats()
    _start(sim, expresspass_launcher(cfg, credit_fraction=1.0, shared_queue=True),
           FlowSpec(1, db.senders[0], db.receivers[0], flow_mb * MB, 0,
                    scheme="expresspass"), xp_stats)
    _start(sim, dctcp_launcher(),
           FlowSpec(2, db.senders[1], db.receivers[1], flow_mb * MB, 0,
                    scheme="dctcp"), dc_stats)
    horizon = duration_ms * MILLIS
    sampler = _goodput_sampler(sim, lambda: {
        "expresspass": xp_stats.delivered_bytes,
        "dctcp": dc_stats.delivered_bytes,
    }, horizon)
    sim.run(until=horizon)
    return ThroughputFigure(
        "Figure 1(a): ExpressPass vs DCTCP, shared queue",
        1.0, _series(sampler, ("expresspass", "dctcp"), horizon), 10.0,
    )


def fig01b_homa_vs_dctcp(duration_ms: int = 40, n_each: int = 16,
                         flow_mb: int = 8) -> ThroughputFigure:
    """Figure 1(b): 16 Homa flows starve 16 DCTCP flows when nothing
    isolates them — Homa grants at the full link capacity with no awareness
    of the reactive traffic, DCTCP backs off on the resulting marks."""
    sim = Simulator()
    cfg = _figure_cfg(SchemeName.HOMA)
    db = build_dumbbell(sim, homa_shared_queue_factory(),
                        DumbbellSpec(n_pairs=2))
    homa_stats: List[FlowStats] = []
    dctcp_stats: List[FlowStats] = []
    launch_homa = homa_launcher(cfg)
    launch_dctcp = dctcp_launcher()
    fid = 0
    for i in range(n_each):
        fid += 1
        st = FlowStats()
        homa_stats.append(st)
        _start(sim, launch_homa, FlowSpec(fid, db.senders[0], db.receivers[0],
                                          flow_mb * MB, 0, scheme="homa"), st)
        fid += 1
        st = FlowStats()
        dctcp_stats.append(st)
        _start(sim, launch_dctcp, FlowSpec(fid, db.senders[1], db.receivers[1],
                                           flow_mb * MB, 0, scheme="dctcp"), st)
    horizon = duration_ms * MILLIS
    sampler = _goodput_sampler(sim, lambda: {
        "homa": sum(s.delivered_bytes for s in homa_stats),
        "dctcp": sum(s.delivered_bytes for s in dctcp_stats),
    }, horizon)
    sim.run(until=horizon)
    return ThroughputFigure(
        "Figure 1(b): Homa vs DCTCP, no isolation",
        1.0, _series(sampler, ("homa", "dctcp"), horizon), 10.0,
    )


# ------------------------------------------------------------------ Figure 7


def fig07_subflow_throughput(scenario: str,
                             duration_ms: int = 40) -> ThroughputFigure:
    """Figure 7: sub-flow bandwidth shares on a two-to-one testbed topology.

    ``scenario``: "one_flexpass" (a), "two_flexpass" (b), or
    "dctcp_vs_flexpass" (c).
    """
    sim = Simulator()
    cfg = _figure_cfg(SchemeName.FLEXPASS, wq=0.5)
    star = build_star(sim, flexpass_queue_factory(QueueSettings(wq=0.5)),
                      StarSpec(n_hosts=3))
    receiver = star.hosts[2]
    launch_fp = flexpass_launcher(cfg)
    fp_stats: List[FlowStats] = []
    dc_stats: List[FlowStats] = []
    size = 50 * MB
    if scenario == "one_flexpass":
        fp_stats.append(FlowStats())
        _start(sim, launch_fp, FlowSpec(1, star.hosts[0], receiver, size, 0,
                                        scheme="flexpass", group="new"),
               fp_stats[0])
    elif scenario == "two_flexpass":
        for i in (0, 1):
            fp_stats.append(FlowStats())
            _start(sim, launch_fp,
                   FlowSpec(i + 1, star.hosts[i], receiver, size, 0,
                            scheme="flexpass", group="new"), fp_stats[i])
    elif scenario == "dctcp_vs_flexpass":
        fp_stats.append(FlowStats())
        _start(sim, launch_fp, FlowSpec(1, star.hosts[0], receiver, size, 0,
                                        scheme="flexpass", group="new"),
               fp_stats[0])
        dc_stats.append(FlowStats())
        _start(sim, dctcp_launcher(),
               FlowSpec(2, star.hosts[1], receiver, size, 0, scheme="dctcp"),
               dc_stats[0])
    else:
        raise ValueError(f"unknown scenario {scenario!r}")

    def cums() -> Dict[str, float]:
        out = {
            "proactive": sum(s.proactive_bytes for s in fp_stats),
            "reactive": sum(s.reactive_bytes for s in fp_stats),
        }
        if dc_stats:
            out["dctcp"] = sum(s.delivered_bytes for s in dc_stats)
        return out

    horizon = duration_ms * MILLIS
    sampler = _goodput_sampler(sim, cums, horizon)
    sim.run(until=horizon)
    categories = ["proactive", "reactive"] + (["dctcp"] if dc_stats else [])
    return ThroughputFigure(
        f"Figure 7 ({scenario})", 1.0,
        _series(sampler, categories, horizon), 10.0,
    )


# ------------------------------------------------------------------ Figure 8


@dataclass
class IncastFigure:
    """Tail FCT vs incast degree for several transports (Figure 8)."""

    n_flows: List[int]
    #: scheme -> [max FCT ms per point], aligned with n_flows
    tail_fct_ms: Dict[str, List[float]]
    timeouts: Dict[str, List[int]]

    def rows(self):
        out = []
        for i, n in enumerate(self.n_flows):
            for scheme in sorted(self.tail_fct_ms):
                out.append((n, scheme, self.tail_fct_ms[scheme][i],
                            self.timeouts[scheme][i]))
        return out

    def print_report(self):
        print("\n== Figure 8: incast tail FCT (64 kB responses, 8 senders) ==")
        print(format_table(("flows", "scheme", "max FCT (ms)", "timeouts"),
                           self.rows()))


def fig08_incast(n_flows_list: Sequence[int] = (8, 24, 48, 80),
                 response_kb: int = 64) -> IncastFigure:
    """Figure 8: 8-to-1 incast; DCTCP hits RTOs at high degree, ExpressPass
    and FlexPass never do."""
    cfg = _figure_cfg(wq=0.5)
    schemes = {
        "dctcp": (dctcp_launcher(),
                  flexpass_queue_factory(QueueSettings(wq=0.5))),
        "expresspass": (expresspass_launcher(cfg, credit_fraction=0.5,
                                             shared_queue=True),
                        flexpass_queue_factory(QueueSettings(wq=0.5))),
        "flexpass": (flexpass_launcher(cfg),
                     flexpass_queue_factory(QueueSettings(wq=0.5))),
    }
    fig = IncastFigure(list(n_flows_list),
                       {s: [] for s in schemes}, {s: [] for s in schemes})
    for n in n_flows_list:
        for name, (launch, factory) in schemes.items():
            sim = Simulator()
            star = build_star(sim, factory,
                              StarSpec(n_hosts=9, buffer_bytes=2 * MB))
            receiver = star.hosts[0]
            stats_list = []
            fid = 0
            senders = star.hosts[1:]
            for k in range(n):
                fid += 1
                src = senders[k % len(senders)]
                spec = FlowSpec(fid, src, receiver, response_kb * KB, 0,
                                scheme=name, group="new")
                st = FlowStats()
                stats_list.append(st)
                _start(sim, launch, spec, st)
            sim.run(until=400 * MILLIS)
            fcts = [s.fct_ns() / 1e6 for s in stats_list if s.completed]
            fig.tail_fct_ms[name].append(max(fcts) if fcts else float("inf"))
            fig.timeouts[name].append(sum(s.timeouts for s in stats_list))
    return fig


# ------------------------------------------------------------------ Figure 9


def fig09_coexistence(scheme: str, duration_ms: int = 40,
                      flow_mb: int = 60) -> ThroughputFigure:
    """Figure 9: one new-transport flow vs one DCTCP flow on a shared 10G
    bottleneck. ``scheme`` is "expresspass" (a) or "flexpass" (b); (c)'s
    starvation-time bars come from ``ThroughputFigure.starvation``."""
    sim = Simulator()
    if scheme == "expresspass":
        factory = naive_queue_factory(QueueSettings())
        launch = expresspass_launcher(_figure_cfg(SchemeName.NAIVE),
                                      credit_fraction=1.0, shared_queue=True)
    elif scheme == "flexpass":
        factory = flexpass_queue_factory(QueueSettings(wq=0.5))
        launch = flexpass_launcher(_figure_cfg(wq=0.5))
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    db = build_dumbbell(sim, factory, DumbbellSpec(n_pairs=2))
    new_stats, dc_stats = FlowStats(), FlowStats()
    _start(sim, launch, FlowSpec(1, db.senders[0], db.receivers[0],
                                 flow_mb * MB, 0, scheme=scheme, group="new"),
           new_stats)
    _start(sim, dctcp_launcher(),
           FlowSpec(2, db.senders[1], db.receivers[1], flow_mb * MB, 0,
                    scheme="dctcp"), dc_stats)
    horizon = duration_ms * MILLIS
    sampler = _goodput_sampler(sim, lambda: {
        scheme: new_stats.delivered_bytes,
        "dctcp": dc_stats.delivered_bytes,
    }, horizon)
    sim.run(until=horizon)
    return ThroughputFigure(
        f"Figure 9: {scheme} vs DCTCP", 1.0,
        _series(sampler, (scheme, "dctcp"), horizon), 10.0,
    )


# ------------------------------------------------- failure-recovery scenario


@dataclass
class FailureRecoveryReport:
    """§4.3 robustness scenario: a mid-transfer link outage on the
    bottleneck, recovered by each transport's loss-recovery machinery."""

    title: str
    down_ms: float
    up_ms: float
    rows_: List[Tuple[object, ...]]
    counters: "FaultCounters"

    def rows(self) -> List[Tuple[object, ...]]:
        return self.rows_

    def print_report(self) -> None:
        print(f"\n== {self.title} ==")
        print(format_table(
            ("flow", "completed", "delivered MB", "FCT (ms)", "rtx",
             "proactive rtx", "timeouts"),
            self.rows_,
        ))
        c = self.counters
        print(format_table(
            ("fault counter", "value"),
            [
                ("in-flight packets destroyed", c.discarded_in_flight),
                ("packets sent into dead link", c.dropped_link_down),
                ("route recomputations", c.reroutes),
                ("link failures / restores",
                 f"{c.link_failures} / {c.link_restores}"),
            ],
        ))


def failure_recovery(down_ms: float = 2.0, up_ms: float = 6.0,
                     flow_mb: int = 8,
                     horizon_ms: int = 100) -> FailureRecoveryReport:
    """One FlexPass and one DCTCP flow share a dumbbell whose bottleneck
    link dies mid-transfer and comes back ``up_ms - down_ms`` ms later.

    Everything in flight on the cable is destroyed and both directions eat
    packets until the repair; routes reconverge on both transitions. The
    paper's claim (§4.3) is that FlexPass recovers non-congestion losses
    through the reactive sub-flow and proactive retransmission — DCTCP
    recovers through its RTO — and both flows complete exactly once.
    """
    from repro.faults import LinkDownEvent, LinkUpEvent, schedule_failure_events

    sim = Simulator()
    db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings(wq=0.5)),
                        DumbbellSpec(n_pairs=2))
    completions: List[int] = []

    def done(spec, stats):
        completions.append(spec.flow_id)

    fp_stats, dc_stats = FlowStats(), FlowStats()
    _start(sim, flexpass_launcher(_figure_cfg(wq=0.5)),
           FlowSpec(1, db.senders[0], db.receivers[0], flow_mb * MB, 0,
                    scheme="flexpass", group="new"), fp_stats, done)
    _start(sim, dctcp_launcher(),
           FlowSpec(2, db.senders[1], db.receivers[1], flow_mb * MB, 0,
                    scheme="dctcp"), dc_stats, done)

    counters = schedule_failure_events(sim, db.topo, [
        LinkDownEvent(int(down_ms * MILLIS), "swL", "swR"),
        LinkUpEvent(int(up_ms * MILLIS), "swL", "swR"),
    ])
    sim.run(until=horizon_ms * MILLIS)

    def row(name, flow_id, stats):
        return (
            name,
            f"{'yes' if completions.count(flow_id) == 1 else 'NO'}"
            f" (x{completions.count(flow_id)})",
            f"{stats.delivered_bytes / MB:.1f}",
            f"{stats.fct_ns() / MILLIS:.2f}" if stats.completed else "-",
            stats.retransmissions,
            stats.proactive_retransmissions,
            stats.timeouts,
        )

    return FailureRecoveryReport(
        title=(f"Failure recovery: bottleneck down at {down_ms} ms, "
               f"repaired at {up_ms} ms"),
        down_ms=down_ms, up_ms=up_ms,
        rows_=[row("flexpass", 1, fp_stats), row("dctcp", 2, dc_stats)],
        counters=counters,
    )
