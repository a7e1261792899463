"""Per-figure reproduction harness (microbenchmarks: Figures 1, 5a, 7, 8, 9).

Each ``figNN_*`` function describes the paper's testbed scenario (scaled
for pure-Python execution) as :class:`ExperimentConfig`\\ s — a dumbbell or
star :class:`TopologySpec` carrying ``bulk`` traffic sources — runs them
through :func:`repro.experiments.parallel.run_many`, and projects each
:class:`ExperimentResult` into a small result object whose ``rows()`` /
``print_report()`` emit the same series the paper plots. The deployment
sweeps (Figures 10-18) live in :mod:`repro.experiments.sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.experiments.config import ExperimentConfig, SchemeName
from repro.experiments.runner import ExperimentResult
from repro.experiments.sweep import _run_grid
from repro.faults import FaultCounters, FaultPlan, LinkFailureSpec
from repro.metrics.summary import format_table
from repro.metrics.telemetry_config import TelemetryConfig
from repro.metrics.throughput import starvation_fraction
from repro.net import (
    DumbbellSpec,
    StarSpec,
    dumbbell_to_topology_spec,
    star_to_topology_spec,
)
from repro.net.fabric import TopologySpec
from repro.sim.units import KB, MB, MILLIS
from repro.workloads.gen import SourceConfig, TrafficConfig

#: timeline resolution for the throughput figures (the paper plots 1 ms bins)
_BIN_NS = 1 * MILLIS


# ------------------------------------------------------------------ configs


def _bulk(name: str, hosts: Tuple[str, ...], size_bytes: int,
          flows_per_sender: int = 1, legacy: bool = False) -> SourceConfig:
    return SourceConfig(name=name, kind="bulk", hosts=hosts,
                        request_bytes=size_bytes,
                        flows_per_sender=flows_per_sender, legacy=legacy)


def _config(scheme: SchemeName, topology: TopologySpec,
            sources: Sequence[SourceConfig], horizon_ns: int,
            **overrides) -> ExperimentConfig:
    """A testbed config that samples per-scheme goodput in 1 ms bins and
    nothing else."""
    telemetry = TelemetryConfig(
        interval_ns=_BIN_NS, max_samples=horizon_ns // _BIN_NS + 8,
        ports="none", links=False, pool=False, credit=False)
    return ExperimentConfig(scheme=scheme, topology_spec=topology,
                            traffic=TrafficConfig(tuple(sources)),
                            sim_time_ns=horizon_ns, telemetry=telemetry,
                            **overrides)


def _pair_vs_dctcp(scheme: SchemeName, horizon_ns: int, flow_bytes: int,
                   flows_each: int = 1, **overrides) -> ExperimentConfig:
    """``scheme`` flows s0 -> r0 beside legacy DCTCP flows s1 -> r1, on a
    10G dumbbell whose bottleneck is swL -> swR."""
    dumbbell = dumbbell_to_topology_spec(DumbbellSpec(n_pairs=2))
    return _config(scheme, dumbbell, (
        _bulk("new", ("r0", "s0"), flow_bytes, flows_each),
        _bulk("dctcp", ("r1", "s1"), flow_bytes, flows_each, legacy=True),
    ), horizon_ns, **overrides)


def _gbps(res: ExperimentResult, series: Dict[str, str]) -> Dict[str, List[float]]:
    """category -> Gbps per bin, from the run's ``scheme.*`` series."""
    tel, horizon = res.telemetry, res.config.sim_time_ns
    return {cat: ([bps / 1e9 for bps in tel.aligned_values(name, horizon)]
                  if name in tel else [0.0] * max(1, horizon // _BIN_NS))
            for cat, name in series.items()}


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


def _vs_dctcp(title: str, category: str,
              cfg: ExperimentConfig) -> ThroughputFigure:
    """Run ``cfg`` and name its upgraded flows' goodput ``category``."""
    (res,) = _run_grid([cfg])
    return ThroughputFigure(title, 1.0, _gbps(res, {
        category: f"scheme.{cfg.scheme.value}.goodput_bps",
        "dctcp": "scheme.dctcp.goodput_bps",
    }), 10.0)


def fig01a_expresspass_vs_dctcp(duration_ms: int = 40,
                                flow_mb: int = 60) -> ThroughputFigure:
    """Figure 1(a): one ExpressPass flow starves one DCTCP flow on a 10G
    dumbbell when both share the data queue (naïve coexistence)."""
    return _vs_dctcp(
        "Figure 1(a): ExpressPass vs DCTCP, shared queue", "expresspass",
        _pair_vs_dctcp(SchemeName.NAIVE, duration_ms * MILLIS, flow_mb * MB))


def fig01b_homa_vs_dctcp(duration_ms: int = 40, n_each: int = 16,
                         flow_mb: int = 8) -> ThroughputFigure:
    """Figure 1(b): 16 Homa flows starve 16 DCTCP flows when nothing
    isolates them — Homa grants at the full link capacity with no awareness
    of the reactive traffic, DCTCP backs off on the resulting marks."""
    return _vs_dctcp(
        "Figure 1(b): Homa vs DCTCP, no isolation", "homa",
        _pair_vs_dctcp(SchemeName.HOMA, duration_ms * MILLIS, flow_mb * MB,
                       flows_each=n_each))


# ------------------------------------------------------------------ Figure 7


#: Figure 7's scenarios: (FlexPass senders, DCTCP senders) into host h2
_FIG07 = {
    "one_flexpass": (("h0",), ()),
    "two_flexpass": (("h0", "h1"), ()),
    "dctcp_vs_flexpass": (("h0",), ("h1",)),
}


def fig07_subflow_throughput(scenario: str,
                             duration_ms: int = 40) -> ThroughputFigure:
    """Figure 7: sub-flow bandwidth shares on a two-to-one testbed topology.

    ``scenario``: "one_flexpass" (a), "two_flexpass" (b), or
    "dctcp_vs_flexpass" (c).
    """
    if scenario not in _FIG07:
        raise ValueError(f"unknown scenario {scenario!r}")
    fp_senders, dc_senders = _FIG07[scenario]
    sources = [_bulk("flexpass", ("h2",) + fp_senders, 50 * MB)]
    series = {"proactive": "scheme.flexpass.proactive_bps",
              "reactive": "scheme.flexpass.reactive_bps"}
    if dc_senders:
        sources.append(_bulk("dctcp", ("h2",) + dc_senders, 50 * MB,
                             legacy=True))
        series["dctcp"] = "scheme.dctcp.goodput_bps"
    (res,) = _run_grid([_config(
        SchemeName.FLEXPASS, star_to_topology_spec(StarSpec(n_hosts=3)),
        sources, duration_ms * MILLIS)])
    return ThroughputFigure(f"Figure 7 ({scenario})", 1.0,
                            _gbps(res, series), 10.0)


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


#: Figure 8's transports: DCTCP, and ExpressPass / FlexPass with every flow
#: upgraded, all behind FlexPass's switch configuration (as on the testbed)
_FIG08_SCHEMES = (SchemeName.DCTCP, SchemeName.EXPRESSPASS, SchemeName.FLEXPASS)
_FIG08_SENDERS = 8


def fig08_incast(n_flows_list: Sequence[int] = (8, 24, 48, 80),
                 response_kb: int = 64) -> IncastFigure:
    """Figure 8: 8-to-1 incast; DCTCP hits RTOs at high degree, ExpressPass
    and FlexPass never do. Each degree must be a multiple of the 8 senders
    (every sender contributes the same number of responses)."""
    for n in n_flows_list:
        if n < 1 or n % _FIG08_SENDERS:
            raise ValueError(f"incast degree {n} is not a positive multiple "
                             f"of the {_FIG08_SENDERS} senders")
    hosts = tuple(f"h{i}" for i in range(_FIG08_SENDERS + 1))
    star = star_to_topology_spec(StarSpec(n_hosts=len(hosts),
                                          buffer_bytes=2 * MB))
    configs = [
        _config(scheme, star, (_bulk("incast", hosts, response_kb * KB,
                                     n // _FIG08_SENDERS),),
                400 * MILLIS)
        for n in n_flows_list for scheme in _FIG08_SCHEMES
    ]
    fig = IncastFigure(list(n_flows_list), {}, {})
    for cfg, res in zip(configs, _run_grid(configs)):
        fcts = [r.fct_ns / 1e6 for r in res.records if r.completed]
        fig.tail_fct_ms.setdefault(cfg.scheme.value, []).append(
            max(fcts) if fcts else float("inf"))
        fig.timeouts.setdefault(cfg.scheme.value, []).append(
            res.total_timeouts)
    return fig


# ------------------------------------------------------------------ Figure 9


#: Figure 9's new transports: ExpressPass with no isolation (a), FlexPass (b)
_FIG09 = {"expresspass": SchemeName.NAIVE, "flexpass": SchemeName.FLEXPASS}


def fig09_coexistence(scheme: str, duration_ms: int = 40,
                      flow_mb: int = 60) -> ThroughputFigure:
    """Figure 9: one new-transport flow vs one DCTCP flow on a shared 10G
    bottleneck. ``scheme`` is "expresspass" (a) or "flexpass" (b); (c)'s
    starvation-time bars come from ``ThroughputFigure.starvation``."""
    if scheme not in _FIG09:
        raise ValueError(f"unknown scheme {scheme!r}")
    return _vs_dctcp(
        f"Figure 9: {scheme} vs DCTCP", scheme,
        _pair_vs_dctcp(_FIG09[scheme], duration_ms * MILLIS, flow_mb * MB))


# ------------------------------------------------- failure-recovery scenario


@dataclass
class FailureRecoveryReport:
    """§4.3 robustness scenario: a mid-transfer link outage on the
    bottleneck, recovered by each transport's loss-recovery machinery."""

    title: str
    down_ms: float
    up_ms: float
    rows_: List[Tuple[object, ...]]
    counters: FaultCounters

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
    recovers through its RTO — and both flows complete.
    """
    outage = LinkFailureSpec("swL", "swR", int(down_ms * MILLIS),
                             int(up_ms * MILLIS))
    (res,) = _run_grid([_pair_vs_dctcp(
        SchemeName.FLEXPASS, horizon_ms * MILLIS, flow_mb * MB,
        faults=FaultPlan(failures=(outage,)))])

    def row(r):
        return (
            r.scheme,
            "yes" if r.completed else "NO",
            # delivered bytes: the two sub-flows' bytes sum to them (audited)
            f"{(r.proactive_bytes + r.reactive_bytes) / MB:.1f}",
            f"{r.fct_ns / MILLIS:.2f}" if r.completed else "-",
            r.retransmissions,
            r.proactive_retransmissions,
            r.timeouts,
        )

    return FailureRecoveryReport(
        title=(f"Failure recovery: bottleneck down at {down_ms} ms, "
               f"repaired at {up_ms} ms"),
        down_ms=down_ms, up_ms=up_ms,
        rows_=[row(r) for r in sorted(res.records, key=lambda r: r.flow_id)],
        counters=res.fault_counters,
    )
