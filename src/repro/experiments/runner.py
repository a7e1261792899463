"""Experiment runner: build, generate, simulate, measure.

``run_experiment(cfg)`` wires a Clos fabric with the scheme's queue
configuration, assigns upgraded racks, streams ``cfg.traffic`` into the
simulator (:func:`flow_specs` feeding :func:`pump_flows`), simulates to the
horizon, and returns an :class:`ExperimentResult` with per-flow records and
switch counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.experiments.config import ExperimentConfig, SchemeName
from repro.experiments.scenarios import (
    SchemeSetup,
    build_topology,
    make_scheme_setup,
)
from repro.faults.counters import FaultCounters
from repro.metrics.fct import (FctSummary, FlowRecord, mean_std_percentiles,
                               summarize)
from repro.net.fabric import FabricHandle
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.transports.base import FlowSpec, FlowStats
from repro.workloads.deployment import DeploymentPlan
from repro.workloads.gen import TrafficSpec, build_sources, merge_sources

if TYPE_CHECKING:  # pragma: no cover - loaded when a config switches it on
    from repro.audit.invariants import AuditReport, InvariantAuditor
    from repro.metrics.telemetry import TelemetrySampler, TelemetrySeries


@dataclass
class SwitchCounters:
    """Aggregated queue counters across all switch ports."""

    ecn_marked: int = 0
    dropped_selective: int = 0
    dropped_buffer: int = 0
    dropped_cap: int = 0
    enqueued: int = 0
    max_queue_bytes: int = 0
    max_red_bytes: int = 0


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: List[FlowRecord]
    counters: SwitchCounters
    events_run: int
    wall_seconds: float
    routing_failures: int = 0
    #: everything the fault injector did to this run (zeros when clean)
    fault_counters: FaultCounters = field(default_factory=FaultCounters)
    #: True when a watchdog stopped the run early; records are then partial
    aborted: bool = False
    abort_reason: str = ""
    #: time-series sampled during the run (None unless cfg.telemetry is set)
    telemetry: Optional[TelemetrySeries] = None
    #: invariant/digest audit outcome (None unless cfg.audit is enabled)
    audit: Optional[AuditReport] = None

    # ------------------------------------------------------------ queries

    def fct(self, small: bool = False, group: Optional[str] = None,
            role: Optional[str] = None) -> FctSummary:
        cutoff = self.config.scaled_cutoff_bytes() if small else None
        return summarize(self.records, small_cutoff_bytes=cutoff,
                         group=group, role=role)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.completed)

    @property
    def total_timeouts(self) -> int:
        return sum(r.timeouts for r in self.records)

    def q1_occupancy_kb(self) -> Tuple[float, float, float, float]:
        """The §6.2 'bounded queue' numbers — (avg, p90, avg red, p90 red)
        of Q1 depth in kB over every sampled ``port.*.q1`` series — or
        zeros when the run's telemetry sampled no port (see
        :meth:`TelemetryConfig.ports_only`)."""
        depth: List[float] = []
        red: List[float] = []
        for name in (self.telemetry.names() if self.telemetry is not None
                     else ()):
            if name.startswith("port.") and name.endswith(".q1.depth_bytes"):
                vals = self.telemetry.values(name)
                depth.extend(vals)
                # A queue without selective dropping has no red series:
                # its reactive-red occupancy is zero by construction.
                red_name = name[:-len("depth_bytes")] + "red_bytes"
                red.extend(self.telemetry.values(red_name)
                           if red_name in self.telemetry
                           else [0.0] * len(vals))
        if not depth:
            return 0.0, 0.0, 0.0, 0.0
        d_mean, _, (d_p90,) = mean_std_percentiles(depth, (90,))
        r_mean, _, (r_p90,) = mean_std_percentiles(red, (90,))
        return d_mean / 1000, d_p90 / 1000, r_mean / 1000, r_p90 / 1000


@dataclass
class FailedResult:
    """A config that raised instead of producing an ExperimentResult.

    Sweeps receive one of these *in position* (the result list always has
    exactly ``len(configs)`` entries) so downstream tables can report the
    hole instead of the whole run crashing. The stamps identify *where*
    and *how long* the attempt ran: an OOM-killed or wedged worker shows
    a foreign pid and a long wall clock, a deterministic config bug fails
    fast in every attempt.
    """

    config: ExperimentConfig
    error: str       # repr of the exception
    traceback: str   # full formatted traceback from the worker
    retried: bool = False
    #: total executions attempted for this config (1 = never retried)
    attempts: int = 1
    #: pid of the worker process the *last* attempt ran in
    worker_pid: int = 0
    #: wall-clock seconds the last attempt ran before failing
    wall_seconds: float = 0.0

    @property
    def failed(self) -> bool:
        return True


def _fabric_groups(clos: FabricHandle) -> List[List]:
    """The fabric's natural host partition: by region, falling back to
    racks when the spec names fewer than two regions (every Clos)."""
    groups = [members for _, members in sorted(clos.hosts_by_region().items())]
    if len(groups) < 2:
        groups = clos.racks()
    return groups


#: one top-level flow and its dependent children (coflow replies), whose
#: ``start_ns`` is an offset from the parent's completion until released
LabelledFlow = Tuple[FlowSpec, Tuple[FlowSpec, ...]]


def flow_specs(cfg: ExperimentConfig, clos: FabricHandle,
               rng: RngRegistry) -> Iterator[LabelledFlow]:
    """Stream ``cfg.traffic`` against this fabric as labelled flows.

    Top-level flows come in start order, each with its deployment group
    and scheme label set (a flow is "new" only when both endpoints sit in
    upgraded racks and it is not ``legacy``). Constant memory: nothing is
    held but the merge heads. ``clos`` is read before the stream starts
    and not held by it, so a stream a raising cell leaves suspended keeps
    no topology alive.
    """
    deployment = 0.0 if cfg.scheme == SchemeName.DCTCP else cfg.deployment
    plan = DeploymentPlan(clos.racks(), deployment, rng.stream("deployment"))
    sources = build_sources(
        cfg.traffic, clos.hosts, _fabric_groups(clos),
        load=cfg.load, rate_bps=cfg.reference_rate_bps,
        sim_time_ns=cfg.sim_time_ns, size_scale=cfg.size_scale,
        default_workload=cfg.workload)
    new_scheme = cfg.scheme.value

    def label(t: TrafficSpec) -> FlowSpec:
        group = "legacy" if t.legacy else plan.flow_group(t.src, t.dst)
        return FlowSpec(t.flow_id, t.src, t.dst, t.size_bytes, t.start_ns,
                        scheme=new_scheme if group == "new" else "dctcp",
                        group=group, role=t.role)

    return ((label(t), tuple(map(label, t.children)) if t.children else ())
            for t in merge_sources(sources, rng))


def pump_flows(sim: Simulator, flows: Iterator[LabelledFlow],
               setup: SchemeSetup, live: Dict[int, Tuple[FlowSpec, FlowStats]],
               horizon_ns: int) -> None:
    """Launch ``flows`` into ``sim``, recording each in ``live``.

    Exactly one arrival event is pending at a time, so memory stays
    constant however many flows the horizon holds. Children are released
    from their parent's completion callback. A flow that would start at or
    past ``horizon_ns`` is never launched, child or not: it could not
    start, and would only read as a censored record.
    """
    _FlowPump(sim, flows, setup, live, horizon_ns).pump()


class _FlowPump:
    """:func:`pump_flows`' state. Its callbacks are bound methods of one
    object that refers to none of them, so, unlike closures that call
    each other, they form no reference cycle holding ``live``: the cell's
    flows go when the calendar and the receivers let go of the pump."""

    __slots__ = ("sim", "flows", "setup", "live", "horizon_ns",
                 "pending_children")

    def __init__(self, sim: Simulator, flows: Iterator[LabelledFlow],
                 setup: SchemeSetup,
                 live: Dict[int, Tuple[FlowSpec, FlowStats]],
                 horizon_ns: int) -> None:
        self.sim = sim
        self.flows = flows
        self.setup = setup
        self.live = live
        self.horizon_ns = horizon_ns
        self.pending_children: Dict[int, Tuple[FlowSpec, ...]] = {}

    def launch(self, spec: FlowSpec) -> None:
        self.live[spec.flow_id] = (
            spec, self.setup.launch(self.sim, spec, self.on_complete))

    def on_complete(self, spec: FlowSpec, stats: FlowStats) -> None:
        for child in self.pending_children.pop(spec.flow_id, ()):
            child.start_ns += self.sim.now
            if child.start_ns < self.horizon_ns:
                self.launch(child)

    def on_arrival(self, spec: FlowSpec, children: Tuple[FlowSpec, ...]) -> None:
        if children:
            self.pending_children[spec.flow_id] = children
        self.launch(spec)
        self.pump()

    def pump(self) -> None:
        spec, children = next(self.flows, (None, ()))
        if spec is not None and spec.start_ns < self.horizon_ns:
            self.sim.at(spec.start_ns, self.on_arrival, spec, children)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run one full simulation and collect results. The result is a
    function of ``cfg`` alone, which is what lets a store key it by
    ``config_key(cfg)``.

    The cell's state dies with the call, returned or raised: once the
    result has read what it needs, the simulator drops its calendar and
    the topology unwires its nodes, so reference counting frees the
    fabric and the packets in flight without waiting for a full
    collection (DESIGN.md §6h). Only then are the flow records built
    from the stats objects in ``live``, so they reuse the fabric's memory
    instead of adding to the cell's peak."""
    wall_start = time.monotonic()
    live: Dict[int, Tuple[FlowSpec, FlowStats]] = {}
    result = _simulate(cfg, live)
    result.records = [FlowRecord.from_flow(s, st) for s, st in live.values()]
    result.wall_seconds = time.monotonic() - wall_start
    return result


def _simulate(cfg: ExperimentConfig,
              live: Dict[int, Tuple[FlowSpec, FlowStats]]) -> ExperimentResult:
    """Build and run the cell, recording its flows in ``live``; returns
    the result without records, after releasing the cell."""
    sim = Simulator()
    rng = RngRegistry(cfg.seed)
    setup = make_scheme_setup(cfg)
    clos = build_topology(sim, setup.queue_factory, cfg)
    try:
        fault_counters = FaultCounters()
        if cfg.faults is not None and not cfg.faults.empty:
            injector = cfg.faults.apply(sim, clos.topo, rng)
            fault_counters = injector.counters

        pump_flows(sim, flow_specs(cfg, clos, rng), setup, live,
                   cfg.sim_time_ns)

        sampler = _attach_telemetry(sim, cfg, clos, live)
        auditor = _attach_audit(sim, cfg, clos, live)

        sim.run(until=cfg.sim_time_ns, max_events=cfg.max_events,
                wall_clock_s=cfg.max_wall_seconds)

        result = ExperimentResult(
            config=cfg,
            records=[],
            counters=_collect_counters(clos),
            events_run=sim.events_run,
            wall_seconds=0.0,
            routing_failures=sum(sw.routing_failures
                                 for sw in clos.topo.switches),
            fault_counters=fault_counters,
            aborted=sim.aborted,
            abort_reason=sim.abort_reason,
        )
        # the auditor reads the hosts' endpoint tables: before the release
        if auditor is not None:
            result.audit = auditor.finalize()
        if sampler is not None:
            result.telemetry = sampler.freeze()
        return result
    finally:
        sim.release()
        clos.topo.release()


def _attach_audit(sim: Simulator, cfg: ExperimentConfig, clos: FabricHandle,
                  live) -> Optional[InvariantAuditor]:
    """Build and arm the run's invariant auditor (or None when off).

    Runs after fault splicing (so digest taps wrap the spliced links) and
    before traffic starts (the packet-pool baseline is snapshotted at
    construction). When ``cfg.audit`` is None or disabled, nothing is
    imported or constructed — the same zero-cost discipline as telemetry.
    """
    acfg = cfg.audit
    if acfg is None or not acfg.enabled:
        return None
    from repro.audit.invariants import InvariantAuditor

    auditor = InvariantAuditor(sim, clos.topo, live, config=acfg)
    auditor.install(cfg.sim_time_ns)
    return auditor


def _attach_telemetry(sim: Simulator, cfg: ExperimentConfig, clos: FabricHandle,
                      live) -> Optional[TelemetrySampler]:
    """Build and start the run's telemetry sampler (or None when off)."""
    tcfg = cfg.telemetry
    if tcfg is None or not tcfg.enabled:
        return None
    from repro.metrics.telemetry import TelemetrySampler

    sampler = TelemetrySampler(sim, interval_ns=tcfg.interval_ns,
                               max_samples=tcfg.max_samples,
                               until_ns=cfg.sim_time_ns)
    if tcfg.ports == "all":
        watched = [p for sw in clos.topo.switches for p in sw.ports.values()]
    elif tcfg.ports == "tor_uplinks":
        watched = list(clos.tor_uplinks())
    else:
        watched = []
    for port in watched:
        sampler.watch_port(port)
        if tcfg.links:
            sampler.watch_link(port)
    if tcfg.pool:
        sampler.watch_pool()
    if tcfg.flows != "none" or tcfg.credit:
        sampler.watch_flows(live.values, mode=tcfg.flows,
                            max_series=tcfg.max_flow_series,
                            credit=tcfg.credit)
    sampler.start()
    return sampler


def _collect_counters(clos: FabricHandle) -> SwitchCounters:
    agg = SwitchCounters()
    for sw in clos.topo.switches:
        for port in sw.ports.values():
            for q in port.scheduler.queues:
                st = q.stats
                agg.ecn_marked += st.ecn_marked
                agg.dropped_selective += st.dropped_selective
                agg.dropped_buffer += st.dropped_buffer
                agg.dropped_cap += st.dropped_cap
                agg.enqueued += st.enqueued
                agg.max_queue_bytes = max(agg.max_queue_bytes, st.max_bytes)
                agg.max_red_bytes = max(agg.max_red_bytes, st.max_red_bytes)
    return agg
