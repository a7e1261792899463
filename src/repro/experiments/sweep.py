"""Deployment/parameter sweeps: Figures 5, 10-18 and the §6.2 queue study.

A *sweep* builds its grid as a list of configs, runs it through
:func:`repro.experiments.parallel.run_many` (so every sweep uses the CPUs
and simulates equal configs once) and distills each run into a
:class:`SweepCell`. One grid of runs feeds Figures 10, 12, and 13 (they
are different projections of the same data), mirroring how the paper's
artifact derives several figures from one batch of ns-2 runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from repro.experiments.config import ExperimentConfig, SchemeName
from repro.experiments.parallel import FailedResult, run_many
from repro.experiments.runner import ExperimentResult
from repro.metrics.telemetry_config import TelemetryConfig
from repro.net.topology import ClosSpec
from repro.sim.units import MILLIS

#: Deployment points the paper sweeps (fractions of upgraded racks).
DEPLOYMENTS = (0.0, 0.25, 0.5, 0.75, 1.0)

#: The four §6.2 schemes.
SWEEP_SCHEMES = (SchemeName.NAIVE, SchemeName.OWF, SchemeName.LAYERING,
                 SchemeName.FLEXPASS)


def default_sweep_config(**overrides) -> ExperimentConfig:
    """Scaled-down base config for Python-speed sweeps;
    :func:`repro.experiments.scenarios.paper_scale_config` is the
    full-fidelity base."""
    base = dict(
        workload="websearch",
        load=0.5,
        sim_time_ns=10 * MILLIS,
        size_scale=8.0,
        seed=1,
        clos=ClosSpec(n_pods=2, aggs_per_pod=2, tors_per_pod=2, hosts_per_tor=4),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@dataclass
class SweepCell:
    """Distilled metrics of one (scheme, deployment, ...) run."""

    scheme: str
    deployment: float
    load: float
    workload: str
    flows: int
    completed: int
    censored: int
    censored_small: int
    avg_all_ms: float
    p99_small_ms: float
    p99_small_new_ms: float
    p99_small_legacy_ms: float
    stddev_small_new_ms: float
    stddev_small_legacy_ms: float
    timeouts: int
    q1_avg_kb: float = 0.0
    q1_p90_kb: float = 0.0
    q1_avg_red_kb: float = 0.0
    q1_p90_red_kb: float = 0.0
    dropped_selective: int = 0
    proactive_rtx: int = 0
    duplicate_bytes: int = 0
    total_bytes: int = 0

    @classmethod
    def from_result(cls, res: ExperimentResult) -> "SweepCell":
        cfg = res.config
        every, small = res.fct(), res.fct(small=True)
        new = res.fct(small=True, group="new")
        legacy = res.fct(small=True, group="legacy")
        q1_avg, q1_p90, q1_avg_red, q1_p90_red = res.q1_occupancy_kb()
        return cls(
            scheme=cfg.scheme.value,
            deployment=cfg.deployment,
            load=cfg.load,
            workload=cfg.workload,
            flows=len(res.records),
            completed=res.completed,
            censored=every.censored,
            censored_small=small.censored,
            avg_all_ms=every.avg_ms,
            p99_small_ms=small.p99_ms,
            p99_small_new_ms=new.p99_ms,
            p99_small_legacy_ms=legacy.p99_ms,
            stddev_small_new_ms=new.stddev_ms,
            stddev_small_legacy_ms=legacy.stddev_ms,
            timeouts=res.total_timeouts,
            q1_avg_kb=q1_avg,
            q1_p90_kb=q1_p90,
            q1_avg_red_kb=q1_avg_red,
            q1_p90_red_kb=q1_p90_red,
            dropped_selective=res.counters.dropped_selective,
            proactive_rtx=sum(r.proactive_retransmissions for r in res.records),
            duplicate_bytes=sum(r.duplicate_bytes for r in res.records),
            total_bytes=sum(r.size_bytes for r in res.records if r.completed),
        )


GridKey = Tuple[str, float]


def deployment_grid(base: ExperimentConfig,
                    schemes: Sequence[SchemeName] = SWEEP_SCHEMES,
                    deployments: Sequence[float] = DEPLOYMENTS,
                    ) -> List[ExperimentConfig]:
    """The Figure 10/12/13 grid as configs, scheme-major.

    At deployment 0.0 every scheme degenerates to pure DCTCP, so that cell
    is the *same* DCTCP config for every scheme: the sweep loop simulates
    equal configs once.
    """
    return [base.with_(scheme=SchemeName.DCTCP, deployment=0.0) if dep == 0.0
            else base.with_(scheme=scheme, deployment=dep)
            for scheme in schemes for dep in deployments]


def _run_grid(configs: Sequence[ExperimentConfig]) -> List[ExperimentResult]:
    """Run a grid to completion; a cell that raised re-raises here, with
    the worker's traceback, because a figure cannot be drawn with a hole."""
    results = run_many(configs)
    for res in results:
        if isinstance(res, FailedResult):
            raise RuntimeError(f"sweep cell failed: {res.error}\n"
                               f"{res.traceback}")
    return results


def _cells(configs: Sequence[ExperimentConfig]) -> List[SweepCell]:
    """One :class:`SweepCell` per config; cells that shared a simulation
    share the projection too."""
    cells: Dict[int, SweepCell] = {}
    out = []
    for res in _run_grid(configs):
        if id(res) not in cells:
            cells[id(res)] = SweepCell.from_result(res)
        out.append(cells[id(res)])
    return out


def deployment_sweep(base: ExperimentConfig,
                     schemes: Sequence[SchemeName] = SWEEP_SCHEMES,
                     deployments: Sequence[float] = DEPLOYMENTS,
                     ) -> Dict[GridKey, SweepCell]:
    """Run the Figure 10/12/13 grid: schemes x deployment fractions."""
    labels = [(scheme.value, dep)
              for scheme in schemes for dep in deployments]
    return dict(zip(labels,
                    _cells(deployment_grid(base, schemes, deployments))))


# ------------------------------------------------------------- projections


def fig10_rows(grid: Dict[GridKey, SweepCell]):
    """Figure 10 (and 11 with a mixed-traffic grid): overall tail + average
    FCT per scheme per deployment point."""
    rows = []
    for (scheme, dep), cell in sorted(grid.items()):
        rows.append((scheme, f"{dep:.0%}", cell.p99_small_ms, cell.avg_all_ms,
                     cell.censored))
    return rows


def fig12_rows(grid: Dict[GridKey, SweepCell]):
    """Figure 12: 99p small-flow FCT split legacy vs upgraded."""
    rows = []
    for (scheme, dep), cell in sorted(grid.items()):
        rows.append((scheme, f"{dep:.0%}", cell.p99_small_legacy_ms,
                     cell.p99_small_new_ms))
    return rows


def fig13_rows(grid: Dict[GridKey, SweepCell]):
    """Figure 13: FCT standard deviation split legacy vs upgraded."""
    rows = []
    for (scheme, dep), cell in sorted(grid.items()):
        rows.append((scheme, f"{dep:.0%}", cell.stddev_small_legacy_ms,
                     cell.stddev_small_new_ms))
    return rows


# ---------------------------------------------------------------- Figure 14


def fig14_load_sweep(base: ExperimentConfig,
                     loads: Sequence[float] = (0.1, 0.4, 0.7),
                     deployments: Sequence[float] = DEPLOYMENTS,
                     schemes: Sequence[SchemeName] = (SchemeName.NAIVE,
                                                      SchemeName.FLEXPASS),
                     ) -> Dict[Tuple[str, float, float], SweepCell]:
    """Figure 14: 99p small-flow FCT vs deployment under different loads."""
    labels = [(scheme.value, load, dep) for load in loads
              for scheme in schemes for dep in deployments]
    grid = [cfg for load in loads
            for cfg in deployment_grid(base.with_(load=load), schemes,
                                       deployments)]
    return dict(zip(labels, _cells(grid)))


# ----------------------------------------------------------- Figures 15/16


def fig15_16_workloads(base: ExperimentConfig,
                       workloads: Sequence[str] = ("cachefollower", "websearch",
                                                   "datamining", "hadoop"),
                       schemes: Sequence[SchemeName] = SWEEP_SCHEMES,
                       deployments: Sequence[float] = (0.0, 0.5, 1.0),
                       ) -> Dict[Tuple[str, str, float], SweepCell]:
    """Figures 15 & 16: the deployment sweep across four realistic workloads."""
    labels = [(wl, scheme.value, dep) for wl in workloads
              for scheme in schemes for dep in deployments]
    grid = [cfg for wl in workloads
            for cfg in deployment_grid(base.with_(workload=wl), schemes,
                                       deployments)]
    return dict(zip(labels, _cells(grid)))


# ---------------------------------------------------------------- Figure 17


def fig17_seldrop_sweep(base: ExperimentConfig,
                        thresholds_kb: Sequence[int] = (50, 100, 150, 200),
                        ) -> List[Tuple[int, float, float]]:
    """Figure 17: selective-dropping threshold trade-off at full deployment.

    Returns (threshold_kB, p99_small_ms, avg_all_ms) per point.
    """
    cells = _cells([
        base.with_(scheme=SchemeName.FLEXPASS, deployment=1.0,
                   queues=replace(base.queues, q1_seldrop_bytes=kb * 1000))
        for kb in thresholds_kb])
    return [(kb, cell.p99_small_ms, cell.avg_all_ms)
            for kb, cell in zip(thresholds_kb, cells)]


# ---------------------------------------------------------------- Figure 18


def fig18_wq_sweep(base: ExperimentConfig,
                   wqs: Sequence[float] = (0.4, 0.45, 0.5, 0.55, 0.6),
                   mid_deployment: float = 0.5,
                   ) -> List[Tuple[float, float, float]]:
    """Figure 18: queue-weight w_q trade-off.

    Returns (wq, max_legacy_p99_degradation, p99_small_at_full) per point.
    Degradation is relative to the all-DCTCP baseline.
    """
    grid = [base.with_(scheme=SchemeName.DCTCP, deployment=0.0)]
    for wq in wqs:
        queues = replace(base.queues, wq=wq)
        grid += [base.with_(scheme=SchemeName.FLEXPASS, deployment=dep,
                            queues=queues)
                 for dep in (mid_deployment, 1.0)]
    baseline, *cells = _cells(grid)
    return [(wq, mid.p99_small_legacy_ms / baseline.p99_small_ms - 1.0,
             full.p99_small_ms)
            for wq, mid, full in zip(wqs, cells[0::2], cells[1::2])]


# ----------------------------------------------------------------- Figure 5


@dataclass
class Fig5aResult:
    scheme: str
    p99_small_ms: float
    avg_max_reorder_kb: float


def fig05a_rc3_comparison(base: ExperimentConfig) -> List[Fig5aResult]:
    """Figure 5(a): FlexPass vs RC3-style flow splitting — comparable tail
    FCT, much smaller reordering buffer for FlexPass."""
    out = []
    for res in _run_grid([base.with_(scheme=scheme, deployment=1.0)
                         for scheme in (SchemeName.FLEXPASS,
                                        SchemeName.FLEXPASS_RC3)]):
        completed = [r for r in res.records if r.completed]
        reorder = ([r.max_reorder_bytes for r in completed] or [0])
        out.append(Fig5aResult(
            res.config.scheme.value,
            res.fct(small=True).p99_ms,
            sum(reorder) / len(reorder) / 1000,
        ))
    return out


def fig05b_altq_comparison(base: ExperimentConfig,
                           deployments: Sequence[float] = DEPLOYMENTS,
                           ) -> Dict[GridKey, SweepCell]:
    """Figure 5(b): FlexPass vs the alternative queueing scheme (§4.3)."""
    return deployment_sweep(
        base, (SchemeName.FLEXPASS, SchemeName.FLEXPASS_ALTQ), deployments
    )


# ------------------------------------------------------ §6.2 bounded queue


def queue_occupancy_study(base: ExperimentConfig,
                          deployments: Sequence[float] = (0.5, 1.0),
                          ) -> List[Tuple[float, float, float, float, float]]:
    """The §6.2 'Bounded queue' numbers: Q1 occupancy avg/p90 (total and
    reactive-red) at mid and full deployment."""
    sampled = base.with_(
        scheme=SchemeName.FLEXPASS,
        telemetry=TelemetryConfig.ports_only(base.sim_time_ns))
    cells = _cells([sampled.with_(deployment=dep) for dep in deployments])
    return [(dep, cell.q1_avg_kb, cell.q1_p90_kb,
             cell.q1_avg_red_kb, cell.q1_p90_red_kb)
            for dep, cell in zip(deployments, cells)]
