"""Command-line interface: reproduce any paper figure from the shell.

Examples::

    python -m repro.cli list
    python -m repro.cli figure fig09
    python -m repro.cli sweep --schemes naive flexpass --deployments 0 0.5 1
    python -m repro.cli sweep start --journal sweeps/demo --store sqlite:results.db
    python -m repro.cli sweep resume --journal sweeps/demo   # after kill -9
    python -m repro.cli sweep status --journal sweeps/demo
    python -m repro.cli run --scheme flexpass --deployment 1.0 --load 0.6
    python -m repro.cli run --paper-scale 48 --load 1.0 --ms 1   # §6.2 Clos

The CLI is a thin wrapper over :mod:`repro.experiments.figures` and
:mod:`repro.experiments.sweep`; everything it prints is available
programmatically.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, List, Optional

# What only ``audit``, ``sweep`` or ``figure`` runs is imported by its
# handler, so ``--help`` and ``repro run`` load none of the figures, the
# sweep fabric, the store or the replay cell (DESIGN.md §3).
from repro.audit.matrix import MATRIX_SCHEMES, MATRIX_TOPOLOGIES
from repro.experiments.config import ConfigError, SchemeName
from repro.experiments.parallel import run_many
from repro.experiments.runner import FailedResult, run_experiment
from repro.experiments.scenarios import (
    paper_scale_config,
    regional_fabric_config,
)
from repro.faults.spec import (
    FaultPlan,
    FaultPlanError,
    LinkFailureSpec,
    LinkLossSpec,
    SiteFailureSpec,
)
from repro.metrics.summary import degraded_title, print_table
from repro.metrics.telemetry_config import TelemetryConfig
from repro.sim.units import MILLIS

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.telemetry import TelemetrySeries


def _figure_fig01(base) -> None:
    from repro.experiments.figures import (fig01a_expresspass_vs_dctcp,
                                           fig01b_homa_vs_dctcp)

    fig01a_expresspass_vs_dctcp().print_report()
    fig01b_homa_vs_dctcp().print_report()


def _figure_fig05(base) -> None:
    from repro.experiments.sweep import fig05a_rc3_comparison

    results = fig05a_rc3_comparison(base)
    print_table("Figure 5(a): FlexPass vs RC3 splitting",
                ("scheme", "p99 small (ms)", "avg max reorder (kB)"),
                [(r.scheme, r.p99_small_ms, r.avg_max_reorder_kb)
                 for r in results])


def _figure_fig07(base) -> None:
    from repro.experiments.figures import fig07_subflow_throughput

    for scenario in ("one_flexpass", "two_flexpass", "dctcp_vs_flexpass"):
        fig07_subflow_throughput(scenario).print_report()


def _figure_fig08(base) -> None:
    from repro.experiments.figures import fig08_incast

    fig08_incast().print_report()


def _figure_fig09(base) -> None:
    from repro.experiments.figures import fig09_coexistence

    xp = fig09_coexistence("expresspass")
    fp = fig09_coexistence("flexpass")
    xp.print_report()
    fp.print_report()
    print_table("Figure 9(c): starvation time", ("scheme", "legacy starved"),
                [("ExpressPass", f"{xp.starvation('dctcp'):.2%}"),
                 ("FlexPass", f"{fp.starvation('dctcp'):.2%}")])


def _figure_fig10(base) -> None:
    from repro.experiments.sweep import (deployment_sweep, fig10_rows,
                                         fig12_rows, fig13_rows)

    grid = deployment_sweep(base)
    print_table("Figure 10",
                ("scheme", "deployed", "p99 small (ms)", "avg (ms)",
                 "censored"), fig10_rows(grid))
    print_table("Figure 12",
                ("scheme", "deployed", "legacy p99", "upgraded p99"),
                fig12_rows(grid))
    print_table("Figure 13",
                ("scheme", "deployed", "legacy stddev", "upgraded stddev"),
                fig13_rows(grid))


def _figure_fig17(base) -> None:
    from repro.experiments.sweep import fig17_seldrop_sweep

    points = fig17_seldrop_sweep(base)
    print_table("Figure 17: selective-dropping threshold",
                ("threshold (kB)", "p99 small (ms)", "avg (ms)"), points)


def _figure_fig18(base) -> None:
    from repro.experiments.sweep import fig18_wq_sweep

    points = fig18_wq_sweep(base)
    print_table("Figure 18: w_q sweep",
                ("w_q", "legacy degradation", "p99 at full (ms)"),
                [(w, f"{d:+.0%}", p) for w, d, p in points])


def _figure_failure_recovery(base) -> None:
    from repro.experiments.figures import failure_recovery

    failure_recovery().print_report()


def _figure_queue(base) -> None:
    from repro.experiments.sweep import queue_occupancy_study

    rows = queue_occupancy_study(base)
    print_table("Bounded queue (§6.2)",
                ("deployed", "avg kB", "p90 kB", "avg red kB", "p90 red kB"),
                [(f"{d:.0%}", a, p, ar, pr) for d, a, p, ar, pr in rows])


FIGURES = {
    "fig01": _figure_fig01,
    "fig05": _figure_fig05,
    "fig07": _figure_fig07,
    "fig08": _figure_fig08,
    "fig09": _figure_fig09,
    "fig10": _figure_fig10,  # also prints 12 and 13
    "fig17": _figure_fig17,
    "fig18": _figure_fig18,
    "queue": _figure_queue,
    "failure-recovery": _figure_failure_recovery,
}

#: Figures that replay a fixed §6.1 testbed scenario: no config flag
#: reaches them, so ``_dispatch`` refuses one.
TESTBED_FIGURES = ("fig01", "fig07", "fig08", "fig09", "failure-recovery")

#: Defaults of the flags every simulating subcommand shares.
CONFIG_DEFAULTS = dict(load=0.5, ms=10, seed=1, workload="websearch",
                       size_scale=8.0)


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    """The flags of ``figure``, ``sweep``, ``run`` and ``topo``; a
    subcommand that wants other defaults calls ``set_defaults`` after."""
    parser.add_argument("--load", type=float)
    parser.add_argument("--ms", type=int, help="simulated ms")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workload")
    parser.add_argument("--size-scale", type=float)
    parser.set_defaults(**CONFIG_DEFAULTS)


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    """The flags of one simulated run: ``run`` and ``topo run``."""
    parser.add_argument("--scheme", default="flexpass",
                        choices=[s.value for s in SchemeName])
    parser.add_argument("--deployment", type=float, default=1.0)
    _add_config_args(parser)


def _base_config(args):
    from repro.experiments.sweep import default_sweep_config

    overrides = dict(load=args.load, sim_time_ns=args.ms * MILLIS,
                     seed=args.seed, workload=args.workload)
    plan = _fault_plan_from_args(args)
    if plan is not None:
        overrides["faults"] = plan
    if getattr(args, "max_events", None) is not None:
        overrides["max_events"] = args.max_events
    if getattr(args, "max_wall_seconds", None) is not None:
        overrides["max_wall_seconds"] = args.max_wall_seconds
    if args.paper_scale is not None:
        return paper_scale_config(args.paper_scale, **overrides)
    return default_sweep_config(size_scale=args.size_scale, **overrides)


def _add_fault_args(parser: argparse.ArgumentParser,
                    ontology: bool = False) -> None:
    g = parser.add_argument_group("fault injection / watchdog")
    faults_help = ("loss specs as key=value[,key=value...]: "
                   "model=bernoulli|gilbert rate=P links=GLOB "
                   "kinds=data/credit/... corrupt=0|1 burst_start=P "
                   "burst_end=P (e.g. --faults rate=0.01,kinds=data)")
    if ontology:
        # A bare --faults (no specs) picks the fabric's first inter-region
        # backbone link by ontology name and downs it mid-run.
        g.add_argument("--faults", nargs="*", metavar="SPEC", default=None,
                       help=faults_help + "; bare --faults downs the first "
                            "inter-region backbone link mid-run")
    else:
        g.add_argument("--faults", nargs="+", metavar="SPEC", default=None,
                       help=faults_help)
    g.add_argument(
        "--fault-link-down", nargs="+", action="append", default=None,
        metavar="ARG", help="A B DOWN_MS [UP_MS]: fail the A<->B link at "
                            "DOWN_MS, optionally repair at UP_MS")
    if ontology:
        g.add_argument(
            "--fault-site", nargs="+", action="append", default=None,
            metavar="ARG", help="TARGET DOWN_MS [UP_MS]: fail every link of "
                                "an ontology group (site/region) or single "
                                "node named TARGET")
    g.add_argument("--max-events", type=int, default=None,
                   help="watchdog: abort after this many simulated events")
    g.add_argument("--max-wall-seconds", type=float, default=None,
                   help="watchdog: abort after this much real time")


_LOSS_SPEC_KEYS = {
    "links": str, "model": str, "rate": float, "burst_start": float,
    "burst_end": float, "rate_good": float,
    "corrupt": lambda v: v.lower() in ("1", "true", "yes"),
    "kinds": lambda v: tuple(k for k in v.split("/") if k),
}


def _parse_loss_spec(text: str) -> LinkLossSpec:
    kwargs = {}
    for item in text.split(","):
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"--faults: expected key=value, got {item!r}")
        convert = _LOSS_SPEC_KEYS.get(key)
        if convert is None:
            raise SystemExit(f"--faults: unknown key {key!r} "
                             f"(choose from {sorted(_LOSS_SPEC_KEYS)})")
        kwargs[key] = convert(value)
    return LinkLossSpec(**kwargs)


def _parse_link_down(values) -> LinkFailureSpec:
    if len(values) not in (3, 4):
        raise SystemExit("--fault-link-down takes: A B DOWN_MS [UP_MS]")
    a, b = values[0], values[1]
    down_ns = int(float(values[2]) * MILLIS)
    up_ns = int(float(values[3]) * MILLIS) if len(values) == 4 else None
    return LinkFailureSpec(a=a, b=b, down_ns=down_ns, up_ns=up_ns)


def _parse_fault_site(values) -> SiteFailureSpec:
    if len(values) not in (2, 3):
        raise SystemExit("--fault-site takes: TARGET DOWN_MS [UP_MS]")
    down_ns = int(float(values[1]) * MILLIS)
    up_ns = int(float(values[2]) * MILLIS) if len(values) == 3 else None
    return SiteFailureSpec(target=values[0], down_ns=down_ns, up_ns=up_ns)


def _fault_plan_from_args(args) -> Optional[FaultPlan]:
    losses = tuple(_parse_loss_spec(s) for s in (getattr(args, "faults", None) or ()))
    failures = tuple(_parse_link_down(v)
                     for v in (getattr(args, "fault_link_down", None) or ()))
    site_failures = tuple(_parse_fault_site(v)
                          for v in (getattr(args, "fault_site", None) or ()))
    if not losses and not failures and not site_failures:
        return None
    return FaultPlan(losses=losses, failures=failures,
                     site_failures=site_failures)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FlexPass (EuroSys'23) reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible figures")

    p_fig = sub.add_parser("figure", help="reproduce one figure")
    p_fig.add_argument("name", choices=sorted(FIGURES))
    _add_config_args(p_fig)

    p_sweep = sub.add_parser(
        "sweep",
        help="deployment sweep: inline, or durable via start/resume/status")
    p_sweep.add_argument(
        "action", nargs="?", choices=("start", "resume", "status"),
        default=None,
        help="omit for an inline sweep (same grid, same loop, no cell "
             "rows); 'start' runs it durably (cell state kept in the result "
             "store, kill-safe), 'resume' continues a killed or partial "
             "sweep, 'status' reads its cells without running anything")
    p_sweep.add_argument("--schemes", nargs="+",
                         default=["naive", "owf", "ly", "flexpass"])
    p_sweep.add_argument("--deployments", type=float, nargs="+",
                         default=[0.0, 0.25, 0.5, 0.75, 1.0])
    _add_config_args(p_sweep)
    _add_fabric_args(p_sweep)

    p_run = sub.add_parser("run", help="single experiment")
    _add_run_args(p_run)
    _add_fault_args(p_run)
    _add_telemetry_args(p_run)

    for p in (p_fig, p_sweep, p_run):
        p.add_argument(
            "--paper-scale", nargs="?", type=int, const=192, default=None,
            metavar="HOSTS",
            help="§6.2 40G Clos of HOSTS hosts (a multiple of 24; bare: "
                 "192, the paper's fabric), unscaled flow sizes (slow)")

    p_topo = sub.add_parser(
        "topo",
        help="declarative topology specs: validate, show, or run one "
             "(YAML/JSON file or azure-style CSV directory)")
    p_topo.add_argument("action", choices=("validate", "show", "run"),
                        help="validate: load + strict checks; show: print "
                             "the fabric's ontology; run: simulate a scheme "
                             "over it")
    p_topo.add_argument("spec", help="spec path (.yaml/.yml/.json or a "
                                     "directory of CSV tables)")
    _add_run_args(p_topo)
    p_topo.set_defaults(ms=2)
    p_topo.add_argument("--locality", type=float, default=0.8,
                        metavar="FRACTION",
                        help="fraction of traffic kept inside the sender's "
                             "region (-1 disables the locality matrix)")
    p_topo.add_argument("--store", metavar="SPEC", default=".sim-cache.db",
                        help="result store, sqlite:PATH or a file path "
                             "('none' disables); identical spec+config is "
                             "served from it")
    _add_fault_args(p_topo, ontology=True)

    p_wl = sub.add_parser(
        "workloads",
        help="streaming traffic-generator suite: list building blocks, "
             "describe a composition, sample a flow stream, or sweep "
             "load x locality x burstiness across schemes")
    p_wl.add_argument(
        "action", choices=("list", "describe", "sample", "sweep"),
        help="list: building blocks + spec grammar; describe: resolve a "
             "composition against a stub fabric; sample: stream flows "
             "(digest / bounded-memory checks); sweep: simulate the grid")
    g = p_wl.add_argument_group("traffic composition")
    g.add_argument("--sizes", default="empirical",
                   help="size model spec (see 'repro workloads list')")
    g.add_argument("--arrivals", default="poisson",
                   help="arrival process spec (poisson | pareto:alpha= | "
                        "onoff:on_us=,off_us=)")
    g.add_argument("--locality", default="uniform",
                   help="pair picker spec (uniform | grouped:intra= | "
                        "matrix:intra=)")
    g.add_argument("--workload", default="websearch",
                   help="default empirical CDF for 'empirical' size specs")
    g.add_argument("--size-scale", type=float, default=8.0)
    g.add_argument("--load", type=float, default=0.5)
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--incast-share", type=float, default=0.0, metavar="F",
                   help="add a synchronized-incast source carrying this "
                        "fraction of the offered load")
    g.add_argument("--coflow-share", type=float, default=0.0, metavar="F",
                   help="add a coflow (scatter-gather jobs) source carrying "
                        "this fraction of the offered load")
    g.add_argument("--coflow-fanout", type=int, default=4)
    g.add_argument("--request-kb", type=float, default=8.0,
                   help="incast/coflow request size in kB (unscaled)")
    g = p_wl.add_argument_group("stub fabric (describe/sample)")
    g.add_argument("--hosts", type=int, default=32)
    g.add_argument("--groups", type=int, default=4,
                   help="racks the stub hosts are partitioned into")
    g.add_argument("--rate-gbps", type=float, default=10.0,
                   help="stub access-link rate the load is relative to")
    g = p_wl.add_argument_group("sampling (sample)")
    g.add_argument("--flows", type=int, default=None,
                   help="stop after exactly N flows (default: --ms horizon)")
    g.add_argument("--ms", type=int, default=2, help="simulated ms horizon")
    g.add_argument("--show", type=int, default=0, metavar="N",
                   help="print the first N flows")
    g.add_argument("--digest", action="store_true",
                   help="print the stream digest (count/bytes/sha256)")
    g.add_argument("--check-memory", action="store_true",
                   help="trace allocations while streaming and fail if the "
                        "peak exceeds --memory-budget-mb (proves the "
                        "generator is constant-memory)")
    g.add_argument("--memory-budget-mb", type=float, default=64.0)
    g = p_wl.add_argument_group("grid (sweep)")
    g.add_argument("--schemes", nargs="+", default=["dctcp", "flexpass"],
                   choices=[s.value for s in SchemeName])
    g.add_argument("--loads", type=float, nargs="+", default=None,
                   help="grid loads (default: the single --load)")
    g.add_argument("--localities", nargs="+", default=None,
                   help="grid locality specs (default: the single "
                        "--locality)")
    g.add_argument("--arrival-grid", nargs="+", default=None,
                   help="grid arrival specs (default: the single "
                        "--arrivals)")

    p_audit = sub.add_parser(
        "audit", help="correctness audit: invariant matrix or replay cell")
    p_audit.add_argument(
        "--schemes", nargs="+", default=list(MATRIX_SCHEMES),
        choices=[s.value for s in SchemeName],
        help="transport schemes to audit")
    p_audit.add_argument(
        "--topos", nargs="+", default=list(MATRIX_TOPOLOGIES),
        choices=sorted(MATRIX_TOPOLOGIES),
        help="fabric shapes to audit")
    p_audit.add_argument("--ms", type=int, default=2, help="simulated ms")
    p_audit.add_argument("--seed", type=int, default=1)
    p_audit.add_argument("--load", type=float, default=0.5)
    p_audit.add_argument(
        "--replay", action="store_true",
        help="determinism cell: run the first scheme x topo twice (through "
             "worker pickling and a result-store round-trip) and compare "
             "digests")
    return parser


def _add_fabric_args(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group(
        "durable sweep fabric (start/resume/status)")
    g.add_argument("--journal", metavar="DIR", default=None,
                   help="sweep directory: the unit of resume, holding a "
                        "pointer to the sweep's cells and its report "
                        "(required for start/resume/status)")
    g.add_argument("--store", metavar="SPEC", default=None,
                   help="result store, which also holds the sweep's cells: "
                        "sqlite:PATH or a file path, one SQLite file safe "
                        "for concurrent writers (default: <journal>/store.db)")
    g.add_argument("--loads", type=float, nargs="+", default=None,
                   help="grid loads (default: the single --load)")
    g.add_argument("--seeds", type=int, nargs="+", default=None,
                   help="grid seeds (default: the single --seed)")
    g.add_argument("--processes", type=int, default=None)
    g.add_argument("--max-retries", type=int, default=2,
                   help="extra attempts per failing cell before it is "
                        "reported as failed (sweep still completes)")
    g.add_argument("--retry-base-s", type=float, default=1.0,
                   help="backoff base: retry N waits base*2^(N-1) + jitter")
    g.add_argument("--lease-s", type=float, default=300.0,
                   help="per-cell wall-clock lease; an expired lease "
                        "re-queues the cell")
    g.add_argument("--heartbeat-s", type=float, default=5.0,
                   help="worker heartbeat period (renews the lease)")


def _fabric_from_args(args):
    from repro.experiments.fabric import FabricConfig, SweepFabric

    return SweepFabric(
        args.journal,
        store=args.store,
        config=FabricConfig(
            processes=args.processes,
            max_retries=args.max_retries,
            retry_base_s=args.retry_base_s,
            # Decorrelate backoff jitter from the simulation seed (the
            # grid sweeps args.seed directly) while staying deterministic
            # per invocation.
            retry_seed=args.seed ^ 0x5EED5EED,
            lease_s=args.lease_s,
            heartbeat_s=args.heartbeat_s,
        ),
    )


def _sweep_grid(args) -> List:
    """The ``repro sweep`` grid, inline or durable: seeds x loads x
    :func:`repro.experiments.sweep.deployment_grid`."""
    from repro.experiments.sweep import deployment_grid

    base = _base_config(args)
    schemes = [SchemeName(s) for s in args.schemes]
    return [cfg
            for seed in (args.seeds or [args.seed])
            for load in (args.loads or [args.load])
            for cfg in deployment_grid(base.with_(load=load, seed=seed),
                                       schemes, args.deployments)]


def _print_sweep(title: str, results) -> None:
    """One row per cell, failed cells included."""
    from repro.experiments.sweep import SweepCell

    rows = []
    for res in results:
        cfg = res.config
        head = (cfg.scheme.value, f"{cfg.deployment:.0%}", cfg.load, cfg.seed)
        if isinstance(res, FailedResult):
            rows.append(head + ("FAILED", "-", "-", "-",
                                f"{res.error[:40]} (x{res.attempts})"))
        else:
            cell = SweepCell.from_result(res)
            rows.append(head + (cell.p99_small_ms, cell.p99_small_legacy_ms,
                                cell.p99_small_new_ms, cell.avg_all_ms,
                                cell.censored))
    print_table(title,
                ("scheme", "deployed", "load", "seed", "p99 small (ms)",
                 "legacy p99", "upgraded p99", "avg (ms)",
                 "censored / error"),
                rows)


def _run_sweep_fabric(args) -> int:
    from repro.experiments.fabric import JournalError, sweep_status

    if not args.journal:
        raise SystemExit(f"repro sweep {args.action}: --journal DIR is "
                         f"required")
    fabric = _fabric_from_args(args)
    try:
        if args.action == "status":
            status = sweep_status(args.journal)
        else:  # resume passes no grid: the sweep's rows hold it
            results = fabric.run(_sweep_grid(args)
                                 if args.action == "start" else None)
    except JournalError as exc:
        raise SystemExit(f"repro sweep {args.action}: {exc}")
    if args.action == "status":
        print_table(
            f"Sweep {status['sweep_id']} @ {args.journal}",
            ("field", "value"),
            [("store", status["store"]),
             ("salt", status["salt"]),
             ("cells", status["cells"]),
             ("executions", status["executions"])]
            + sorted(status["by_status"].items()))
        for cell in status["exhausted"]:
            print(f"  exhausted cell {cell['index']} "
                  f"(x{cell['attempts']}): {cell['error']}")
        return 0
    report = fabric.last_report
    _print_sweep(f"Durable sweep {report.sweep_id} [{report.status}]",
                 results)
    print(f"\ncells: {report.completed}/{report.total} completed, "
          f"{report.executed} simulated, {report.store_hits} store hits, "
          f"{report.retries} retries, {report.expired_leases} expired "
          f"leases, {report.wall_seconds:.1f}s wall")
    print(f"store: {report.store}")
    print(f"completion report: {fabric.report_path}")
    return 0 if report.status == "complete" else 1


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("telemetry")
    g.add_argument("--telemetry", action="store_true",
                   help="sample time-series during the run, print a "
                        "sparkline summary, and export JSON + CSV")
    g.add_argument("--telemetry-out", default="telemetry", metavar="DIR",
                   help="directory for telemetry.json/telemetry.csv")
    g.add_argument("--telemetry-interval-us", type=float, default=100.0,
                   help="sampling cadence in microseconds")
    g.add_argument("--telemetry-ports", default="tor_uplinks",
                   choices=("tor_uplinks", "all", "none"),
                   help="which switch ports get per-queue series")


def _telemetry_config(args) -> Optional[TelemetryConfig]:
    if not getattr(args, "telemetry", False):
        return None
    return TelemetryConfig(
        interval_ns=max(1, int(args.telemetry_interval_us * 1000)),
        ports=args.telemetry_ports,
    )


def _report_telemetry(series: TelemetrySeries, out_dir: str,
                      max_port_series: int = 12) -> None:
    """Print the sparkline summary and write JSON/CSV exports."""
    names = series.names()
    shown = [n for n in names if not n.startswith("port.")]
    port_names = [n for n in names if n.startswith("port.")]
    shown += port_names[:max_port_series]
    print("\n== telemetry ==")
    rows = [(n, k, mean, peak, spark) for n, k, mean, peak, spark
            in series.summary_rows(shown)]
    print_table(f"{len(names)} series @ {series.interval_ns / 1000:g} µs",
                ("series", "kind", "mean", "max", "timeline"), rows)
    hidden = len(port_names) - max_port_series
    if hidden > 0:
        print(f"... {hidden} more port series (see exports)")
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "telemetry.json")
    csv_path = os.path.join(out_dir, "telemetry.csv")
    series.write_json(json_path)
    series.write_csv(csv_path)
    print(f"telemetry written to {json_path} and {csv_path}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (FaultPlanError, ConfigError) as exc:
        # Usage errors: a misaddressed plan is found while the run is set
        # up, a bad flag value when the subcommand builds its config —
        # before any sweep directory or store file exists.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader has gone (``repro list | head -1``): stop quietly.
        # Python flushes stdout once more at exit, so point its descriptor
        # at devnull first, or that flush fails too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


def _dispatch(args) -> int:
    if args.command == "list":
        for name in sorted(FIGURES):
            print(name)
        return 0
    if args.command == "figure":
        if args.name in TESTBED_FIGURES:
            given = [f"--{k.replace('_', '-')}" for k, v
                     in dict(CONFIG_DEFAULTS, paper_scale=None).items()
                     if getattr(args, k) != v]
            if given:
                raise ConfigError(f"figure {args.name} replays a fixed "
                                  f"testbed scenario; it takes no "
                                  f"{', '.join(given)}")
        FIGURES[args.name](_base_config(args))
        return 0
    if args.command == "sweep":
        if args.action is not None:
            return _run_sweep_fabric(args)
        results = run_many(_sweep_grid(args), processes=args.processes)
        _print_sweep("Deployment sweep", results)
        return int(any(isinstance(r, FailedResult) for r in results))
    if args.command == "run":
        return _run_single(args)
    if args.command == "topo":
        return _run_topo(args)
    if args.command == "workloads":
        return _run_workloads(args)
    if args.command == "audit":
        return _run_audit(args)
    return 1  # pragma: no cover


def _report_run(title: str, res, own_rows=()) -> int:
    """Print one run as a metric table: the rows every single run has,
    then the subcommand's ``own_rows``, then cost, faults and any abort.
    Returns the exit code: 1 if the run aborted, else 0."""
    s_all, s_small = res.fct(), res.fct(small=True)
    rows = [
        ("flows completed", f"{res.completed}/{len(res.records)}"),
        ("flows censored (no FCT)", s_all.censored),
        ("avg FCT (ms)", s_all.avg_ms),
        ("p99 small FCT (ms)", s_small.p99_ms),
        ("small flows censored", s_small.censored),
        ("timeouts", res.total_timeouts),
        *own_rows,
        ("events simulated", res.events_run),
        ("events/sec", int(res.events_run / res.wall_seconds)
         if res.wall_seconds else 0),
        ("wall time (s)", res.wall_seconds),
    ]
    fc = res.fault_counters
    if fc.any_faults:
        rows += [
            ("faults injected", fc.injected_drops),
            ("packets corrupted", fc.corrupted),
            ("link-down losses",
             fc.discarded_in_flight + fc.dropped_link_down),
            ("reroutes", fc.reroutes),
        ]
    if res.aborted:
        rows.append(("aborted", res.abort_reason))
    print_table(degraded_title(title, res), ("metric", "value"), rows)
    return 1 if res.aborted else 0


def _run_single(args) -> int:
    """The ``repro run`` subcommand: one config, run in-process."""
    base = _base_config(args)
    # The Q1 rows need port series; --telemetry asks for (and exports)
    # more than those.
    cfg = base.with_(scheme=SchemeName(args.scheme),
                     deployment=args.deployment,
                     telemetry=_telemetry_config(args)
                     or TelemetryConfig.ports_only(base.sim_time_ns))
    res = run_experiment(cfg)
    q1_avg_kb, q1_p90_kb, _, _ = res.q1_occupancy_kb()
    code = _report_run(
        f"{cfg.scheme.value} @ {cfg.deployment:.0%} deployment, "
        f"{cfg.clos.n_hosts} hosts, load {cfg.load:.0%}", res,
        [("Q1 avg (kB)", q1_avg_kb),
         ("Q1 p90 (kB)", q1_p90_kb),
         ("selective drops", res.counters.dropped_selective),
         ("ECN marks", res.counters.ecn_marked)])
    if args.telemetry:
        _report_telemetry(res.telemetry, args.telemetry_out)
    return code


def _run_topo(args) -> int:
    """The ``repro topo`` subcommand: validate/show/run a declarative spec."""
    from repro.experiments.store import open_store
    from repro.net.fabric import TopologySpecError, load_topology_spec

    try:
        spec = load_topology_spec(args.spec)
    except TopologySpecError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1

    if args.action == "validate":
        print(f"OK: {spec.name}: {len(spec.sites)} sites, "
              f"{len(spec.hosts())} hosts, {len(spec.switches())} switches, "
              f"{len(spec.links)} links "
              f"({len(spec.inter_region_links())} inter-region)")
        return 0

    if args.action == "show":
        site_rows = [(s.name, s.region or "-",
                      sum(1 for n in spec.nodes if n.site == s.name))
                     for s in spec.sites]
        if site_rows:
            print_table(f"{spec.name}: sites", ("site", "region", "nodes"),
                        site_rows)
        node_rows = [(n.name, n.kind, n.site or "-", n.tier)
                     for n in spec.nodes]
        print_table(f"{spec.name}: nodes", ("node", "kind", "site", "tier"),
                    node_rows)
        link_rows = [(l.label, f"{l.rate_bps / 1e9:g}G",
                      f"{l.delay_ns / 1000:g}us", l.region or "-")
                     for l in spec.links]
        print_table(f"{spec.name}: links", ("link", "rate", "delay", "tag"),
                    link_rows)
        return 0

    # action == "run"
    faults = _fault_plan_from_args(args)
    if faults is None and args.faults is not None:
        # Bare --faults: down the first inter-region backbone link by its
        # ontology name for the middle third of the run.
        backbones = spec.inter_region_links()
        if not backbones:
            print("INVALID: bare --faults needs an inter-region link to "
                  "target and the spec has none", file=sys.stderr)
            return 1
        link = backbones[0]
        horizon = args.ms * MILLIS
        faults = FaultPlan(failures=(LinkFailureSpec(
            a=link.a, b=link.b, down_ns=horizon // 3,
            up_ns=2 * horizon // 3),))
        print(f"fault plan: backbone link {link.label} down "
              f"[{horizon // 3 / 1e6:g} ms, {2 * horizon // 3 / 1e6:g} ms)")
    cfg = regional_fabric_config(
        spec, scheme=SchemeName(args.scheme), load=args.load,
        sim_time_ns=args.ms * MILLIS, seed=args.seed,
        locality_intra=None if args.locality < 0 else args.locality,
        workload=args.workload, size_scale=args.size_scale,
        deployment=args.deployment, faults=faults,
        max_events=args.max_events, max_wall_seconds=args.max_wall_seconds,
    )
    try:
        store = None if args.store == "none" else open_store(args.store)
    except ValueError as exc:  # --store names a directory
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (res,) = run_many([cfg], cache=store)
    if isinstance(res, FailedResult):
        print(f"error: {res.error}", file=sys.stderr)
        return 1
    if store is not None and store.hits:
        print(f"served from experiment cache ({store.spec})")
    elif store is not None and store.stores:
        print(f"cached result in {store.spec}")
    return _report_run(
        f"{spec.name}: {cfg.scheme.value} @ {cfg.deployment:.0%} "
        f"deployment, load {cfg.load:.0%}", res,
        [("fabric", f"{len(spec.hosts())} hosts / {len(spec.links)} links")])


def _workloads_traffic(args):
    """Build the TrafficConfig described by the workloads flags."""
    from repro.workloads.gen import SourceConfig, TrafficConfig

    main_share = 1.0 - args.incast_share - args.coflow_share
    if main_share <= 0.0:
        raise SystemExit("repro workloads: --incast-share + --coflow-share "
                         "must leave a positive share for the open-loop "
                         "source")
    request_bytes = max(1, int(args.request_kb * 1000))
    sources = [SourceConfig(
        name="bg", kind="open", sizes=args.sizes, arrivals=args.arrivals,
        locality=args.locality, load_share=main_share)]
    if args.incast_share > 0.0:
        sources.append(SourceConfig(
            name="incast", kind="incast", load_share=args.incast_share,
            request_bytes=request_bytes, role="fg"))
    if args.coflow_share > 0.0:
        sources.append(SourceConfig(
            name="jobs", kind="coflow", sizes=args.sizes,
            load_share=args.coflow_share, fanout=args.coflow_fanout,
            request_bytes=request_bytes))
    return TrafficConfig(tuple(sources))


def _workloads_sources(args, sim_time_ns: int):
    """Instantiate the composition against the stub fabric."""
    from repro.workloads.gen import build_sources, stub_groups

    groups = stub_groups(args.hosts, args.groups)
    hosts = [h for g in groups for h in g]
    try:
        return build_sources(
            _workloads_traffic(args), hosts, groups, load=args.load,
            rate_bps=args.rate_gbps * 1e9, sim_time_ns=sim_time_ns,
            size_scale=args.size_scale, default_workload=args.workload)
    except ValueError as exc:  # e.g. --load outside (0, 1]
        raise ConfigError(exc) from None


def _run_workloads(args) -> int:
    """The ``repro workloads`` subcommand: the streaming generator suite."""
    from repro.sim.rng import RngRegistry
    from repro.workloads.distributions import WORKLOADS
    from repro.workloads.gen import merge_sources, stream_digest

    if args.action == "list":
        print_table(
            "size models (--sizes)", ("spec", "meaning"),
            [("empirical[:W]", "paper CDF (W defaults to --workload)")]
            + [(name, "empirical workload CDF") for name in sorted(WORKLOADS)]
            + [("lognormal:mean_kb=60,sigma=1.5", "parametric lognormal"),
               ("pareto:min_kb=1,alpha=1.3,max_mb=100",
                "bounded heavy-tail"),
               ("bimodal:small_kb=2,large_mb=1,large_frac=0.05,sigma=0.5",
                "mice + elephants mixture")])
        print_table(
            "arrival processes (--arrivals)", ("spec", "meaning"),
            [("poisson", "memoryless (the paper's default)"),
             ("pareto:alpha=1.5", "heavy-tailed gaps, same long-run rate"),
             ("onoff:on_us=100,off_us=900",
              "Markov-modulated bursts, same long-run rate")])
        print_table(
            "pair pickers (--locality)", ("spec", "meaning"),
            [("uniform", "all-to-all (the paper's default)"),
             ("grouped:intra=0.8", "keep a fraction inside the rack/region"),
             ("matrix:intra=0.7",
              "full group x group matrix (uniform off-diagonal)")])
        print_table(
            "extra sources", ("flag", "meaning"),
            [("--incast-share F", "synchronized incast at F of the load"),
             ("--coflow-share F",
              "scatter-gather jobs; replies released on request "
              "completion")])
        return 0

    if args.action == "sweep":
        return _run_workloads_sweep(args)

    horizon = args.ms * MILLIS if args.flows is None else (1 << 62)
    sources = _workloads_sources(args, horizon)

    if args.action == "describe":
        rows = []
        for src in sources:
            arrivals = getattr(src, "arrivals", None)
            rate = arrivals.rate_per_ns if arrivals is not None else 0.0
            rows.append((src.name, src.describe(),
                         f"{rate * 1e3:.4g}/us"))
        print_table(
            f"{args.hosts} stub hosts in {args.groups} groups @ "
            f"{args.rate_gbps:g} Gbps, load {args.load:g}, "
            f"size_scale {args.size_scale:g}",
            ("source", "composition", "rate"), rows)
        return 0

    # action == "sample"
    import itertools

    stream = merge_sources(sources, RngRegistry(args.seed))
    if args.flows is not None:
        stream = itertools.islice(stream, args.flows)
    if args.show > 0:
        def _display(it, limit):
            shown = 0
            for t in it:
                if shown < limit:
                    print(f"  {t.start_ns:>12} ns  #{t.flow_id:<9} "
                          f"{t.src.id:>4} -> {t.dst.id:<4} "
                          f"{t.size_bytes:>9} B  {t.role}"
                          + (f"  +{len(t.children)} child"
                             if t.children else ""))
                    shown += 1
                yield t
        stream = _display(stream, args.show)
    tracer = None
    if args.check_memory:
        import tracemalloc
        tracemalloc.start()
        tracer = tracemalloc
    digest = stream_digest(stream)
    if tracer is not None:
        _, peak = tracer.get_traced_memory()
        tracer.stop()
        peak_mb = peak / 1e6
        budget = args.memory_budget_mb
        print(f"peak traced memory: {peak_mb:.1f} MB over {digest.flows} "
              f"flows (budget {budget:g} MB)")
        if peak_mb > budget:
            print(f"FAIL: generator exceeded the constant-memory budget",
                  file=sys.stderr)
            return 1
    if args.digest:
        print(f"flows={digest.flows} bytes={digest.total_bytes} "
              f"sha256={digest.sha256}")
    elif not args.show:
        print(f"streamed {digest.flows} flows "
              f"({digest.total_bytes / 1e6:.1f} MB offered)")
    return 0


def _run_workloads_sweep(args) -> int:
    """load x locality x burstiness grid across schemes."""
    from repro.experiments.sweep import default_sweep_config

    labels, grid = [], []
    for load in args.loads or [args.load]:
        for locality in args.localities or [args.locality]:
            for arrivals in args.arrival_grid or [args.arrivals]:
                ns = argparse.Namespace(**vars(args))
                ns.load, ns.locality, ns.arrivals = load, locality, arrivals
                traffic = _workloads_traffic(ns)
                for scheme in args.schemes:
                    labels.append((scheme, load, locality, arrivals))
                    grid.append(default_sweep_config(
                        scheme=SchemeName(scheme),
                        deployment=0.0 if scheme == "dctcp" else 1.0,
                        load=load, seed=args.seed,
                        sim_time_ns=args.ms * MILLIS,
                        size_scale=args.size_scale,
                        workload=args.workload, traffic=traffic))
    results = run_many(grid)
    rows = []
    for label, res in zip(labels, results):
        if isinstance(res, FailedResult):
            rows.append(label + ("FAILED", "-", res.error[:40]))
        else:
            rows.append(label + (f"{res.completed}/{len(res.records)}",
                                 res.fct(small=True).p99_ms,
                                 res.fct().avg_ms))
    print_table("workloads sweep",
                ("scheme", "load", "locality", "arrivals", "flows",
                 "p99 small (ms)", "avg (ms)"), rows)
    return int(any(isinstance(r, FailedResult) for r in results))


def _run_audit(args) -> int:
    """The ``repro audit`` subcommand: invariant matrix or replay cell.

    Exits nonzero on any invariant violation, aborted cell, replay
    divergence, or drift from the pinned golden digests, so CI can gate on
    it directly.
    """
    from repro.audit.matrix import golden_row, matrix_config, run_matrix
    from repro.audit.replay import format_replay_report, replay_config

    horizon_ns = args.ms * MILLIS
    if args.replay:
        scheme, topo = args.schemes[0], args.topos[0]
        cfg = matrix_config(scheme, topo, sim_time_ns=horizon_ns,
                            seed=args.seed, load=args.load)
        print(f"replay cell: {scheme} x {topo}, {args.ms} ms horizon")
        report = replay_config(cfg)
        print(format_replay_report(report))
        return 0 if report.match else 1
    cells = run_matrix(schemes=tuple(args.schemes),
                       topologies=tuple(args.topos),
                       sim_time_ns=horizon_ns, seed=args.seed,
                       load=args.load)
    rows = [
        (c.topology, c.scheme,
         "OK" if c.ok else ("ABORTED" if c.aborted else "FAIL"),
         c.checks, c.checkpoints, f"{c.completed}/{c.flows}",
         len(c.violations), c.digest[0],
         "-" if c.expected is None else ("DRIFT" if c.drifted else "MATCH"))
        for c in cells
    ]
    print_table("Invariant audit matrix",
                ("topology", "scheme", "status", "checks", "checkpoints",
                 "flows", "violations", "events", "golden digest"),
                rows)
    failed = [c for c in cells if not c.ok]
    for c in failed:
        print(f"\n{c.topology} x {c.scheme}:")
        for v in c.violations:
            print(f"  {v}")
        if c.drifted:
            print("  event digest drifted from repro.audit.matrix."
                  "GOLDEN_DIGESTS")
            print(f"  expected {golden_row(c.topology, c.scheme, c.expected)}")
            print(f"  got      {golden_row(c.topology, c.scheme, c.digest)}")
    if failed:
        print(f"\n{len(failed)}/{len(cells)} cells FAILED")
        return 1
    print(f"\nall {len(cells)} cells passed")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
