#!/usr/bin/env python3
"""Run the paper's full simulation grid and store raw results (Appendix B).

Mirrors the artifact's ``run_simulations.py``: enumerates every simulation
behind Figures 10-14 (deployment % x scheme, mixed traffic, load sweep),
runs them — parallelized across CPUs — and writes one ``fct_<id>.csv`` per
experiment into the results directory, plus an ``index.csv`` mapping
experiment ids to parameters.

    python tools/run_simulations.py --out results/ [--ms 10] [--paper-scale]

Long campaigns should run through the durable sweep fabric (DESIGN.md
§6g): ``--store sqlite:PATH`` keeps every result, and the state of every
cell, in one SQLite file (the sweep directory ``<out>/sweep-journal``
points to it) with per-cell leases and bounded retries; a re-run over the
same store simulates only what it does not hold, and ``--resume``
continues a killed or partial run without recomputing any stored cell::

    python tools/run_simulations.py --out results/ --store sqlite:results/sweep.db
    # ... kill -9, power loss, OOM ...
    python tools/run_simulations.py --out results/ --resume

``tools/generate_figure.py`` consumes the output.
"""

import argparse
import csv
import os
import sys
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.audit import AuditConfig  # noqa: E402
from repro.experiments.config import ExperimentConfig, SchemeName  # noqa: E402
from repro.experiments.parallel import FailedResult, run_many  # noqa: E402
from repro.experiments.scenarios import paper_scale_config  # noqa: E402
from repro.experiments.sweep import (  # noqa: E402
    default_sweep_config,
    deployment_grid,
)
from repro.metrics.telemetry_config import TelemetryConfig  # noqa: E402
from repro.net import load_topology_spec  # noqa: E402
from repro.sim.units import MILLIS  # noqa: E402
from repro.workloads import TrafficConfig  # noqa: E402

DEPLOYMENTS = (0.0, 0.25, 0.5, 0.75, 1.0)
SCHEMES = (SchemeName.DCTCP, SchemeName.NAIVE, SchemeName.OWF,
           SchemeName.LAYERING, SchemeName.FLEXPASS)


def build_grid(base: ExperimentConfig) -> List[Tuple[str, ExperimentConfig]]:
    """(experiment id, config) for every simulation in Figures 10-14.

    Each family is a ``deployment_grid``; its 0% cell is the same pure-DCTCP
    config for every scheme, so it gets one id and runs once.
    """
    transition = (SchemeName.NAIVE, SchemeName.FLEXPASS)
    families = [
        # E1: background-only transition (Figures 10, 12, 13)
        ("e1", "", base, [s for s in SCHEMES if s != SchemeName.DCTCP]),
        # E2: mixed traffic (Figure 11): 10% of bytes are foreground incast
        ("e2", "", base.with_(
            traffic=TrafficConfig.paper(foreground_fraction=0.1)), transition),
    ] + [
        # E3: load sweep (Figure 14)
        ("e3", f"l{int(load * 100):02d}_", base.with_(load=load), transition)
        for load in (0.1, 0.4, 0.7)
    ]
    grid: Dict[str, ExperimentConfig] = {}
    for family, tag, family_base, schemes in families:
        for cfg in deployment_grid(family_base, schemes, DEPLOYMENTS):
            grid.setdefault(f"{family}_{cfg.scheme.value}_{tag}"
                            f"{int(cfg.deployment * 100):03d}", cfg)
    return list(grid.items())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--ms", type=int, default=10)
    parser.add_argument("--load", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size-scale", type=float, default=8.0)
    parser.add_argument("--processes", type=int, default=None)
    parser.add_argument("--store", metavar="SPEC", default=None,
                        help="run through the durable sweep fabric with "
                             "this result store (sqlite:PATH or a file "
                             "path); re-runs simulate only what it lacks, "
                             "and survive kill -9 via --resume")
    parser.add_argument("--resume", action="store_true",
                        help="resume the durable sweep in <out> (implies "
                             "the fabric path; grid flags must match the "
                             "original run)")
    parser.add_argument("--journal", metavar="DIR", default=None,
                        help="durable sweep directory "
                             "(default: <out>/sweep-journal)")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="extra attempts per failing config")
    parser.add_argument("--paper-scale", action="store_true")
    parser.add_argument("--topo-spec", metavar="PATH", default=None,
                        help="run the grid over a declarative topology spec "
                             "(YAML/JSON file or CSV directory) instead of "
                             "the default Clos; see repro.net.fabric")
    parser.add_argument("--only", nargs="*", default=None,
                        help="run only experiment ids with these prefixes")
    parser.add_argument("--telemetry", action="store_true",
                        help="sample time-series per experiment and write "
                             "telemetry_<id>.csv/.json beside the FCT files")
    parser.add_argument("--audit", action="store_true",
                        help="check conservation invariants during every "
                             "experiment; violations fail the run")
    args = parser.parse_args()

    overrides = dict(load=args.load, sim_time_ns=args.ms * MILLIS,
                     seed=args.seed)
    if args.topo_spec:
        overrides["topology_spec"] = load_topology_spec(args.topo_spec)
    if args.telemetry:
        overrides["telemetry"] = TelemetryConfig()
    if args.audit:
        overrides["audit"] = AuditConfig()
    base = (paper_scale_config(**overrides) if args.paper_scale
            else default_sweep_config(size_scale=args.size_scale, **overrides))

    grid = build_grid(base)
    if args.only:
        grid = [(eid, cfg) for eid, cfg in grid
                if any(eid.startswith(p) for p in args.only)]
    os.makedirs(args.out, exist_ok=True)
    n_hosts = (len(base.topology_spec.hosts()) if base.topology_spec
               else base.clos.n_hosts)
    print(f"running {len(grid)} simulations "
          f"({n_hosts} hosts, {args.ms} ms each) ...")

    configs = [cfg for _, cfg in grid]
    if args.store or args.resume:
        from repro.experiments.fabric import FabricConfig, SweepFabric

        journal_dir = args.journal or os.path.join(args.out, "sweep-journal")
        fabric = SweepFabric(
            journal_dir, store=args.store,
            config=FabricConfig(processes=args.processes,
                                max_retries=args.max_retries))
        results = fabric.run(configs)
        report = fabric.last_report
        print(f"sweep {report.sweep_id} {report.status}: "
              f"{report.completed}/{report.total} cells, "
              f"{report.executed} simulated, {report.store_hits} store "
              f"hits, {report.retries} retries "
              f"(report: {fabric.report_path})")
    else:
        results = run_many(configs, processes=args.processes,
                           max_retries=args.max_retries)

    index_rows = []
    audit_failures: List[str] = []
    for (eid, cfg), res in zip(grid, results):
        if isinstance(res, FailedResult):
            # One broken experiment must not lose the other results.
            index_rows.append([eid, cfg.scheme.value, cfg.deployment,
                               cfg.load, cfg.workload,
                               cfg.scaled_cutoff_bytes(), 0, 0, "FAILED"])
            print(f"  {eid}: FAILED ({res.error})")
            continue
        path = os.path.join(args.out, f"fct_{eid}.csv")
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["flow_id", "scheme", "group", "role", "size_bytes",
                        "start_ns", "fct_ns", "timeouts", "retransmissions"])
            for r in res.records:
                w.writerow([r.flow_id, r.scheme, r.group, r.role,
                            r.size_bytes, r.start_ns, r.fct_ns, r.timeouts,
                            r.retransmissions])
        if res.telemetry is not None:
            res.telemetry.write_csv(
                os.path.join(args.out, f"telemetry_{eid}.csv"))
            res.telemetry.write_json(
                os.path.join(args.out, f"telemetry_{eid}.json"))
        index_rows.append([eid, cfg.scheme.value, cfg.deployment, cfg.load,
                           cfg.workload, cfg.scaled_cutoff_bytes(),
                           len(res.records), res.completed,
                           f"{res.wall_seconds:.1f}"])
        print(f"  {eid}: {res.completed}/{len(res.records)} flows, "
              f"{res.wall_seconds:.1f}s")
        if res.audit is not None and not res.audit.ok:
            audit_failures.append(eid)
            for v in res.audit.violations:
                print(f"    AUDIT: {v}")

    with open(os.path.join(args.out, "index.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["experiment", "scheme", "deployment", "load",
                    "workload", "small_cutoff_bytes", "flows", "completed",
                    "wall_s"])
        w.writerows(index_rows)
    print(f"wrote {len(grid)} result files + index.csv to {args.out}/")
    if audit_failures:
        print(f"AUDIT FAILED for {len(audit_failures)} experiment(s): "
              + ", ".join(audit_failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
