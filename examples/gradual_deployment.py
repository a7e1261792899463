#!/usr/bin/env python3
"""Gradual deployment on a Clos fabric (the paper's §6.2 scenario).

Sweeps the fraction of FlexPass-enabled racks from 0% to 100% under a web-
search workload and prints the tail/average FCT per deployment point, for
both the naïve ExpressPass rollout and FlexPass — the core incremental-
benefit comparison behind Figures 10 and 12.

Run:  python examples/gradual_deployment.py [--load 0.5] [--ms 10] [--paper-scale]

``--paper-scale`` uses the full 192-host 40G topology and unscaled flow
sizes; expect a long run in pure Python.
"""

import argparse

from repro.experiments.config import SchemeName
from repro.experiments.sweep import (
    default_sweep_config,
    deployment_sweep,
    fig10_rows,
    fig12_rows,
)
from repro.experiments.scenarios import paper_scale_config
from repro.metrics.summary import print_table
from repro.sim.units import MILLIS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--load", type=float, default=0.5)
    parser.add_argument("--ms", type=int, default=10, help="simulated time")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--paper-scale", action="store_true")
    args = parser.parse_args()

    overrides = dict(load=args.load, sim_time_ns=args.ms * MILLIS, seed=args.seed)
    base = (paper_scale_config(**overrides) if args.paper_scale
            else default_sweep_config(**overrides))

    schemes = (SchemeName.NAIVE, SchemeName.FLEXPASS)
    deployments = (0.0, 0.25, 0.5, 0.75, 1.0)
    print(f"Sweeping {len(schemes)} schemes x {len(deployments)} deployment "
          f"points on a {base.clos.n_hosts}-host Clos at load {base.load} ...")
    grid = deployment_sweep(base, schemes, deployments)

    print_table(
        "Figure 10: FCT during the transition (lower is better)",
        ("scheme", "deployed", "p99 small FCT (ms)", "avg FCT (ms)", "censored"),
        fig10_rows(grid),
    )
    print_table(
        "Figure 12: tail FCT by traffic group",
        ("scheme", "deployed", "legacy p99 (ms)", "upgraded p99 (ms)"),
        fig12_rows(grid),
    )

    base_cell = grid[("flexpass", 0.0)]
    full_cell = grid[("flexpass", 1.0)]
    if full_cell.p99_small_ms < base_cell.p99_small_ms:
        gain = 1 - full_cell.p99_small_ms / base_cell.p99_small_ms
        print(f"\nFlexPass at full deployment improves the 99th-percentile "
              f"small-flow FCT by {gain:.0%} over the all-DCTCP baseline "
              f"(paper: up to 44%).")


if __name__ == "__main__":
    main()
