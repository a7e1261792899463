"""Figure 10: FCT during the transition from DCTCP to the new transport.

Paper: naïve deployment inflates tail FCT up to 72% mid-transition while
FlexPass tracks the oracle WFQ, ends up to 44% below the baseline at full
deployment, and keeps the overall average FCT low throughout.
"""

from repro.experiments.config import SchemeName
from repro.experiments.sweep import deployment_sweep, fig10_rows
from repro.metrics.summary import print_table

from benchmarks.common import BENCH_DEPLOYMENTS, bench_config_large, run_once


def test_bench_fig10(benchmark):
    base = bench_config_large()
    grid = run_once(
        benchmark, deployment_sweep, base,
        (SchemeName.NAIVE, SchemeName.OWF, SchemeName.LAYERING,
         SchemeName.FLEXPASS),
        BENCH_DEPLOYMENTS,
    )
    print_table(
        "Figure 10: 99p small-flow FCT and overall average FCT",
        ("scheme", "deployed", "p99 small (ms)", "avg (ms)", "censored"),
        fig10_rows(grid),
    )
    baseline = grid[("flexpass", 0.0)]
    # Shape 1: naïve deployment hurts tail FCT mid-transition far more than
    # FlexPass does.
    assert grid[("naive", 0.5)].p99_small_ms > \
        grid[("flexpass", 0.5)].p99_small_ms
    # Shape 2: FlexPass at full deployment beats the all-DCTCP baseline.
    assert grid[("flexpass", 1.0)].p99_small_ms < baseline.p99_small_ms
    # Shape 3: FlexPass never blows up the overall average during the
    # transition (paper: "nearly no harm"); naïve does.
    assert grid[("flexpass", 0.5)].avg_all_ms < baseline.avg_all_ms * 1.5
    assert grid[("naive", 0.5)].avg_all_ms > \
        grid[("flexpass", 0.5)].avg_all_ms
    # Shape 4: layering's window needlessly gates credit-released packets,
    # wasting bandwidth — its overall average FCT at full deployment is
    # clearly worse than FlexPass's (the paper's §6.2 criticism of LY).
    assert grid[("flexpass", 1.0)].avg_all_ms < \
        grid[("ly", 1.0)].avg_all_ms
