"""Figure 13: FCT standard deviation (predictability) by traffic group.

Paper: naïve deployment increases legacy small-flow FCT stddev by 127%,
drastically reducing predictability; FlexPass keeps the increase to 19%.
"""

from repro.experiments.config import SchemeName
from repro.experiments.sweep import deployment_sweep, fig13_rows
from repro.metrics.summary import print_table

from benchmarks.common import BENCH_DEPLOYMENTS, bench_config_large, run_once


def test_bench_fig13(benchmark):
    grid = run_once(
        benchmark, deployment_sweep, bench_config_large(),
        (SchemeName.NAIVE, SchemeName.FLEXPASS), BENCH_DEPLOYMENTS,
    )
    print_table(
        "Figure 13: FCT stddev by group (legacy vs upgraded)",
        ("scheme", "deployed", "legacy stddev (ms)", "upgraded stddev (ms)"),
        fig13_rows(grid),
    )
    # Shape: mid-transition, legacy-flow FCT variance under naïve deployment
    # exceeds that under FlexPass.
    assert grid[("naive", 0.5)].stddev_small_legacy_ms > \
        grid[("flexpass", 0.5)].stddev_small_legacy_ms
