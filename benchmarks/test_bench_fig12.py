"""Figure 12: 99p small-flow FCT split by traffic group during the transition.

Paper: naïve ExpressPass inflates legacy tail FCT up to 87%; FlexPass's
legacy harm is minimal while its upgraded traffic improves by up to 44%.
"""

from repro.experiments.config import SchemeName
from repro.experiments.sweep import deployment_sweep, fig12_rows
from repro.metrics.summary import print_table

from benchmarks.common import BENCH_DEPLOYMENTS, bench_config_large, run_once


def test_bench_fig12(benchmark):
    # Twice the default window: the naïve scheme's legacy harm arrives in
    # bursts (DCTCP backoff spirals), so short windows under-sample it.
    from benchmarks.common import BENCH_MS
    from repro.sim.units import MILLIS

    base = bench_config_large(sim_time_ns=2 * BENCH_MS * MILLIS)
    grid = run_once(
        benchmark, deployment_sweep, base,
        (SchemeName.NAIVE, SchemeName.FLEXPASS), BENCH_DEPLOYMENTS,
    )
    print_table(
        "Figure 12: tail FCT by group (legacy vs upgraded)",
        ("scheme", "deployed", "legacy p99 (ms)", "upgraded p99 (ms)"),
        fig12_rows(grid),
    )
    baseline = grid[("flexpass", 0.0)].p99_small_ms
    # Shape 1: mid-transition, naïve deployment harms legacy traffic far
    # more than FlexPass does.
    assert grid[("naive", 0.5)].p99_small_legacy_ms > \
        grid[("flexpass", 0.5)].p99_small_legacy_ms
    # Shape 2: FlexPass-upgraded traffic at full deployment beats the
    # legacy baseline (the paper's headline 44% improvement).
    assert grid[("flexpass", 1.0)].p99_small_new_ms < baseline
    # Shape 3: upgraded traffic already benefits mid-transition — "traffic
    # converted to FlexPass benefits ... even under the co-existence".
    assert grid[("flexpass", 0.5)].p99_small_new_ms < baseline
