"""Durable sweep fabric overhead (not a paper figure).

The fabric adds a row per cell in the store's ``cells`` table (lease,
heartbeats and verdict as SQL statements) on top of the plain
``run_many`` pool. That robustness must stay cheap: this bench runs the
same tiny Clos grid through both paths and bounds the wall-clock ratio,
and checks that a second ``run()`` over a complete sweep is pure store
reads — no simulation.

The assertion is a loose guard against the fabric becoming accidentally
serial or its bookkeeping becoming a hot-path write storm — not a tight
perf gate, since the grid is tiny and the cell wall time dominates.
"""

import time

import pytest

from repro.experiments.config import ExperimentConfig, SchemeName
from repro.experiments.fabric import FabricConfig, SweepFabric
from repro.experiments.parallel import FailedResult, run_many

N_CELLS = 8


def _grid():
    return [
        ExperimentConfig(scheme=SchemeName.DCTCP, sim_time_ns=1_000_000,
                         load=0.3, seed=seed)
        for seed in range(1, N_CELLS + 1)
    ]


@pytest.mark.slow
def test_bench_fabric_overhead(benchmark, tmp_path):
    def run():
        # Plain pool path: the baseline every figure sweep uses.
        t0 = time.perf_counter()
        plain = run_many(_grid())
        plain_s = time.perf_counter() - t0
        assert not any(isinstance(r, FailedResult) for r in plain)

        # Fabric path: cell rows + leases + SQLite store, cold.
        fabric = SweepFabric(tmp_path / "journal",
                             store=f"sqlite:{tmp_path}/results.db",
                             config=FabricConfig(heartbeat_s=1.0))
        t0 = time.perf_counter()
        durable = fabric.run(_grid())
        fabric_s = time.perf_counter() - t0
        assert fabric.last_report.status == "complete"
        assert fabric.last_report.executed == N_CELLS

        # Resume over a complete sweep: store reads only.
        resumed = SweepFabric(tmp_path / "journal")
        resumed.run()
        assert resumed.last_report.executed == 0

        for a, b in zip(plain, durable):
            assert a.records == b.records
        return fabric_s / plain_s

    ratio = benchmark.pedantic(run, rounds=1, iterations=1)
    # Durability should cost a bounded constant factor on even a tiny
    # grid (where per-cell wall time least amortizes the fixed costs).
    assert ratio < 3.0, f"fabric overhead ratio {ratio:.2f} too high"
