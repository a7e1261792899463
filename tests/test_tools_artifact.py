"""Tests for the artifact-style tools (run_simulations / generate_figure)."""

import csv
import importlib.util
import os
import subprocess
import sys

import pytest

from repro.experiments.parallel import run_many
from repro.experiments.sweep import default_sweep_config
from repro.sim.units import MILLIS

from tests.util import cell, tiny_cfg

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool(name):
    path = os.path.join(REPO, "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestParallelRunner:
    def test_serial_path(self):
        results = run_many([tiny_cfg(seed=0), tiny_cfg(seed=1)], processes=1)
        assert len(results) == 2
        assert all(r.completed > 0 for r in results)

    def test_results_match_direct_execution(self):
        cfg = tiny_cfg(seed=0)
        direct = cell(cfg)
        pooled = run_many([cfg], processes=1)[0]
        assert [(r.flow_id, r.fct_ns) for r in direct.records] == \
               [(r.flow_id, r.fct_ns) for r in pooled.records]


class TestArtifactGrid:
    def test_grid_covers_all_experiments(self):
        tool = _load_tool("run_simulations")
        base = default_sweep_config()
        grid = tool.build_grid(base)
        ids = [eid for eid, _ in grid]
        assert len(ids) == len(set(ids))
        # E1: 4 schemes x 4 nonzero points + 1 shared baseline
        assert sum(1 for i in ids if i.startswith("e1_")) == 17
        # E2: 2 schemes x 4 points + baseline
        assert sum(1 for i in ids if i.startswith("e2_")) == 9
        # E3: 3 loads x (2 schemes x 4 points + baseline)
        assert sum(1 for i in ids if i.startswith("e3_")) == 27

    def test_end_to_end_artifact_flow(self, tmp_path):
        """run_simulations writes a cell's FCT CSV and generate_figure
        turns it into a fig10 row carrying the run's own metrics."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        out = tmp_path / "results"
        run = subprocess.run(
            [sys.executable, os.path.join(REPO, "tools", "run_simulations.py"),
             "--out", str(out), "--ms", "1", "--size-scale", "16",
             "--only", "e1_flexpass_100", "e1_dctcp_000"],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert run.returncode == 0, run.stderr
        assert (out / "index.csv").exists()
        assert (out / "fct_e1_flexpass_100.csv").exists()
        with open(out / "fct_e1_flexpass_100.csv") as f:
            rows = list(csv.DictReader(f))
        assert rows and all("fct_ns" in r for r in rows)

        gen = subprocess.run(
            [sys.executable, os.path.join(REPO, "tools", "generate_figure.py"),
             "--results", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert gen.returncode == 0, gen.stderr
        assert (out / "fig10.csv").exists()
        assert "fig10" in gen.stdout

        # The tool's metrics are the run's: same summarize, same cutoff.
        from repro.experiments.sweep import SweepCell

        grid = dict(_load_tool("run_simulations").build_grid(
            default_sweep_config(sim_time_ns=1 * MILLIS, size_scale=16.0)))
        want = SweepCell.from_result(cell(grid["e1_flexpass_100"]))
        with open(out / "fig10.csv") as f:
            fig10 = list(csv.DictReader(f))
        (row,) = [r for r in fig10 if r["scheme"] == "flexpass"]
        assert float(row["p99_small_ms"]) == want.p99_small_ms
        assert int(row["censored"]) == want.censored


def test_generate_figure_reports_a_failed_cell(tmp_path, monkeypatch, capsys):
    """A cell that raised has an ``index.csv`` row with ``wall_s=FAILED``
    and no ``fct_<id>.csv``: its metrics print as FAILED and the other
    cells are still summarised."""
    with open(tmp_path / "index.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["experiment", "scheme", "deployment", "load", "workload",
                    "small_cutoff_bytes", "flows", "completed", "wall_s"])
        w.writerow(["e1_dctcp_000", "dctcp", 0.0, 0.5, "websearch", 100000,
                    2, 2, "1.0"])
        w.writerow(["e1_flexpass_050", "flexpass", 0.5, 0.5, "websearch",
                    100000, 0, 0, "FAILED"])
    with open(tmp_path / "fct_e1_dctcp_000.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["flow_id", "scheme", "group", "role", "size_bytes",
                    "start_ns", "fct_ns", "timeouts", "retransmissions"])
        w.writerow([0, "dctcp", "legacy", "bg", 5000, 0, 1_000_000, 0, 0])
        w.writerow([1, "dctcp", "legacy", "bg", 9000, 10, 3_000_000, 0, 0])

    monkeypatch.setattr(sys, "argv", ["generate_figure.py",
                                      "--results", str(tmp_path)])
    assert _load_tool("generate_figure").main() == 0

    with open(tmp_path / "fig10.csv") as f:
        fig10 = {r["scheme"]: r for r in csv.DictReader(f)}
    assert float(fig10["dctcp"]["avg_ms"]) == 2.0
    assert fig10["flexpass"]["p99_small_ms"] == "FAILED"
    assert fig10["flexpass"]["avg_ms"] == "FAILED"
    assert fig10["flexpass"]["censored"] == "FAILED"
    assert "FAILED" in capsys.readouterr().out
