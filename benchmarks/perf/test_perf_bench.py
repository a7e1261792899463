"""Self-test of the perf observatory (``pytest benchmarks/perf``).

Outside the tier-1 ``testpaths`` on purpose: it spawns about thirty
short child processes. Everything runs at ``--smoke`` horizons, so it
checks the harness, not the simulator's speed.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()


def run_cli(*args, env=None):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=600,
                          env=env)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One full ``--smoke`` pass: results JSON path and parsed content."""
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    proc = run_cli("--smoke", "--repeats", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out, json.loads(out.read_text()), proc.stdout


def test_benchmark_json_names_this_benchmark():
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert SPEC["command"] == ["python3", "benchmarks/perf/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_smoke_pass_emits_every_metric(smoke):
    _, results, stdout = smoke
    assert results["header"]["smoke"] is True
    for key in ("commit", "python", "nproc", "engine", "credit_plane", "seed"):
        assert results["header"][key] is not None
    assert set(results["workloads"]) == set(workloads.WORKLOADS)
    for name, record in results["workloads"].items():
        for metric in SPEC["end_to_end"]:
            stat = record["end_to_end"][metric["name"]]
            assert stat["min"] <= stat["value"] <= stat["max"]
            assert stat["median"] > 0 and stat["unit"] == metric["unit"]
        for metric in SPEC["per_layer"]:
            assert record["per_layer"][metric["name"]] is not None, \
                (name, metric["name"])
            # layer rows print "<layer>  self_s  share  calls" on one line
            layer, _, field = metric["name"].rpartition(".")
            shown = layer if field in ("self_s", "share", "calls") \
                and layer in layers.LAYERS else metric["name"]
            assert shown in stdout, metric["name"]
        assert record["failed_share"]["value"] == 0.0
        assert len(record["sim_digest"]) == 64
    sweep = results["workloads"]["fig10_sweep"]["per_layer"]
    assert sweep["experiments.result_bytes"] > 0
    assert sweep["experiments.warm_sweep_s"] > 0


def test_digests_stable_across_repeats_and_tracing(smoke):
    # two untraced repeats plus the traced run fed these flags
    for record in smoke[1]["workloads"].values():
        assert record["failed_share"]["attempted"] == 3 * record["cells"]
        assert record["digests_equal"] and record["counts_identical"]


def test_dctcp_fabric_bypasses_the_credit_layers(smoke):
    per_layer = smoke[1]["workloads"]["dctcp_fabric"]["per_layer"]
    assert per_layer["credit_plane.calls"] == 0
    assert per_layer["core.calls"] == 0
    assert per_layer["transports.calls"] > 0


def test_layer_shares_sum_to_100_with_nothing_unmapped(smoke):
    for record in smoke[1]["workloads"].values():
        total = sum(record["per_layer"][f"{layer}.share"]
                    for layer in layers.LAYERS)
        assert abs(total - 100.0) <= 0.5
        assert record["unmapped"] == {}


def test_every_source_file_maps_to_one_layer():
    pkg_root = str(ROOT / "src" / "repro")
    for dirpath, _dirs, files in os.walk(pkg_root):
        for filename in files:
            if filename.endswith(".py"):
                module = layers.module_of(os.path.join(dirpath, filename),
                                          pkg_root)
                assert layers.layer_of_module(module) in layers.LAYERS, module
    assert layers.layer_of_module("net/brand_new") == "unmapped"
    assert layers.module_of("/usr/lib/python3/heapq.py", pkg_root) == ""


def test_aborted_cell_counts_as_failed():
    cfg = workloads.build_configs("dctcp_fabric", seed=1, smoke=True)[0]
    body = child.measure_body("dctcp_fabric", [cfg.with_(max_events=1000)])
    assert body["failed_cells"] == 1 and "aborted" in body["failures"][0]
    record = run.summarise("dctcp_fabric", SPEC, [], [body], None, None)
    assert record["failed_share"]["value"] > 0


def test_digest_drift_between_runs_counts_as_failed():
    cfg = workloads.build_configs("dctcp_fabric", seed=1, smoke=True)
    body = child.measure_body("dctcp_fabric", cfg)
    assert body["failed_cells"] == 0
    drifted = dict(body, sim_digest="0" * 64)
    record = run.summarise("dctcp_fabric", SPEC, [], [body, drifted],
                           None, None)
    assert not record["digests_equal"]
    assert record["failed_share"]["failed"] == 1


def test_driver_contract_lines():
    """``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
    per-layer ones, as one JSON object on the last line; ``REPRO_*`` is
    scrubbed with a warning."""
    env = dict(os.environ, REPRO_BENCH_MS="1")
    for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = run_cli("--smoke", "--workload", "stream_audit", "--seed", "7",
                       "--seconds", "1", "--trace", str(trace), env=env)
        assert proc.returncode == 0, proc.stderr
        assert "scrubbed REPRO_BENCH_MS" in proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in wanted}
        for metric in wanted:
            got = line["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))


def test_compare_verdicts(smoke, tmp_path):
    path, results, _ = smoke
    assert run_cli("--compare", str(path), str(path)).returncode == 2

    base = copy.deepcopy(results)
    base["header"]["smoke"] = False
    slow = copy.deepcopy(base)
    stat = slow["workloads"]["dctcp_fabric"]["end_to_end"]["wall_s"]
    for key in ("value", "median", "min", "max"):
        stat[key] *= 2.0
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(slow))

    same = run_cli("--compare", str(a), str(a))
    assert same.returncode == 0, same.stdout
    assert "worse" not in same.stdout and "DIFFERS" not in same.stdout
    worse = run_cli("--compare", str(a), str(b))
    assert worse.returncode == 1
    row = [l for l in worse.stdout.splitlines()
           if l.startswith("dctcp_fabric") and " wall_s " in l]
    assert row and row[0].rstrip().endswith("worse")
    better = run_cli("--compare", str(b), str(a))
    assert better.returncode == 0 and "better" in better.stdout
