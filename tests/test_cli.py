"""Tests for the command-line interface."""

import os
import pathlib
import sys

import pytest

from repro.cli import FIGURES, build_parser, main
from repro.experiments.scenarios import paper_scale_config
from repro.sim.units import MILLIS


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out

    def test_list_into_a_closed_pipe_ends_quietly(self, monkeypatch, capsys):
        """``repro list | head -1``: once the reader has gone, writing to
        stdout raises BrokenPipeError; ``main`` points stdout at devnull
        and returns 1, printing no traceback."""
        read, write = os.pipe()
        os.close(read)
        stdout = open(write, "w", buffering=1)
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            assert main(["list"]) == 1
            print("nobody reads this")  # devnull takes it
        finally:
            stdout.close()
        assert capsys.readouterr().err == ""

    def test_figure_requires_known_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.load == 0.5
        assert args.deployments == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_run_scheme_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "bogus"])

    @pytest.mark.parametrize("flags,hosts", [
        ([], None), (["--paper-scale"], 192), (["--paper-scale", "48"], 48),
    ])
    def test_run_paper_scale_hosts(self, flags, hosts):
        assert build_parser().parse_args(["run"] + flags).paper_scale == hosts

    def test_topo_run_keeps_its_own_horizon(self):
        topo = build_parser().parse_args(["topo", "run", "spec.yaml"])
        run = build_parser().parse_args(["run"])
        assert (topo.ms, run.ms) == (2, 10)
        assert (topo.scheme, topo.load) == (run.scheme, run.load)


class TestPaperScale:
    """``run --paper-scale HOSTS`` is ``paper_scale_config``: the one
    spelling of the §6.2 Clos point."""

    @pytest.mark.parametrize("hosts", [24, 48])
    def test_run_builds_paper_scale_config(self, monkeypatch, hosts):
        built = []

        class Built(Exception):
            pass

        def capture(cfg):
            built.append(cfg)
            raise Built

        monkeypatch.setattr("repro.cli.run_experiment", capture)
        with pytest.raises(Built):
            main(["run", "--paper-scale", str(hosts), "--load", "1.0",
                  "--ms", "1"])
        want = paper_scale_config(hosts=hosts, load=1.0, sim_time_ns=MILLIS)
        (cfg,) = built
        assert cfg.telemetry is not None  # the Q1 rows' port series
        assert cfg.with_(telemetry=want.telemetry) == want


class TestExecution:
    def test_run_command_prints_metrics(self, capsys):
        rc = main(["run", "--scheme", "flexpass", "--deployment", "1.0",
                   "--ms", "1", "--size-scale", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p99 small FCT" in out
        assert "flexpass @ 100%" in out

    def test_watchdog_abort_exits_1(self, capsys):
        """An aborted run is not a result: ``run`` exits 1 like ``topo
        run`` and still prints what it measured before the abort."""
        rc = main(["run", "--ms", "1", "--size-scale", "32",
                   "--max-events", "2000"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "aborted" in out and "max_events=2000" in out

    def test_sweep_command(self, capsys):
        rc = main(["sweep", "--schemes", "flexpass", "--deployments", "0", "1",
                   "--ms", "1", "--size-scale", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Deployment sweep" in out
        assert "flexpass" in out

    @pytest.mark.parametrize("flags,endpoints,reason", [
        (["--fault-link-down", "nosuch", "tor0.0", "0.2"],
         "nosuch <-> tor0.0", "unknown node 'nosuch'"),
        (["--fault-link-down", "h0.0.0", "h0.0.1", "0.2"],
         "h0.0.0 <-> h0.0.1", "no cable between them"),
        (["--faults", "links=nosuch*,rate=0.1"],
         "'nosuch*'", "matches no link"),
    ])
    def test_misaddressed_fault_plan_is_a_one_line_error(
            self, capsys, flags, endpoints, reason):
        assert main(["run", "--ms", "1", "--size-scale", "32"] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert endpoints in err and reason in err

    @pytest.mark.parametrize("argv,reason", [
        pytest.param(["run", "--paper-scale", "7", "--ms", "1"],
                     "hosts must be a positive multiple of 24",
                     id="run-paper-scale-7"),
        pytest.param(["figure", "fig08", "--ms", "3"],
                     "figure fig08 replays a fixed testbed scenario; it "
                     "takes no --ms", id="testbed-figure-ms"),
        pytest.param(["run", "--scheme", "flexpass", "--ms", "1",
                      "--load", "0"],
                     "load must be in (0,1], got 0.0", id="run-load-0"),
        pytest.param(["run", "--scheme", "flexpass", "--ms", "1",
                      "--load", "1.5"],
                     "load must be in (0,1], got 1.5", id="run-load-1.5"),
        pytest.param(["audit", "--schemes", "flexpass", "--topos",
                      "dumbbell", "--load", "0"],
                     "load must be in (0,1], got 0.0", id="audit-load-0"),
        pytest.param(["workloads", "describe", "--load", "0"],
                     "load must be in (0,1], got 0.0", id="workloads-load-0"),
    ])
    def test_bad_config_flag_is_a_one_line_error(self, capsys, argv, reason):
        """A flag value no config can be built from is reported before
        anything runs, not as a traceback from inside the run."""
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and reason in captured.err


EXAMPLE_SPEC = str(pathlib.Path(__file__).resolve().parents[1] /
                   "examples" / "regional_fabric.yaml")


class TestTopoCommand:
    def test_validate(self, capsys):
        assert main(["topo", "validate", EXAMPLE_SPEC]) == 0
        out = capsys.readouterr().out
        assert "OK: regional-fabric" in out
        assert "2 inter-region" in out

    def test_validate_rejects_bad_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "name: broken\n"
            "nodes:\n  - {name: a, kind: host}\n  - {name: b, kind: switch}\n"
            "links:\n  - {a: a, b: ghost, rate: 1G, delay: 1us}\n")
        assert main(["topo", "validate", str(bad)]) == 1
        assert "unknown endpoint 'ghost'" in capsys.readouterr().err

    def test_show(self, capsys):
        assert main(["topo", "show", EXAMPLE_SPEC]) == 0
        out = capsys.readouterr().out
        assert "CORE-SYD-01" in out
        assert "wan" in out

    def test_run_with_auto_backbone_fault_and_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.db")
        argv = ["topo", "run", EXAMPLE_SPEC, "--scheme", "flexpass",
                "--faults", "--ms", "1", "--size-scale", "32",
                "--store", cache]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "backbone link CORE-SYD-01<->CORE-MEL-01 down" in first
        assert "reroutes" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "served from experiment cache" in second

    def test_run_fault_site(self, capsys):
        argv = ["topo", "run", EXAMPLE_SPEC, "--ms", "1",
                "--size-scale", "32", "--store", "none",
                "--fault-site", "DC-MEL-01", "0.3", "0.6"]
        assert main(argv) == 0
        assert "reroutes" in capsys.readouterr().out


class TestWorkloadsCommand:
    def test_list_prints_grammar(self, capsys):
        assert main(["workloads", "list"]) == 0
        out = capsys.readouterr().out
        for kind in ("lognormal", "pareto", "bimodal", "onoff", "matrix"):
            assert kind in out

    def test_describe_reports_rates(self, capsys):
        rc = main(["workloads", "describe", "--incast-share", "0.2",
                   "--coflow-share", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bg" in out and "incast" in out and "jobs" in out

    def test_sample_digest_deterministic(self, capsys):
        argv = ["workloads", "sample", "--flows", "400", "--digest",
                "--seed", "5", "--locality", "grouped:intra=0.8"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "sha256=" in first and "flows=400" in first

    def test_sample_show_prints_specs(self, capsys):
        rc = main(["workloads", "sample", "--flows", "20", "--show", "5",
                   "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bg" in out

    def test_sample_memory_budget_passes(self, capsys):
        rc = main(["workloads", "sample", "--flows", "5000",
                   "--check-memory", "--memory-budget-mb", "32",
                   "--seed", "2"])
        assert rc == 0
        assert "peak" in capsys.readouterr().out

    def test_incast_and_coflow_shares_must_leave_bg_room(self):
        with pytest.raises(SystemExit):
            main(["workloads", "describe", "--incast-share", "0.7",
                  "--coflow-share", "0.5"])


class TestLoadValidation:
    """``load`` is checked where a config is built, so every subcommand
    that builds one refuses an impossible load before any sweep
    directory or store file exists."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["sweep", "--loads", "0", "--ms", "1", "--schemes",
                      "flexpass", "--deployments", "1.0"],
                     id="sweep-loads-0"),
        pytest.param(["sweep", "start", "--journal", "j", "--loads", "0",
                      "--ms", "1", "--schemes", "flexpass",
                      "--deployments", "1.0"],
                     id="sweep-start-loads-0"),
        pytest.param(["topo", "run", EXAMPLE_SPEC, "--load", "0", "--ms",
                      "1"],
                     id="topo-run-load-0"),
    ])
    def test_bad_load_creates_nothing(self, tmp_path, monkeypatch, capsys,
                                      argv):
        monkeypatch.chdir(tmp_path)  # where the default store would go
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: load must be in (0,1], got 0.0\n"
        assert list(tmp_path.iterdir()) == []

    def test_config_refuses_bad_load(self):
        from repro.experiments.config import ConfigError, ExperimentConfig

        for load in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigError, match="load must be in"):
                ExperimentConfig(load=load)
        with pytest.raises(ValueError):
            ExperimentConfig().with_(load=0.0)
