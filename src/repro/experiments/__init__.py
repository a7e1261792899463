"""Experiment harness: scheme wiring, runners, and per-figure reproductions.

This package's stable public API is what ``__all__`` lists below — configure
an :class:`ExperimentConfig` (with an optional :class:`TelemetryConfig`),
run it with :func:`run_experiment` or fan out with :func:`run_many`, and
read the :class:`ExperimentResult` (including its packed
:class:`TelemetrySeries`). Scheme wiring for custom topologies goes through
:func:`make_scheme_setup`. Results persist in a :class:`ResultStore` (one
SQLite file, opened with :func:`open_store`, passed to ``run_many`` as
``cache=``); durable, kill-resumable sweeps run the same loop through
:class:`SweepFabric`, which keeps their cell state in the same file. Anything
imported from the submodules directly (``repro.experiments.runner`` etc.)
is internal and may move without notice; see README for the documented
surface.

Importing the package loads the run path (config, runner, scenarios and
``run_many``); the sweep loop, the store and telemetry resolve on first
use (DESIGN.md §3).
"""

from repro import lazy_exports
from repro.experiments.config import ExperimentConfig, QueueSettings, SchemeName
from repro.experiments.parallel import run_many
from repro.experiments.runner import ExperimentResult, FailedResult, run_experiment
from repro.experiments.scenarios import (
    SchemeSetup,
    build_topology,
    make_scheme_setup,
    regional_fabric_config,
    run_regional_fabric,
)

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".config": ("ExperimentConfig", "QueueSettings", "SchemeName"),
    "repro.metrics.telemetry_config": ("TelemetryConfig",),
    "repro.metrics.telemetry": ("TelemetrySeries",),
    ".runner": ("ExperimentResult", "FailedResult", "run_experiment"),
    ".parallel": ("run_many",),
    ".scenarios": ("SchemeSetup", "build_topology", "make_scheme_setup",
                   "regional_fabric_config", "run_regional_fabric"),
    ".fabric": ("CompletionReport", "FabricConfig", "SweepFabric",
                "sweep_status"),
    ".store": ("ResultStore", "open_store"),
}, submodules=("cache", "config", "fabric", "figures", "parallel", "runner",
               "scenarios", "store", "sweep"))
