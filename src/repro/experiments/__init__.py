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
"""

import importlib

from repro.experiments.config import (
    ExperimentConfig,
    QueueSettings,
    SchemeName,
)
from repro.experiments.fabric import (
    CompletionReport,
    FabricConfig,
    SweepFabric,
    sweep_status,
)
from repro.experiments.parallel import FailedResult, run_many
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.scenarios import (
    SchemeSetup,
    build_topology,
    make_scheme_setup,
    regional_fabric_config,
    run_regional_fabric,
)
from repro.experiments.store import ResultStore, open_store
from repro.metrics.telemetry import TelemetryConfig, TelemetrySeries

__all__ = [
    "ExperimentConfig",
    "QueueSettings",
    "SchemeName",
    "TelemetryConfig",
    "TelemetrySeries",
    "ExperimentResult",
    "FailedResult",
    "run_experiment",
    "run_many",
    "SchemeSetup",
    "build_topology",
    "make_scheme_setup",
    "regional_fabric_config",
    "run_regional_fabric",
    "CompletionReport",
    "FabricConfig",
    "SweepFabric",
    "sweep_status",
    "ResultStore",
    "open_store",
]

#: submodules reachable lazily as attributes (``repro.experiments.figures``)
_SUBMODULES = ("cache", "config", "fabric", "figures", "parallel", "runner",
               "scenarios", "store", "sweep")


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"repro.experiments.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(__all__) | set(_SUBMODULES) | set(globals()))
