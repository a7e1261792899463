"""Layer table: which layer each ``src/repro`` module's time is charged to.

A module is looked up by its exact path first (``transports/credit_plane``)
and by its package second (``transports``). ``net/`` has no package
default on purpose: a new file there must be placed by hand, and until it
is, its time lands in the printed ``unmapped`` bucket. Everything outside
``src/repro`` (stdlib, numpy, builtins, this harness) is ``other``.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

LAYERS = ("sim", "credit_plane", "net.port", "net.switch", "net.packet",
          "transports", "core", "workloads", "metrics_audit", "experiments",
          "other")

_MODULES = {
    "transports/credit_plane": "credit_plane",
    "transports/crediting": "credit_plane",
    "transports/credit_feedback": "credit_plane",
    "transports/phost_credits": "credit_plane",
    "net/port": "net.port",
    "net/scheduler": "net.port",
    "net/queues": "net.port",
    "net/buffering": "net.port",
    "net/ratelimit": "net.port",
    "net/link": "net.port",
    "net/switch": "net.switch",
    "net/routing": "net.switch",
    "net/host": "net.switch",
    "net/node": "net.switch",
    "net/topology": "net.switch",
    "net/__init__": "net.switch",
    "net/packet": "net.packet",
    "cli": "experiments",
    "__init__": "experiments",
}

_PACKAGES = {
    "sim": "sim",  # timerwheel too: DCTCP's RTO timers use it
    "net/fabric": "net.switch",
    "faults": "net.switch",
    "transports": "transports",
    "core": "core",
    "workloads": "workloads",
    "metrics": "metrics_audit",
    "audit": "metrics_audit",
    "experiments": "experiments",
}

#: (module, function) whose cumulative time is a phase of ``run_experiment``
PHASE_FUNCTIONS = {
    "build_s": ("experiments/scenarios", "build_topology"),
    "simulate_s": ("sim/calendar", "run"),
    "run_experiment_s": ("experiments/runner", "run_experiment"),
}


def module_of(filename: str, pkg_root: str) -> str:
    """``sim/calendar`` for ``<pkg_root>/sim/calendar.py``; "" if outside."""
    root = pkg_root.rstrip(os.sep) + os.sep
    if not filename.startswith(root) or not filename.endswith(".py"):
        return ""
    return filename[len(root):-3].replace(os.sep, "/")


def layer_of_module(module: str) -> str:
    layer = _MODULES.get(module)
    if layer is None:
        layer = _PACKAGES.get(module.rpartition("/")[0], "unmapped")
    return layer


def budget(stats: Dict[Tuple[str, int, str], tuple], pkg_root: str) -> dict:
    """Bucket cProfile ``tottime`` and call counts by layer.

    ``stats`` is ``pstats.Stats(...).stats``. Shares are of the summed
    self-time of every profiled function, so the 11 layers plus
    ``unmapped`` sum to 100% by construction.
    """
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    unmapped: Dict[str, dict] = {}
    phases = dict.fromkeys(PHASE_FUNCTIONS, 0.0)
    phase_keys = {v: k for k, v in PHASE_FUNCTIONS.items()}
    for (filename, _line, func), (_cc, ncalls, tottime, cumtime, _callers) \
            in stats.items():
        module = module_of(filename, pkg_root)
        layer = layer_of_module(module) if module else "other"
        if layer == "unmapped":
            bucket = unmapped.setdefault(module, {"self_s": 0.0, "calls": 0})
        else:
            bucket = layers[layer]
        bucket["self_s"] += tottime
        bucket["calls"] += ncalls
        phase = phase_keys.get((module, func))
        if phase is not None:
            phases[phase] += cumtime
    total = (sum(b["self_s"] for b in layers.values())
             + sum(b["self_s"] for b in unmapped.values()))
    for bucket in list(layers.values()) + list(unmapped.values()):
        bucket["share"] = 100.0 * bucket["self_s"] / total if total else 0.0
    run_s = phases.pop("run_experiment_s")
    phases["other_s"] = run_s - phases["build_s"] - phases["simulate_s"]
    return {"layers": layers, "unmapped": unmapped, "phases": phases,
            "total_self_s": total}
