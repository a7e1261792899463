"""What a run loads: a feature's machinery is imported only where a config
switches it on (DESIGN.md §3), and the lazy export tables that make that
possible agree with each package's ``__all__``."""

import importlib
import json
import os
import subprocess
import sys

import pytest

#: what a cell with audit, telemetry, faults and the store off must not load
NOT_LOADED = (
    "numpy", "sqlite3", "multiprocessing",
    "repro.audit.invariants", "repro.audit.digest",
    "repro.faults.plan", "repro.faults.link", "repro.faults.events",
    "repro.faults.models",
    "repro.metrics.telemetry", "repro.metrics.tracing",
    "repro.experiments.store", "repro.experiments.fabric",
    "repro.experiments.sweep", "repro.experiments.figures",
)

#: what the same cell loads once audit, telemetry and a fault plan are on
SWITCHED_ON = ("repro.audit.invariants", "repro.metrics.telemetry",
               "repro.faults.link")

_DRIVER = """
import json, sys
from tests.util import tiny_cfg
from repro.experiments import run_experiment

watched = sys.argv[1:]
run_experiment(tiny_cfg()).fct()
off = [m for m in watched if m in sys.modules]

from repro.audit import AuditConfig
from repro.experiments import TelemetryConfig
from repro.faults import FaultPlan, LinkLossSpec

run_experiment(tiny_cfg(
    audit=AuditConfig(), telemetry=TelemetryConfig(),
    faults=FaultPlan(losses=(LinkLossSpec(rate=0.001),)))).fct()
print(json.dumps([off, [m for m in watched if m in sys.modules]]))
"""


def test_a_run_loads_only_what_it_runs():
    """A fresh interpreter runs a plain cell and summarizes its FCTs
    without loading numpy, the store, the sweep loop or any switched-off
    feature; the same cell with audit, telemetry and faults on then loads
    each of theirs (so the names above are real modules)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), root]))
    out = subprocess.run(
        [sys.executable, "-c", _DRIVER, *NOT_LOADED, *SWITCHED_ON],
        cwd=root, env=env, capture_output=True, text=True, check=True)
    off, on = json.loads(out.stdout.splitlines()[-1])
    assert off == []
    assert set(SWITCHED_ON) <= set(on)


#: the fault injector: loaded by ``FaultPlan.apply``, not by a plan
INJECTOR = ("repro.faults.plan", "repro.faults.link", "repro.faults.events",
            "repro.faults.models")

_SPEC_DRIVER = """
import contextlib, io, json, sys
from repro.cli import main

watched = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(["--help"])
    except SystemExit:
        pass
at_help = [m for m in watched if m in sys.modules]

from repro.faults import (FaultPlan, LinkFailureSpec, LinkLossSpec,
                          SiteFailureSpec)

plan = FaultPlan(
    losses=(LinkLossSpec(links="h*->tor*", model="gilbert", kinds=("data",)),),
    failures=(LinkFailureSpec("tor0.0", "agg0.0", 100, 200),),
    site_failures=(SiteFailureSpec("region:NSW", 100),))
assert not plan.empty
print(json.dumps([at_help, [m for m in watched if m in sys.modules]]))
"""


def test_help_and_a_fault_plan_load_no_injector():
    """``repro --help`` parses every fault flag, and a ``FaultPlan`` with
    every kind of spec is built, in a fresh interpreter, without loading
    the injector: its models, links and events load with ``apply``."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), root]))
    out = subprocess.run(
        [sys.executable, "-c", _SPEC_DRIVER, *INJECTOR],
        cwd=root, env=env, capture_output=True, text=True, check=True)
    at_help, with_plan = json.loads(out.stdout.splitlines()[-1])
    assert at_help == []
    assert with_plan == []


@pytest.mark.parametrize("package", ["repro.audit", "repro.faults",
                                     "repro.metrics", "repro.experiments"])
def test_lazy_exports_match_all(package):
    """Every name a package's ``__all__`` lists resolves, ``dir()`` shows
    it and ``import *`` binds it, so an export table cannot drift from
    ``__all__``."""
    mod = importlib.import_module(package)
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        assert getattr(mod, name) is not None, name
    assert set(mod.__all__) <= set(dir(mod))
    bound = {}
    exec(f"from {package} import *", bound)
    assert set(mod.__all__) <= set(bound)
    with pytest.raises(AttributeError):
        getattr(mod, "no_such_name")
