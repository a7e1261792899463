"""Applying a :class:`~repro.faults.spec.FaultPlan`: the live injector.

:func:`apply_plan` splices the plan's loss models into a built topology
and schedules its failures, producing a :class:`FaultInjector`: the
spliced links plus one shared :class:`repro.faults.counters.FaultCounters`.
:meth:`FaultPlan.apply` is its one caller, so this module (and the models,
links and events it needs) loads only for a run that carries faults.

Randomness comes from named ``RngRegistry`` streams keyed by spec index
and port name, so two runs with the same seed produce the same drop
pattern bit for bit, and adding a fault spec never perturbs the traffic
generator's streams.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import List, TYPE_CHECKING

from repro.faults.counters import FaultCounters
from repro.faults.events import schedule_failure_events
from repro.faults.link import FaultyLink, splice
# The spec classes lived here before they had their own module: configs
# and results pickled then name them through this one.
from repro.faults.spec import (  # noqa: F401
    FaultPlan, FaultPlanError, LinkFailureSpec, LinkLossSpec,
    SiteFailureSpec,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.topology import Topology
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngRegistry


def apply_plan(plan: FaultPlan, sim: "Simulator", topo: "Topology",
               rng: "RngRegistry") -> "FaultInjector":
    """Splice ``plan``'s loss models into ``topo`` and schedule its
    failures (:meth:`FaultPlan.apply`, which turns a ``ValueError`` into
    :class:`FaultPlanError`)."""
    counters = FaultCounters()
    spliced: List[FaultyLink] = []
    # Deterministic port order: sort by name, independent of dict order.
    ports = sorted(topo.all_ports(), key=lambda p: p.name)
    for idx, spec in enumerate(plan.losses):
        matched = False
        for port in ports:
            if not fnmatch.fnmatchcase(port.name, spec.links):
                continue
            matched = True
            stream = rng.stream(f"{plan.stream_prefix}.{idx}.{port.name}")
            model = spec.build_model(stream)
            if spec.corrupt:
                link = splice(port, corruption=model, counters=counters)
            else:
                link = splice(port, loss=model, counters=counters)
            spliced.append(link)
        if not matched:
            raise ValueError(
                f"fault spec {idx}: pattern {spec.links!r} matches no link"
            )
    events: List[object] = []
    for failure in plan.failures:
        events.extend(failure.events())
    for site_failure in plan.site_failures:
        events.extend(site_failure.events(topo))
    schedule_failure_events(sim, topo, events, counters)
    return FaultInjector(plan=plan, counters=counters, links=spliced)


@dataclass
class FaultInjector:
    """Live fault state of one run: the applied plan, shared counters, and
    every spliced link (so callers can inspect per-link state)."""

    plan: FaultPlan
    counters: FaultCounters
    links: List[FaultyLink] = field(default_factory=list)
