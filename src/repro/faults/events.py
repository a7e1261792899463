"""Scheduled link failure/repair events with ECMP rerouting.

A :class:`LinkDownEvent` at time *t* takes both directions of the a<->b
link down: packets in flight on the cable are destroyed, packets later
transmitted into the dead link are eaten, and every switch's ECMP
next-hop tables are recomputed over the surviving edges (the control-plane
reconvergence a real fabric performs). :class:`LinkUpEvent` reverses all
of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING, Tuple

from repro.faults.counters import FaultCounters
from repro.faults.link import FaultyLink, splice

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node
    from repro.net.topology import Topology
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class LinkDownEvent:
    """At ``time_ns``, the (bidirectional) link between nodes ``a`` and
    ``b`` — addressed by node *name* — fails."""

    time_ns: int
    a: str
    b: str


@dataclass(frozen=True)
class LinkUpEvent:
    """At ``time_ns``, the a<->b link comes back and routes reconverge."""

    time_ns: int
    a: str
    b: str


def schedule_failure_events(
    sim: "Simulator",
    topo: "Topology",
    events: List[object],
    counters: Optional[FaultCounters] = None,
) -> FaultCounters:
    """Wire Link{Down,Up}Events onto the simulator clock.

    Node names are resolved and links spliced eagerly, so a misaddressed
    plan fails at setup time with a ``ValueError``, not hours into a sweep.
    """
    counters = counters if counters is not None else FaultCounters()
    for event in events:
        a, b = _cable_ends(topo, event.a, event.b)
        # Both directions of the cable share the run's fault counters.
        forward = splice(topo.port(a, b), counters=counters)
        reverse = splice(topo.port(b, a), counters=counters)
        if isinstance(event, LinkDownEvent):
            sim.at(event.time_ns, _apply_down, topo, a, b,
                   forward, reverse, counters)
        elif isinstance(event, LinkUpEvent):
            sim.at(event.time_ns, _apply_up, topo, a, b,
                   forward, reverse, counters)
        else:
            raise TypeError(f"not a failure event: {event!r}")
    return counters


def _cable_ends(topo: "Topology", name_a: str,
                name_b: str) -> Tuple["Node", "Node"]:
    """The two nodes of the named a<->b cable, or why there is none."""
    ends = []
    for name in (name_a, name_b):
        try:
            ends.append(topo.node_by_name(name))
        except KeyError:
            raise ValueError(f"link failure {name_a} <-> {name_b}: "
                             f"unknown node {name!r}") from None
    a, b = ends
    if b.id not in a.ports:
        raise ValueError(f"link failure {name_a} <-> {name_b}: "
                         f"no cable between them")
    return a, b


def _apply_down(
    topo: "Topology", a: "Node", b: "Node",
    forward: FaultyLink, reverse: FaultyLink, counters: FaultCounters,
) -> None:
    forward.fail()
    reverse.fail()
    topo.set_edge_state(a, b, up=False)
    topo.recompute_routes()
    counters.link_failures += 1
    counters.reroutes += 1


def _apply_up(
    topo: "Topology", a: "Node", b: "Node",
    forward: FaultyLink, reverse: FaultyLink, counters: FaultCounters,
) -> None:
    forward.restore()
    reverse.restore()
    topo.set_edge_state(a, b, up=True)
    topo.recompute_routes()
    counters.link_restores += 1
    counters.reroutes += 1
