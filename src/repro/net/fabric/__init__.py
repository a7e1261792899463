"""Topologies as data: the ontology, its loaders, and the one builder.

:mod:`.spec` is the declarative ``TopologySpec`` (YAML / JSON / CSV / dict);
:mod:`.build` wires any spec into a routed fabric and holds the emitters that
express the paper's dumbbell, star and Clos shapes as specs.
"""

from repro.net.fabric.build import (
    FabricHandle,
    build_clos,
    build_dumbbell,
    build_from_spec,
    build_star,
    clos_to_topology_spec,
    dumbbell_to_topology_spec,
    star_to_topology_spec,
)
from repro.net.fabric.spec import (
    LinkSpec,
    NodeSpec,
    SiteSpec,
    TopologySpec,
    TopologySpecError,
    load_topology_spec,
    parse_delay_ns,
    parse_rate_bps,
)

__all__ = [
    "FabricHandle",
    "LinkSpec",
    "NodeSpec",
    "SiteSpec",
    "TopologySpec",
    "TopologySpecError",
    "build_clos",
    "build_dumbbell",
    "build_from_spec",
    "build_star",
    "clos_to_topology_spec",
    "dumbbell_to_topology_spec",
    "load_topology_spec",
    "parse_delay_ns",
    "parse_rate_bps",
    "star_to_topology_spec",
]
