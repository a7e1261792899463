"""Network substrate: packets, queues, ports, switches, hosts, topologies.

This package is the stand-in for ns-2 in the original artifact. It models a
datacenter fabric at packet granularity: every data packet, ACK, and credit is
an object that traverses store-and-forward switch egress ports with
multi-queue scheduling (strict priority + DWRR), RED/ECN marking, color-aware
selective dropping, shared-buffer dynamic thresholds, and token-bucket credit
rate limiting — the switch feature set §4.1 and §5 of the paper require.

The stable public API is what ``__all__`` lists below. Every topology is a
``TopologySpec`` wired by :func:`build_from_spec`: a declarative fabric loads
as one (:func:`load_topology_spec`), and the paper's three shapes
(``DumbbellSpec`` / ``StarSpec`` / ``ClosSpec``) are emitted as one by
``build_dumbbell`` / ``build_star`` / ``build_clos``. Anything imported from
other submodules directly is internal and may move.
"""

from repro.net.packet import (
    ACK_WIRE_BYTES,
    CREDIT_WIRE_BYTES,
    DATA_HEADER_BYTES,
    MSS,
    Color,
    Dscp,
    Packet,
    PacketKind,
)
from repro.net.host import Host
from repro.net.link import Link
from repro.net.port import EgressPort
from repro.net.queues import PacketQueue, QueueConfig
from repro.net.scheduler import PortScheduler, QueueSchedule
from repro.net.switch import Switch
from repro.net.topology import (
    ClosSpec,
    Dumbbell,
    DumbbellSpec,
    Star,
    StarSpec,
    Topology,
)
from repro.net.fabric import (
    FabricHandle,
    LinkSpec,
    NodeSpec,
    SiteSpec,
    TopologySpec,
    TopologySpecError,
    build_clos,
    build_dumbbell,
    build_from_spec,
    build_star,
    clos_to_topology_spec,
    dumbbell_to_topology_spec,
    load_topology_spec,
    star_to_topology_spec,
)

__all__ = [
    "ACK_WIRE_BYTES",
    "CREDIT_WIRE_BYTES",
    "DATA_HEADER_BYTES",
    "MSS",
    "Color",
    "Dscp",
    "Packet",
    "PacketKind",
    "Host",
    "Link",
    "EgressPort",
    "PacketQueue",
    "QueueConfig",
    "PortScheduler",
    "QueueSchedule",
    "Switch",
    "Topology",
    "ClosSpec",
    "Dumbbell",
    "DumbbellSpec",
    "Star",
    "StarSpec",
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
    "star_to_topology_spec",
]
