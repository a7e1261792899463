"""The one topology builder: shape -> :class:`TopologySpec` -> wired fabric.

:func:`build_from_spec` is the only caller of ``Topology.add_host /
add_switch / connect / finalize``. Every fabric reaches it as data: a loaded
ontology directly, and the paper's three shapes through one pure emitter each
(:func:`clos_to_topology_spec`, :func:`dumbbell_to_topology_spec`,
:func:`star_to_topology_spec`). Node ids follow spec order and adjacency
follows link order, so an emitter's order is what audit digests and ECMP
hashes are pinned to (``tests/test_topology_spec.py::test_wiring_digest``).

The returned :class:`FabricHandle` is what the experiment runner drives
(``topo``, ``hosts``, ``racks()``, ``rack_of``, ``tor_uplinks()``) plus
ontology lookups: named nodes, inter-region backbone links, and site/region
groupings for locality-aware workloads and fault plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.fabric.spec import LinkSpec, NodeSpec, TopologySpec, TopologySpecError
from repro.net.host import Host
from repro.net.port import EgressPort
from repro.net.switch import Switch
from repro.net.topology import (
    ClosSpec,
    Dumbbell,
    DumbbellSpec,
    QueueFactory,
    Star,
    StarSpec,
    Topology,
)
from repro.sim.engine import Simulator

@dataclass
class FabricHandle:
    """A built fabric with rack and ontology lookups."""

    topo: Topology
    spec: TopologySpec
    _racks: List[List[Host]] = field(default_factory=list)
    _rack_tors: List[Switch] = field(default_factory=list)
    _rack_index: Dict[int, int] = field(default_factory=dict)  # host id -> rack

    @property
    def hosts(self) -> List[Host]:
        return self.topo.hosts

    def racks(self) -> List[List[Host]]:
        """Hosts grouped by their access switch, in switch-creation order."""
        return self._racks

    def rack_of(self, host: Host) -> int:
        try:
            return self._rack_index[host.id]
        except KeyError:
            raise ValueError(f"host {host.name} not in any rack") from None

    def tor_uplinks(self) -> List[EgressPort]:
        """Access-switch -> upstream-switch ports: the paper's 'core load'
        measurement points."""
        ports = []
        for tor in self._rack_tors:
            for peer in self.topo.neighbors(tor):
                if isinstance(peer, Switch):
                    ports.append(self.topo.port(tor, peer))
        return ports

    # -------------------------------------------------- ontology lookups

    def node(self, name: str):
        return self.topo.node_by_name(name)

    def site_of(self, name: str) -> str:
        return self.spec.site_of(name)

    def region_of(self, name: str) -> str:
        return self.spec.region_of(name)

    def inter_region_links(self) -> Tuple[LinkSpec, ...]:
        return self.spec.inter_region_links()

    def hosts_by_region(self) -> Dict[str, List[Host]]:
        """Region -> hosts, in host-creation order (regionless under '')."""
        out: Dict[str, List[Host]] = {}
        for node in self.spec.nodes:
            if node.kind != "host":
                continue
            region = self.spec.region_of_site(node.site)
            out.setdefault(region, []).append(self.topo.node_by_name(node.name))
        return out

    @property
    def access_rate_bps(self) -> int:
        return self.spec.access_rate_bps()


def build_from_spec(
    sim: Simulator, make_queues: QueueFactory, spec: TopologySpec
) -> FabricHandle:
    """Wire up a validated :class:`TopologySpec` and compute routes.

    Nodes are created in spec order (node ids — and hence audit digests and
    ECMP hashes — follow the spec), switches get ``ecmp_salt`` from their
    tier, and site/region groupings are published on
    ``Topology.node_groups`` so fault plans can address whole sites.
    """
    spec.validate()
    topo = Topology(sim, make_queues)
    for node in spec.nodes:
        if node.kind == "host":
            topo.add_host(node.name)
        else:
            sw = topo.add_switch(node.name, node.buffer_bytes, node.buffer_alpha)
            if node.tier:
                sw.ecmp_salt = node.tier
    for link in spec.links:
        topo.connect(topo.node_by_name(link.a), topo.node_by_name(link.b),
                     link.rate_bps, link.delay_ns)
    topo.finalize()

    # Site/region groups for ontology-addressed fault plans.
    groups: Dict[str, List[str]] = {}
    for node in spec.nodes:
        if node.site:
            groups.setdefault(f"site:{node.site}", []).append(node.name)
            region = spec.region_of_site(node.site)
            if region:
                groups.setdefault(f"region:{region}", []).append(node.name)
    topo.node_groups.update((key, tuple(names)) for key, names in groups.items())

    handle = FabricHandle(topo, spec)
    _index_racks(handle)
    return handle


def _index_racks(handle: FabricHandle) -> None:
    """Group hosts under their access switch, ordered by switch id (for a
    Clos: pod by pod, ToR by ToR — the order deployment plans upgrade in)."""
    topo = handle.topo
    by_tor: Dict[int, List[Host]] = {}
    for host in topo.hosts:
        # validate() guarantees exactly one neighbour, and that it is a switch
        by_tor.setdefault(topo.neighbors(host)[0].id, []).append(host)
    for rack_idx, tor_id in enumerate(sorted(by_tor)):
        handle._racks.append(by_tor[tor_id])
        handle._rack_tors.append(topo.nodes[tor_id])
        for host in by_tor[tor_id]:
            handle._rack_index[host.id] = rack_idx


# --------------------------------------------------- shape -> TopologySpec


class _Emitter:
    """Accumulates one shape's nodes and links in wiring order."""

    def __init__(self, shape, *counts: str) -> None:
        for name in counts:
            if getattr(shape, name) <= 0:
                raise TopologySpecError(
                    f"{type(shape).__name__}.{name} must be positive, "
                    f"got {getattr(shape, name)}")
        self.shape = shape
        self.nodes: List[NodeSpec] = []
        self.links: List[LinkSpec] = []

    def switch(self, name: str, tier: int = 0) -> str:
        self.nodes.append(NodeSpec(
            name=name, kind="switch", tier=tier,
            buffer_bytes=self.shape.buffer_bytes,
            buffer_alpha=self.shape.buffer_alpha))
        return name

    def link(self, a: str, b: str, rate_bps: Optional[int] = None) -> None:
        self.links.append(LinkSpec(
            a=a, b=b, rate_bps=rate_bps or self.shape.rate_bps,
            delay_ns=self.shape.link_delay_ns))

    def host(self, name: str, switch: str) -> None:
        """A host and its access link (which adds the host-side delay)."""
        self.nodes.append(NodeSpec(name=name, kind="host"))
        self.links.append(LinkSpec(
            a=name, b=switch, rate_bps=self.shape.rate_bps,
            delay_ns=self.shape.link_delay_ns + self.shape.host_delay_ns))

    def spec(self, name: str) -> TopologySpec:
        return TopologySpec(name=name, nodes=tuple(self.nodes),
                            links=tuple(self.links)).validate()


def dumbbell_to_topology_spec(shape: DumbbellSpec) -> TopologySpec:
    """``swL`` — bottleneck — ``swR``, then pair by pair ``s<i>`` on the
    left and ``r<i>`` on the right."""
    emit = _Emitter(shape, "n_pairs")
    left, right = emit.switch("swL"), emit.switch("swR")
    emit.link(left, right, shape.bottleneck_bps)
    for i in range(shape.n_pairs):
        emit.host(f"s{i}", left)
        emit.host(f"r{i}", right)
    return emit.spec("dumbbell")


def star_to_topology_spec(shape: StarSpec) -> TopologySpec:
    """One switch ``sw`` with hosts ``h<i>`` around it."""
    emit = _Emitter(shape, "n_hosts")
    switch = emit.switch("sw")
    for i in range(shape.n_hosts):
        emit.host(f"h{i}", switch)
    return emit.spec("star")


def clos_to_topology_spec(shape: ClosSpec, name: str = "clos") -> TopologySpec:
    """Cores first (salt 3), then per pod: aggs (2), ToRs (1), each agg
    position's uplinks to its core group, and per ToR its agg uplinks
    followed by its hosts ``h<pod>.<tor>.<host>``."""
    emit = _Emitter(shape, "n_pods", "aggs_per_pod", "tors_per_pod",
                    "hosts_per_tor", "cores_per_group")
    group = shape.cores_per_group
    cores = [emit.switch(f"core{c}", tier=3)
             for c in range(shape.aggs_per_pod * group)]
    for p in range(shape.n_pods):
        aggs = [emit.switch(f"agg{p}.{a}", tier=2)
                for a in range(shape.aggs_per_pod)]
        tors = [emit.switch(f"tor{p}.{t}", tier=1)
                for t in range(shape.tors_per_pod)]
        for a, agg in enumerate(aggs):
            for core in cores[a * group:(a + 1) * group]:
                emit.link(agg, core)
        for t, tor in enumerate(tors):
            for agg in aggs:
                emit.link(tor, agg)
            for h in range(shape.hosts_per_tor):
                emit.host(f"h{p}.{t}.{h}", tor)
    return emit.spec(name)


# ------------------------------------------------------- shape -> fabric


def build_clos(
    sim: Simulator, make_queues: QueueFactory, spec: Optional[ClosSpec] = None
) -> FabricHandle:
    return build_from_spec(
        sim, make_queues, clos_to_topology_spec(spec or ClosSpec()))


def build_dumbbell(
    sim: Simulator, make_queues: QueueFactory, spec: Optional[DumbbellSpec] = None
) -> Dumbbell:
    spec = spec or DumbbellSpec()
    fab = build_from_spec(sim, make_queues, dumbbell_to_topology_spec(spec))
    pairs = range(spec.n_pairs)
    return Dumbbell(fab.topo, [fab.node(f"s{i}") for i in pairs],
                    [fab.node(f"r{i}") for i in pairs],
                    fab.node("swL"), fab.node("swR"))


def build_star(
    sim: Simulator, make_queues: QueueFactory, spec: Optional[StarSpec] = None
) -> Star:
    fab = build_from_spec(
        sim, make_queues, star_to_topology_spec(spec or StarSpec()))
    return Star(fab.topo, list(fab.hosts), fab.node("sw"))
