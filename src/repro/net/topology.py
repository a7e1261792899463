"""The wired network and the three shapes the paper evaluates on.

A :class:`Topology` owns the nodes and wiring; its ``add_host`` /
``add_switch`` / ``connect`` / ``finalize`` primitives have one caller,
:func:`repro.net.fabric.build_from_spec`. Queue configuration is
scheme-specific (FlexPass needs three queues, the naïve scheme one data
queue, Homa eight priorities, …), so a topology takes a ``make_queues``
factory provided by :mod:`repro.experiments.scenarios` and applies it
uniformly to every port — host NICs included, per the paper's "the NIC is a
special type of edge switch" deployment note.

The shapes are parameters, not wiring: :class:`DumbbellSpec`,
:class:`StarSpec` and :class:`ClosSpec` say how big and how fast, and
:mod:`repro.net.fabric.build` turns each into a ``TopologySpec`` and builds
it (``build_dumbbell`` / ``build_star`` / ``build_clos``, importable from
:mod:`repro.net`). :class:`Dumbbell` and :class:`Star` are the named views
those builders hand back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.net.buffering import SharedBuffer, UnlimitedBuffer
from repro.net.host import Host
from repro.net.link import Link
from repro.net.node import Node
from repro.net.port import EgressPort
from repro.net.routing import compute_next_hops, edge_key, filter_adjacency
from repro.net.scheduler import QueueSchedule
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MICROS

#: ``make_queues(port_name, rate_bps, is_host_nic) -> (schedules, classifier)``
QueueFactory = Callable[[str, int, bool], Tuple[List[QueueSchedule], Dict[int, int]]]


class Topology:
    """A wired network: nodes, links, routing."""

    def __init__(self, sim: Simulator, make_queues: QueueFactory) -> None:
        self.sim = sim
        self.make_queues = make_queues
        self.hosts: List[Host] = []
        self.switches: List[Switch] = []
        self.nodes: Dict[int, Node] = {}
        self._adjacency: Dict[int, List[int]] = {}
        self._down_edges: Set[Tuple[int, int]] = set()
        self._next_id = 0
        self._finalized = False
        #: route recomputations after finalize() (fault injection reroutes)
        self.route_recomputes = 0
        #: name -> node, maintained at registration (duplicates rejected)
        self._nodes_by_name: Dict[str, Node] = {}
        #: ontology group -> member node names ("site:DC-SYD-01",
        #: "region:NSW", "rack:r0"); populated by the fabric builder so
        #: fault plans can address whole sites/regions by name.
        self.node_groups: Dict[str, Tuple[str, ...]] = {}
        #: rate -> serialization delay per wire size, one table shared by
        #: every port of that rate (owned here, so it ends with the fabric)
        self._tx_caches: Dict[int, Dict[int, int]] = {}

    # ------------------------------------------------------------ building

    def add_host(self, name: str) -> Host:
        host = Host(self.sim, self._alloc_id(), name)
        self.hosts.append(host)
        self._register(host)
        return host

    def add_switch(
        self, name: str, buffer_bytes: int = 4_500_000, buffer_alpha: float = 0.25
    ) -> Switch:
        switch = Switch(
            self.sim, self._alloc_id(), name, SharedBuffer(buffer_bytes, buffer_alpha)
        )
        self.switches.append(switch)
        self._register(switch)
        return switch

    def connect(self, a: Node, b: Node, rate_bps: int, delay_ns: int) -> None:
        """Create a full-duplex link between ``a`` and ``b``."""
        self._attach_directed(a, b, rate_bps, delay_ns)
        self._attach_directed(b, a, rate_bps, delay_ns)
        self._adjacency[a.id].append(b.id)
        self._adjacency[b.id].append(a.id)

    def finalize(self) -> None:
        """Compute routes. Call after all links are in place."""
        self._install_routes()
        self._finalized = True

    # -------------------------------------------------- dynamic link state

    def set_edge_state(self, a: Node, b: Node, up: bool) -> None:
        """Mark the a<->b link up or down for routing purposes.

        The physical ports and links stay in place (a down link simply
        eats packets — see :mod:`repro.faults`); only route computation
        changes. Call :meth:`recompute_routes` afterwards to make switches
        react; the two steps are split so a batch of simultaneous failures
        costs one recomputation.
        """
        if b.id not in self._adjacency.get(a.id, []):
            raise ValueError(f"no link between {a.name} and {b.name}")
        key = edge_key(a.id, b.id)
        if up:
            self._down_edges.discard(key)
        else:
            self._down_edges.add(key)

    def recompute_routes(self) -> None:
        """Reinstall ECMP next-hops over the surviving (up) edges."""
        self._install_routes()
        self.route_recomputes += 1

    def _install_routes(self) -> None:
        host_ids = [h.id for h in self.hosts]
        adjacency = filter_adjacency(self._adjacency, frozenset(self._down_edges))
        next_hops = compute_next_hops(adjacency, host_ids)
        for switch in self.switches:
            switch.install_routes(next_hops.get(switch.id, {}))

    def release(self) -> None:
        """Unwire the fabric at the end of its run: every node drops its
        ports and the per-node state it keeps (a switch's routes, a host's
        endpoints). Wiring is cyclic (switch -> port -> link -> peer
        switch), so without this a dead fabric waits for a full collection
        instead of being freed when the last reference goes."""
        for node in self.nodes.values():
            node.release()

    # ------------------------------------------------------------- lookups

    def port(self, src: Node, dst: Node) -> EgressPort:
        """The egress port on ``src`` facing ``dst``."""
        return src.ports[dst.id]

    def node_by_name(self, name: str) -> Node:
        """Look up a node by its human name (fault plans and the ontology
        address elements by name so plans stay picklable and
        topology-independent). O(1): the name index is maintained at
        registration time and duplicate names are rejected there."""
        try:
            return self._nodes_by_name[name]
        except KeyError:
            raise KeyError(f"no node named {name!r}") from None

    def neighbors(self, node: Node) -> List[Node]:
        """Directly connected peers of ``node``, in wiring order."""
        return [self.nodes[peer] for peer in self._adjacency.get(node.id, [])]

    def all_ports(self) -> List[EgressPort]:
        return [p for node in self.nodes.values() for p in node.ports.values()]

    # ------------------------------------------------------------ internals

    def _alloc_id(self) -> int:
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def _register(self, node: Node) -> None:
        if self._finalized:
            raise RuntimeError("cannot add nodes after finalize()")
        if node.name in self._nodes_by_name:
            # A silent duplicate used to shadow the earlier node in
            # node_by_name scans; fault plans would then address the wrong
            # element. Fail at construction instead.
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.id] = node
        self._adjacency[node.id] = []
        self._nodes_by_name[node.name] = node

    def _attach_directed(self, src: Node, dst: Node, rate_bps: int, delay_ns: int) -> None:
        name = f"{src.name}->{dst.name}"
        is_host_nic = isinstance(src, Host)
        schedules, classifier = self.make_queues(name, rate_bps, is_host_nic)
        buffer = src.buffer if isinstance(src, Switch) else UnlimitedBuffer()
        link = Link(self.sim, dst, delay_ns)
        tx_cache = self._tx_caches.setdefault(rate_bps, {})
        port = EgressPort(self.sim, name, rate_bps, buffer, schedules,
                          classifier, link, tx_cache)
        src.attach_port(dst.id, port)


# ----------------------------------------------------------------- shapes


@dataclass
class DumbbellSpec:
    """N senders and N receivers joined by one bottleneck link."""

    n_pairs: int = 1
    rate_bps: int = 10 * GBPS
    bottleneck_bps: Optional[int] = None  # defaults to rate_bps
    link_delay_ns: int = 4 * MICROS
    host_delay_ns: int = 2 * MICROS
    buffer_bytes: int = 4_500_000
    buffer_alpha: float = 0.25


@dataclass
class Dumbbell:
    topo: Topology
    senders: List[Host]
    receivers: List[Host]
    left: Switch
    right: Switch

    @property
    def bottleneck(self) -> EgressPort:
        """The contended left->right port."""
        return self.topo.port(self.left, self.right)


@dataclass
class StarSpec:
    """Hosts on a single switch — the testbed's two-to-one and incast shape."""

    n_hosts: int = 3
    rate_bps: int = 10 * GBPS
    link_delay_ns: int = 4 * MICROS
    host_delay_ns: int = 2 * MICROS
    buffer_bytes: int = 4_500_000
    buffer_alpha: float = 0.25


@dataclass
class Star:
    topo: Topology
    hosts: List[Host]
    switch: Switch

    def downlink(self, host: Host) -> EgressPort:
        """The switch port facing ``host`` (the incast bottleneck)."""
        return self.topo.port(self.switch, host)


@dataclass
class ClosSpec:
    """3-tier Clos matching §6.2 at full scale.

    Paper values: 8 pods × 2 aggs × 4 ToRs × 6 hosts = 192 hosts, 8 cores,
    40 Gbps everywhere, 3:1 ToR oversubscription (6 host links down, 2
    uplinks). Defaults here are a scaled-down version with the same shape;
    pass the paper numbers to run full scale.
    """

    n_pods: int = 2
    aggs_per_pod: int = 2
    tors_per_pod: int = 2
    hosts_per_tor: int = 4
    cores_per_group: int = 1  # cores per agg position; n_cores = aggs_per_pod * this
    rate_bps: int = 10 * GBPS
    link_delay_ns: int = 4 * MICROS
    host_delay_ns: int = 2 * MICROS
    buffer_bytes: int = 4_500_000
    buffer_alpha: float = 0.25

    @property
    def n_hosts(self) -> int:
        return self.n_pods * self.tors_per_pod * self.hosts_per_tor

    @classmethod
    def paper_scale(cls) -> "ClosSpec":
        return cls(
            n_pods=8,
            aggs_per_pod=2,
            tors_per_pod=4,
            hosts_per_tor=6,
            cores_per_group=4,
            rate_bps=40 * GBPS,
        )
