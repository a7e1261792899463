"""ECMP load-balancing behaviour on the Clos fabric."""

import numpy as np

from repro.net.buffering import SharedBuffer
from repro.net.routing import ecmp_index
from repro.net.switch import Switch
from repro.net import ClosSpec, build_clos
from repro.sim.engine import Simulator
from repro.sim.units import MILLIS

from tests.test_net_port_topology import Recorder, single_queue_factory
from repro.net.packet import Dscp, Packet, PacketKind


def test_flows_spread_across_core_links():
    """Many flows between one host pair should spread over the equal-cost
    core links (per-flow hashing), with no link monopolized."""
    sim = Simulator()
    clos = build_clos(
        sim, single_queue_factory,
        ClosSpec(n_pods=2, aggs_per_pod=2, tors_per_pod=2, hosts_per_tor=2,
                 cores_per_group=2),
    )
    src = clos.racks()[0][0]
    dst = clos.racks()[-1][0]
    n_flows = 200
    for flow in range(1, n_flows + 1):
        rec = Recorder()
        dst.register_receiver(flow, rec)
        src.send(Packet(PacketKind.DATA, flow, src.id, dst.id, 1584,
                        dscp=Dscp.LEGACY))
    sim.run()
    cores = [clos.node(f"core{c}") for c in range(4)]
    core_counts = []
    for core in cores:
        pkts = sum(p.link.packets_delivered for p in core.ports.values())
        core_counts.append(pkts)
    used = [c for c in core_counts if c > 0]
    assert len(used) == len(cores), f"unused core links: {core_counts}"
    # no single core carries more than ~2.5x its fair share of 200 flows
    assert max(core_counts) < 2.5 * n_flows / len(cores)


def test_single_flow_stays_on_one_path():
    """All packets of one flow must take the same path (no reordering by
    routing, the paper's §4.2 assumption)."""
    sim = Simulator()
    clos = build_clos(
        sim, single_queue_factory,
        ClosSpec(n_pods=2, aggs_per_pod=2, tors_per_pod=2, hosts_per_tor=2,
                 cores_per_group=2),
    )
    src = clos.racks()[0][0]
    dst = clos.racks()[-1][0]
    rec = Recorder()
    dst.register_receiver(7, rec)
    for seq in range(50):
        src.send(Packet(PacketKind.DATA, 7, src.id, dst.id, 1584,
                        dscp=Dscp.LEGACY, seq=seq))
    sim.run()
    assert [p.seq for p in rec.packets] == list(range(50))  # in order
    # exactly one core saw this flow
    carrying = [
        core for core in (clos.node(f"core{i}") for i in range(4))
        if any(p.link.packets_delivered > 0 for p in core.ports.values())
    ]
    assert len(carrying) == 1


# ------------------------------------------------------------ the ECMP memo
#
# ``Switch`` memoizes the member a flow direction hashes to. The memo must
# never be observable: same member as the hash, dropped with the table it
# was computed from, and bounded.

def _carried(node):
    """peer id -> packets this node has put on the link toward that peer."""
    return {peer: port.link.packets_delivered
            for peer, port in node.ports.items()}


def _send(sim, src, dst, flow, n, kind=PacketKind.DATA):
    for seq in range(n):
        src.send(Packet(kind, flow, src.id, dst.id, 1584, dscp=Dscp.LEGACY,
                        seq=seq))
    sim.run()


class _Tap:
    """Stands in for an egress port: records what the switch enqueues."""

    def __init__(self):
        self.packets = []

    def enqueue(self, pkt):
        self.packets.append(pkt)
        return True


def test_memoized_member_is_the_hashed_member():
    """For any mix of flows, with flow ids reused across host pairs, every
    packet leaves by the member ``ecmp_index`` names, first lookup or memo
    hit, with the memo far too small for the traffic."""
    sw = Switch(Simulator(), 100, "sw", SharedBuffer(1 << 20))
    sw.ecmp_salt = 2
    peers = (11, 12, 13)
    taps = {peer: _Tap() for peer in peers}
    sw.ports = taps
    sw.install_routes({dst: peers for dst in range(8)})
    rng = np.random.default_rng(5)
    high_water = 0
    for _ in range(3 * Switch.ECMP_MEMO_MAX):
        flow, src, dst = (int(x) for x in rng.integers(0, 8, size=3))
        flow += 2_000 * int(rng.integers(0, 2_000))  # many flows, and repeats
        pkt = Packet(PacketKind.DATA, flow, src, dst, 1584)
        sw.receive(pkt)
        want = peers[ecmp_index(flow, src, dst, len(peers), sw.ecmp_salt)]
        assert taps[want].packets[-1] is pkt
        high_water = max(high_water, len(sw._ecmp_memo))
    assert high_water == Switch.ECMP_MEMO_MAX  # it filled, and never grew past
    assert sw.routing_failures == 0


def test_memoized_flow_is_rerouted_when_its_member_goes_down():
    """``install_routes`` must drop the memo: after the link a flow was
    hashed onto is taken out of routing, its next packets use a survivor."""
    sim = Simulator()
    # Three aggs per pod: with one uplink withdrawn the ToR still has two
    # members for the destination, so the lookup still goes through the memo.
    clos = build_clos(sim, single_queue_factory,
                      ClosSpec(n_pods=2, aggs_per_pod=3, tors_per_pod=2,
                               hosts_per_tor=2, cores_per_group=1))
    src, dst = clos.racks()[0][0], clos.racks()[-1][0]
    rec = Recorder()
    dst.register_receiver(7, rec)
    tor = next(sw for sw in clos.topo.switches if src.id in sw.ports)
    aggs = tor.next_hops[dst.id]
    assert len(aggs) == 3
    _send(sim, src, dst, 7, 20)
    before = _carried(tor)
    (used,) = [a for a in aggs if before[a] > 0]

    clos.topo.set_edge_state(tor, clos.topo.nodes[used], up=False)
    clos.topo.recompute_routes()
    assert len(tor.next_hops[dst.id]) == 2
    _send(sim, src, dst, 7, 20)
    after = _carried(tor)
    assert after[used] == before[used], "still on the withdrawn member"
    assert sum(after[a] - before[a] for a in aggs if a != used) == 20
    assert len(rec.packets) == 40


def test_forward_and_reverse_of_a_flow_mirror_through_the_memo():
    """Data and its reverse-direction feedback cross the same links in
    opposite directions, on the first packets and on memo hits alike."""
    sim = Simulator()
    clos = build_clos(
        sim, single_queue_factory,
        ClosSpec(n_pods=2, aggs_per_pod=2, tors_per_pod=2, hosts_per_tor=2,
                 cores_per_group=2),
    )
    src, dst = clos.racks()[0][1], clos.racks()[-1][0]
    for flow in range(1, 40):
        dst.register_receiver(flow, Recorder())
        src.register_sender(flow, Recorder())
        _send(sim, src, dst, flow, 3)
        _send(sim, dst, src, flow, 3, kind=PacketKind.ACK)
    sent = {sw.id: _carried(sw) for sw in clos.topo.switches}
    for a, carried in sent.items():
        for b, n in carried.items():
            if b in sent:  # switch-to-switch link
                assert n == sent[b][a], (a, b)
    assert sum(sum(c.values()) for c in sent.values()) > 0
