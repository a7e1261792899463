"""A cell stores what its parts share once (DESIGN.md §6h): one route
table per switch, with one ECMP member tuple per distinct next-hop set;
one set of queue configs per link rate and factory; one bound callable
behind every delivery a link posts and every wire-free event a port
posts."""

import pytest

from repro.experiments.config import QueueSettings
from repro.experiments.scenarios import (
    flexpass_queue_factory, homa_queue_factory, homa_shared_queue_factory,
    naive_queue_factory, owf_queue_factory,
)
from repro.net import ClosSpec, DumbbellSpec, build_clos, build_dumbbell
from repro.net.routing import compute_next_hops, filter_adjacency
from repro.sim.engine import Simulator
from repro.sim.units import GBPS

from tests.test_net_port_topology import Recorder, mk_data, single_queue_factory


def _clos(sim):
    return build_clos(sim, single_queue_factory,
                      ClosSpec(n_pods=2, aggs_per_pod=3, tors_per_pod=2,
                               hosts_per_tor=2, cores_per_group=1))


def _installed(topo):
    """What the topology hands each switch's ``install_routes``."""
    adjacency = filter_adjacency(topo._adjacency, frozenset(topo._down_edges))
    return compute_next_hops(adjacency, [h.id for h in topo.hosts])


def test_one_member_tuple_per_next_hop_set():
    clos = _clos(Simulator())
    shared = 0
    for sw in clos.topo.switches:
        members = {}
        for dst, hops in sw.next_hops.items():
            if len(hops) > 1:
                choices = sw._route_multi[dst]
                assert choices is members.setdefault(hops, choices)
                shared += 1
        shared -= len(members)
    assert shared > 0  # some destinations did share a tuple


def test_next_hops_read_back_what_was_installed():
    clos = _clos(Simulator())
    topo = clos.topo
    for sw in topo.switches:
        assert sw.next_hops == _installed(topo)[sw.id]
    tor, agg = clos.node("tor0.0"), clos.node("agg0.1")
    topo.set_edge_state(tor, agg, up=False)
    topo.recompute_routes()
    assert all(agg.id not in hops for hops in tor.next_hops.values())
    for sw in topo.switches:
        assert sw.next_hops == _installed(topo)[sw.id]
    topo.release()
    assert all(sw.next_hops == {} for sw in topo.switches)


FACTORIES = {
    "flexpass": flexpass_queue_factory(QueueSettings(wq=0.5)),
    "naive": naive_queue_factory(QueueSettings()),
    "owf": owf_queue_factory(QueueSettings(), 0.3),
    "homa_shared": homa_shared_queue_factory(),
    "homa": homa_queue_factory(),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_ports_of_one_rate_share_their_queue_configs(name):
    factory = FACTORIES[name]

    def configs(rate_bps, is_host_nic):
        schedules, _ = factory("p", rate_bps, is_host_nic)
        return [s.queue.config for s in schedules]

    at_10g = configs(10 * GBPS, True)
    for other in (configs(10 * GBPS, True), configs(10 * GBPS, False)):
        assert all(a is b for a, b in zip(at_10g, other))
        assert len(other) == len(at_10g)
    # a config depends on the rate, and only on it
    assert configs(40 * GBPS, False) == configs(40 * GBPS, True)


def test_every_pending_delivery_of_a_link_holds_one_callable():
    sim = Simulator()
    db = build_dumbbell(sim, single_queue_factory, DumbbellSpec(n_pairs=2))
    sender, receiver = db.senders[0], db.receivers[0]
    receiver.register_receiver(1, Recorder())
    for _ in range(20):  # more than one burst: the port posts a serve
        sender.send(mk_data(1, sender.id, receiver.id))
    sim.run(until=2_000)  # past the first packet: a burst is on the wire
    callbacks = {}
    for _, _, event in sim.iter_pending():
        fn = event[0]
        callbacks.setdefault(fn.__self__, []).append(fn)
    links = [o for o in callbacks if type(o).__name__ == "Link"]
    ports = [o for o in callbacks if type(o).__name__ == "EgressPort"]
    assert links and ports
    assert any(len(callbacks[link]) > 1 for link in links)
    for link in links:
        assert all(fn is link._deliver_cb for fn in callbacks[link])
    for port in ports:
        assert all(fn is port._serve_cb for fn in callbacks[port])
    db.topo.release()
    assert all(link._deliver_cb is None for link in links)
