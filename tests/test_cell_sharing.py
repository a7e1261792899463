"""A cell stores what its parts share once and what they hold no more
than once (DESIGN.md §6h): one route table per switch, with one ECMP
member tuple per distinct next-hop set; one set of queue configs per link
rate and factory; one bound callable behind every delivery a link posts
and every wire-free event a port posts. A queue is one object: its FIFO is
a list, its stats a slotted record, and its scheduler keeps no per-queue
row. A posted event holds its one argument, not an argument tuple, and a
sender's scoreboard stores no zero dupack count."""

import gc

import pytest

from repro.experiments.config import QueueSettings
from repro.experiments.scenarios import (
    flexpass_queue_factory, homa_queue_factory, homa_shared_queue_factory,
    naive_queue_factory, owf_queue_factory,
)
from repro.net import ClosSpec, DumbbellSpec, build_clos, build_dumbbell
from repro.net import scheduler
from repro.net.packet import Packet
from repro.net.queues import QueueStats
from repro.net.routing import compute_next_hops, filter_adjacency
from repro.net.scheduler import QueueSchedule
from repro.sim.engine import Simulator
from repro.sim.units import GBPS
from repro.transports.sequencing import SenderScoreboard

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
    for _ in range(20):  # a backlog: the port posts a serve
        sender.send(mk_data(1, sender.id, receiver.id))
    sim.run(until=2_000)  # past the first packet: several are in flight
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


def _clos_ports(name):
    """Every egress port of a small Clos built by one scheme's factory."""
    clos = build_clos(Simulator(), FACTORIES[name],
                      ClosSpec(n_pods=2, aggs_per_pod=2, tors_per_pod=2,
                               hosts_per_tor=2, cores_per_group=1))
    return [port for node in (*clos.topo.hosts, *clos.topo.switches)
            for port in node.ports.values()]


def test_an_idle_queue_fifo_is_a_list():
    ports = _clos_ports("flexpass")
    assert ports
    for port in ports:
        for q in port._queues:
            assert type(q._fifo) is list and not q._fifo


def test_queue_stats_keep_no_dict():
    assert not hasattr(QueueStats(), "__dict__")


@pytest.mark.parametrize("name", ["flexpass", "homa_shared"])
def test_a_scheduler_keeps_no_per_queue_rows(name):
    assert not hasattr(scheduler, "_Member")
    for port in _clos_ports(name):
        sched = port.scheduler
        held = list(gc.get_referents(sched))
        for obj in list(held):
            if isinstance(obj, (list, tuple)):
                held.extend(gc.get_referents(obj))
        assert not any(isinstance(o, QueueSchedule) for o in held)
        # ... yet the rows it was built from can still be read back
        rows = sched.schedules
        assert tuple(r.queue for r in rows) == port._queues
        assert any(r.priority == 0 for r in rows)


def test_a_posted_delivery_holds_the_packet_itself():
    sim = Simulator()
    db = build_dumbbell(sim, single_queue_factory, DumbbellSpec(n_pairs=1))
    sender, receiver = db.senders[0], db.receivers[0]
    receiver.register_receiver(1, Recorder())
    for _ in range(5):
        sender.send(mk_data(1, sender.id, receiver.id))
    sim.run(until=2_000)
    entries = [e for lst in (sim._active, *sim._buckets.values())
               for e in lst]
    deliveries = [e for e in entries
                  if type(getattr(e[2], "__self__", None)).__name__ == "Link"]
    assert deliveries
    assert all(type(e[3]) is Packet for e in deliveries)
    serves = [e for e in entries
              if type(getattr(e[2], "__self__", None)).__name__ == "EgressPort"]
    assert serves and all(e[3] is None for e in serves)


def test_a_scoreboard_stores_no_zero_dup_counts():
    board = SenderScoreboard(dupthresh=3)
    for seq in range(4):
        board.on_send(seq, now_ns=seq)
    assert board._dup_counts == {}
    board.on_ack(0, (), echo=3)  # 0, 1 and 2 each see one seq above them
    assert board._dup_counts == {0: 1, 1: 1, 2: 1}
    board.on_send(1, now_ns=10)  # a resend restarts the count
    assert board._dup_counts == {0: 1, 2: 1}
