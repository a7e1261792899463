"""Flow state ends with the flow (DESIGN.md §5, "State lifetime"), and a
cell's state ends with the cell (DESIGN.md §6h).

Runs whole cells and inspects what is still alive when ``sim.run``
returns: no finished receiver of any scheme (each completed flow has a
tombstone in its host's table instead), no sender scoreboard keeping an
acked seq its cumulative point already implies, and no new wheel timer
filed by re-arming a coarse timer to a later deadline. With the
collector off: every scheme's sender and receiver is gone once the event
that finished it returns, and once ``run_experiment`` returns or raises
nothing of the fabric, no packet that was in flight, and no flow's state
is left, neither alive nor as cyclic garbage.
"""

import dataclasses
import gc
import pickle
import weakref
from collections import Counter

import pytest

from repro.audit import AuditConfig
from repro.core.flexpass import (
    FlexPassReceiver, FlexPassSender, FlexPassTombstone, SubFlow,
)
from repro.core.variants import Rc3SplitSender
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig, SchemeName
from repro.experiments.parallel import run_many
from repro.experiments.runner import run_experiment
from repro.experiments.store import ResultStore
from repro.metrics.telemetry_config import TelemetryConfig
from repro.net.host import Host
from repro.net.packet import Packet
from repro.net.topology import ClosSpec
from repro.sim.engine import CalendarSimulator
from repro.sim.timerwheel import CoarseTimer, TimerWheel, WheelTimer
from repro.sim.units import MILLIS
from repro.transports import (
    DctcpReceiver, ExpressPassReceiver, ExpressPassSender, FlowSpec,
    FlowStats, HomaReceiver, HomaSender, LayeringReceiver, LayeringSender,
)
from repro.transports.crediting import CreditPacer, CreditRequest
from repro.transports.dctcp import DctcpLoop, DctcpSender
from repro.transports.sequencing import AckingTombstone
from repro.transports.timers import RetransmitTimer
from tests.util import tiny_cfg


RECEIVERS = (DctcpReceiver, ExpressPassReceiver, FlexPassReceiver,
             HomaReceiver)
ENDPOINTS = RECEIVERS + (DctcpSender, ExpressPassSender, FlexPassSender)


def _scoreboards(sender):
    if isinstance(sender, FlexPassSender):
        return [sender.proactive.scoreboard, sender.reactive.scoreboard]
    return [sender.queue.scoreboard]


def _snapshot(monkeypatch, cfg):
    """Run ``cfg``; return what ``sim.run`` left alive and the coarse
    timer arms that post a new wheel timer: first arms, and re-arms to
    before the armed timer's posted instant."""
    rearms = {"new_entries": 0}
    arm = CoarseTimer.arm

    def counting_arm(self, delay, fn, *args):
        if (not self.armed
                or self._wheel.sim.now + delay < self._timer.posted):
            rearms["new_entries"] += 1
        arm(self, delay, fn, *args)

    snap = {}
    run = CalendarSimulator.run

    def snapshot_run(sim, *args, **kwargs):
        out = run(sim, *args, **kwargs)
        objects = gc.get_objects()
        alive = [o for o in objects if isinstance(o, ENDPOINTS)
                 and o.sim is sim]
        snap["receivers"] = [o for o in alive if isinstance(o, RECEIVERS)]
        snap["senders"] = [o for o in alive if not isinstance(o, RECEIVERS)]
        snap["entries"] = [entry for o in objects
                           if isinstance(o, Host) and o.sim is sim
                           for entry in o._receivers.values()]
        snap["armed_total"] = TimerWheel.for_sim(sim).armed_total
        return out

    monkeypatch.setattr(CoarseTimer, "arm", counting_arm)
    monkeypatch.setattr(CalendarSimulator, "run", snapshot_run)
    snap["completed"] = run_experiment(cfg).completed
    snap["new_entries"] = rearms["new_entries"]
    return snap


#: what a finished flow of each scheme's cell leaves in its host's table
TOMBSTONES = {
    SchemeName.FLEXPASS: {FlexPassTombstone, AckingTombstone},
    SchemeName.NAIVE: {AckingTombstone},
}


@pytest.mark.parametrize("scheme,deployment", [
    (SchemeName.FLEXPASS, 0.5),   # FlexPass and DCTCP flows side by side
    (SchemeName.NAIVE, 1.0),      # ExpressPass on every host
])
def test_finished_flows_release_their_state(monkeypatch, no_collector,
                                            scheme, deployment):
    cfg = ExperimentConfig(
        scheme=scheme, deployment=deployment, load=0.5,
        sim_time_ns=1 * MILLIS, size_scale=16.0, seed=5,
        clos=ClosSpec(n_pods=2, aggs_per_pod=2, tors_per_pod=2,
                      hosts_per_tor=3))
    snap = _snapshot(monkeypatch, cfg)

    # the census sees the receivers still running at the horizon, and no
    # finished one of any scheme: each left a tombstone in its place
    assert snap["receivers"]
    assert [r for r in snap["receivers"] if r.stats.completed] == []
    completed = [e for e in snap["entries"] if e.stats.completed]
    assert len(completed) > 20
    assert all(type(e) in TOMBSTONES[scheme] for e in completed)
    # every completed flow has its host entry
    assert len(completed) == snap["completed"]

    boards = [b for s in snap["senders"] for b in _scoreboards(s)]
    assert boards and any(b._cum for b in boards)
    for board in boards:
        assert all(seq >= board._cum for seq in board._acked)

    assert 0 < snap["armed_total"] == snap["new_entries"]


# ------------------------------------------------------- cell lifetime

#: 12 hosts and a short horizon, with hundreds of packets in flight at its end
CELL = ExperimentConfig(
    scheme=SchemeName.FLEXPASS, deployment=0.5, load=0.8,
    sim_time_ns=300_000, size_scale=8.0, seed=3,
    clos=ClosSpec(n_pods=2, aggs_per_pod=2, tors_per_pod=2, hosts_per_tor=3))


@pytest.fixture
def no_collector():
    """Only reference counting frees anything while the test runs."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _in_flight(sim, ports):
    """Packets the calendar or a port queue still holds."""
    for _, _, event in sim.iter_pending():
        args = event[1] if isinstance(event, tuple) else event.args
        yield from (a for a in args if isinstance(a, Packet))
    for port in ports:
        for fifo in port.scheduler.fifos:
            yield from fifo


def _watch_cells(monkeypatch):
    """Weak references to every cell's topology, ports and links, and to
    the packets in flight when its ``sim.run`` returned or raised."""
    cells = []
    build = runner.build_topology

    def watched_build(sim, make_queues, cfg):
        clos = build(sim, make_queues, cfg)
        ports = clos.topo.all_ports()
        cells.append({"topo": weakref.ref(clos.topo),
                      "ports": list(map(weakref.ref, ports)),
                      "links": [weakref.ref(p.link) for p in ports]})
        return clos

    sim_run = CalendarSimulator.run

    def watched_run(sim, *args, **kwargs):
        try:
            return sim_run(sim, *args, **kwargs)
        finally:
            ports = [ref() for ref in cells[-1]["ports"]]
            cells[-1]["packets"] = list(map(weakref.ref,
                                            _in_flight(sim, ports)))

    monkeypatch.setattr(runner, "build_topology", watched_build)
    monkeypatch.setattr(CalendarSimulator, "run", watched_run)
    return cells


def _assert_released(cell):
    assert cell["topo"]() is None
    assert len(cell["ports"]) == 48
    assert not [ref for ref in cell["ports"] if ref() is not None]
    # each link refers to itself through its bound delivery callback
    assert len(cell["links"]) == 48
    assert not [ref for ref in cell["links"] if ref() is not None]
    assert len(cell["packets"]) > 100
    assert not [ref for ref in cell["packets"] if ref() is not None]


def test_a_finished_cell_releases_its_fabric(monkeypatch, no_collector):
    cells = _watch_cells(monkeypatch)
    res = run_experiment(CELL)
    assert not res.aborted and res.completed > 0
    _assert_released(cells[0])


def test_an_aborted_cell_releases_its_fabric(monkeypatch, no_collector):
    cells = _watch_cells(monkeypatch)
    res = run_experiment(CELL.with_(max_events=2_000))
    assert res.aborted
    _assert_released(cells[0])


def test_a_raising_cell_releases_its_fabric(monkeypatch, no_collector):
    cells = _watch_cells(monkeypatch)
    receive = Host.receive

    def receive_until(host, pkt):
        if host.sim.now > CELL.sim_time_ns // 2:
            raise RuntimeError("endpoint failure")
        receive(host, pkt)

    monkeypatch.setattr(Host, "receive", receive_until)
    try:
        run_experiment(CELL)
    except RuntimeError:
        pass
    else:
        pytest.fail("the cell did not raise")
    _assert_released(cells[0])


def test_a_sweep_releases_every_cell(monkeypatch, no_collector):
    cells = _watch_cells(monkeypatch)
    results = run_many([CELL.with_(seed=s) for s in (1, 2, 3)], processes=1)
    assert all(r.completed > 0 for r in results)
    assert len(cells) == 3
    for cell in cells:
        _assert_released(cell)


def test_the_result_holds_nothing_of_the_fabric(tmp_path):
    # a fresh run: a pooled copy has already been through pickle
    res = run_experiment(CELL)
    payload = pickle.dumps(res)
    for name in (b"EgressPort", b"Topology", b"CalendarSimulator"):
        assert name not in payload
    store = ResultStore(tmp_path / "store.db")
    assert store.put(res.config, res)
    stored = store.get(res.config)
    store.close()
    for copy in (pickle.loads(payload), stored):
        assert copy.records == res.records
        assert copy.counters == res.counters
        assert copy.events_run == res.events_run
        assert copy.fct() == res.fct()
        assert copy.fct(small=True) == res.fct(small=True)


# ------------------------------------------------------- flow lifetime

#: each scheme's cell, and the sender class its new flows run
SENDERS = {
    SchemeName.DCTCP: DctcpSender,
    SchemeName.EXPRESSPASS: ExpressPassSender,
    SchemeName.LAYERING: LayeringSender,
    SchemeName.HOMA: HomaSender,
    SchemeName.FLEXPASS: FlexPassSender,
    SchemeName.FLEXPASS_RC3: Rc3SplitSender,
}


def _watch_senders(monkeypatch):
    """Weak references to every sender a cell launches, and the senders
    that were still alive when the host event that finished them (the
    arrival of their last ACK) returned."""
    watch = {"launched": {}, "finishing": [], "freed": Counter(),
             "alive": []}
    make_setup = runner.make_scheme_setup

    def watched_setup(cfg):
        setup = make_setup(cfg)

        def watched(launch):
            def launch_and_watch(sim, spec, stats, on_complete):
                sender = launch(sim, spec, stats, on_complete)
                watch["launched"][spec.flow_id] = weakref.ref(sender)
                return sender
            return launch_and_watch

        return dataclasses.replace(
            setup, launch_new=watched(setup.launch_new),
            launch_legacy=watched(setup.launch_legacy))

    unregister = Host.unregister_sender

    def watched_unregister(host, flow_id):
        unregister(host, flow_id)
        sender = watch["launched"][flow_id]()
        watch["finishing"].append((flow_id, type(sender)))

    receive = Host.receive

    def watched_receive(host, pkt):
        receive(host, pkt)
        while watch["finishing"]:
            flow_id, kind = watch["finishing"].pop()
            if watch["launched"][flow_id]() is None:
                watch["freed"][kind] += 1
            else:
                watch["alive"].append(flow_id)

    monkeypatch.setattr(runner, "make_scheme_setup", watched_setup)
    monkeypatch.setattr(Host, "unregister_sender", watched_unregister)
    monkeypatch.setattr(Host, "receive", watched_receive)
    return watch


@pytest.mark.parametrize("scheme", list(SENDERS), ids=lambda s: s.value)
def test_a_finished_sender_is_freed_at_completion(monkeypatch, no_collector,
                                                  scheme):
    """Only the host registration and an armed timer refer to a live
    endpoint, and finishing drops both: reference counting frees the
    sender, its loop, timers and scoreboards within the event that
    finished it."""
    watch = _watch_senders(monkeypatch)
    res = run_experiment(tiny_cfg(scheme=scheme, deployment=1.0,
                                  sim_time_ns=300_000))
    assert watch["alive"] == []
    assert watch["freed"][SENDERS[scheme]] > 20
    assert sum(watch["freed"].values()) <= res.completed


#: each scheme's cell, and the receiver class its new flows run
RECEIVERS_OF = {
    SchemeName.DCTCP: DctcpReceiver,
    SchemeName.EXPRESSPASS: ExpressPassReceiver,
    SchemeName.LAYERING: LayeringReceiver,
    SchemeName.HOMA: HomaReceiver,
    SchemeName.FLEXPASS: FlexPassReceiver,
    SchemeName.FLEXPASS_RC3: FlexPassReceiver,
}


def _watch_receivers(monkeypatch):
    """Weak references to every receiver its tombstone replaces, counted
    as freed or alive when the host event that finished it (the arrival
    of its last new segment) returns."""
    watch = {"retiring": [], "freed": Counter(), "alive": []}
    retire = Host.retire_receiver

    def watched_retire(host, flow_id, tombstone):
        receiver = host._receivers[flow_id]
        watch["retiring"].append((weakref.ref(receiver), type(receiver)))
        retire(host, flow_id, tombstone)

    receive = Host.receive

    def watched_receive(host, pkt):
        receive(host, pkt)
        while watch["retiring"]:
            ref, kind = watch["retiring"].pop()
            if ref() is None:
                watch["freed"][kind] += 1
            else:
                watch["alive"].append(kind)

    monkeypatch.setattr(Host, "retire_receiver", watched_retire)
    monkeypatch.setattr(Host, "receive", watched_receive)
    return watch


@pytest.mark.parametrize("scheme", list(RECEIVERS_OF), ids=lambda s: s.value)
def test_a_finished_receiver_is_freed_at_completion(monkeypatch, no_collector,
                                                    scheme):
    """Only the host registration refers to a running receiver (its
    pacer's posted events hold the pacer, not it), and completion puts a
    tombstone in its place: reference counting frees the receiver and
    its scoreboards within the event that finished it, for every flow
    that completed."""
    watch = _watch_receivers(monkeypatch)
    res = run_experiment(tiny_cfg(scheme=scheme, deployment=1.0,
                                  sim_time_ns=300_000))
    assert watch["alive"] == []
    assert watch["freed"][RECEIVERS_OF[scheme]] > 20
    assert sum(watch["freed"].values()) == res.completed


#: what a flow owns; none of it may outlive its cell as cyclic garbage
FLOW_STATE = (
    FlowSpec, FlowStats,
    DctcpSender, ExpressPassSender, HomaSender, FlexPassSender,
    DctcpReceiver, ExpressPassReceiver, HomaReceiver, FlexPassReceiver,
    DctcpLoop, SubFlow, CreditRequest, CreditPacer, RetransmitTimer,
    CoarseTimer, WheelTimer,
)


@pytest.mark.parametrize("cfg", [
    # FlexPass beside DCTCP, with the auditor and every port sampled: the
    # observers hold the cell's flow table while it runs
    tiny_cfg(telemetry=TelemetryConfig(ports="all"),
             audit=AuditConfig(enabled=True, digest=True)),
    # ExpressPass credits under the window gate: a LayeringSender is on no
    # cycle itself, so only a census would see one among its parts (its
    # DctcpLoop, its CreditRequest)
    tiny_cfg(scheme=SchemeName.LAYERING, deployment=1.0, sim_time_ns=300_000),
    # Homa's two watchdogs, one on each endpoint
    tiny_cfg(scheme=SchemeName.HOMA, deployment=1.0),
], ids=["flexpass-observed", "ly", "homa"])
def test_a_finished_cell_leaves_no_flow_garbage(no_collector, cfg):
    """With the collector off, a cell's flows (specs, stats, endpoints,
    loops and timers, finished or still running at the horizon) are
    freed by reference counting when ``run_experiment`` returns: a
    collection then finds none of them in cyclic garbage."""
    gc.collect()  # what earlier tests left is not this cell's
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        res = run_experiment(cfg)
        gc.collect()
        leaked = Counter(type(o).__name__ for o in gc.garbage
                         if isinstance(o, FLOW_STATE))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert res.completed > 20 and res.completed < len(res.records)
    assert leaked == Counter()
