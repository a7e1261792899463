"""System-level conservation invariants under randomized scenarios.

Whatever mix of transports, sizes, and start times runs on a shared fabric:

* every byte delivered to an application was sent exactly once (no
  duplicate delivery, no invented bytes);
* switch buffer accounting returns to zero when the network drains;
* selective dropping never admits red bytes beyond the threshold;
* packet conservation: enqueued = dequeued + dropped, per queue.
"""

from hypothesis import given, settings, strategies as st

from repro.core.flexpass import FlexPassParams, FlexPassReceiver, FlexPassSender
from repro.experiments.config import QueueSettings
from repro.experiments.scenarios import flexpass_queue_factory
from repro.net import DumbbellSpec, build_dumbbell
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, KB, MILLIS
from repro.transports.base import FlowSpec, FlowStats
from repro.transports.credit_feedback import CREDIT_PER_DATA
from repro.transports.dctcp import DctcpParams, DctcpReceiver, DctcpSender


@st.composite
def scenarios(draw):
    n_flows = draw(st.integers(1, 6))
    flows = []
    for i in range(n_flows):
        flows.append((
            draw(st.sampled_from(["dctcp", "flexpass"])),
            draw(st.integers(1, 400)) * KB,
            draw(st.integers(0, 2)) * MILLIS,
            draw(st.integers(0, 1)),  # sender pair index
        ))
    return flows


@given(scenarios())
@settings(max_examples=15, deadline=None)
def test_property_mixed_traffic_conserves_bytes(flows):
    sim = Simulator()
    db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings(wq=0.5)),
                        DumbbellSpec(n_pairs=2))
    all_stats = []
    for fid, (scheme, size, start, pair) in enumerate(flows, start=1):
        spec = FlowSpec(fid, db.senders[pair], db.receivers[pair], size, start,
                        scheme=scheme,
                        group="new" if scheme == "flexpass" else "legacy")
        stats = FlowStats()
        if scheme == "dctcp":
            DctcpReceiver(sim, spec, stats, DctcpParams())
            sender = DctcpSender(sim, spec, stats, DctcpParams())
        else:
            params = FlexPassParams(
                max_credit_rate_bps=10 * GBPS * 0.5 * CREDIT_PER_DATA)
            FlexPassReceiver(sim, spec, stats, params)
            sender = FlexPassSender(sim, spec, stats, params)
        sim.at(start, sender.start)
        all_stats.append((size, stats))

    sim.run(until=400 * MILLIS)

    # 1. exactly-once delivery
    for size, stats in all_stats:
        assert stats.completed, "flow starved on an idle-capacity fabric"
        assert stats.delivered_bytes == size

    # 2. buffer accounting drains to zero
    for sw in db.topo.switches:
        assert sw.buffer.used == 0

    # 3+4. per-queue conservation and selective-dropping bound
    for node in db.topo.nodes.values():
        for port in node.ports.values():
            for q in port.scheduler.queues:
                s = q.stats
                assert s.enqueued == s.dequeued + len(q._fifo)
                if q.config.selective_drop_bytes is not None:
                    assert s.max_red_bytes <= q.config.selective_drop_bytes


def test_queues_fully_drain_after_traffic():
    sim = Simulator()
    db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings(wq=0.5)),
                        DumbbellSpec(n_pairs=2))
    params = FlexPassParams(max_credit_rate_bps=10 * GBPS * 0.5 * CREDIT_PER_DATA)
    for fid in range(1, 5):
        spec = FlowSpec(fid, db.senders[fid % 2], db.receivers[(fid + 1) % 2],
                        300 * KB, 0, scheme="flexpass", group="new")
        stats = FlowStats()
        FlexPassReceiver(sim, spec, stats, params)
        sender = FlexPassSender(sim, spec, stats, params)
        sim.at(0, sender.start)
    sim.run(until=200 * MILLIS)
    for port in db.topo.all_ports():
        assert port.backlog_bytes() == 0
        assert not port.busy
    # No events leaked (timers all cancelled once flows finished).
    assert sim.pending() == 0
