"""Isolated probes: one layer's public functions, no program around them.

Diagnostics, not gates. Each probe returns ``(operations, host seconds)``
and is sized to last at least a second on the reference sandbox, so its
rate can be set beside the layer's share of a traced workload. A probe
whose API has moved reports ``null`` with the error and does not count
as a failed cell.

The probes carry their own recorder and single-queue factory; nothing is
imported from ``tests/`` or ``benchmarks/common.py``.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Dict, Tuple

from workloads import stream_traffic

#: divides every probe's size under ``--smoke``
SMOKE_DIVISOR = 100


def _probe_dispatch(n: int) -> Tuple[int, float]:
    """``Simulator.at/after/run``: two interleaved self-rescheduling chains."""
    from repro.sim import Simulator

    sim = Simulator()
    left = [n]

    def relative():
        left[0] -= 1
        if left[0] > 0:
            sim.after(10, relative)

    def absolute():
        left[0] -= 1
        if left[0] > 0:
            sim.at(sim.now + 7, absolute)

    sim.at(0, relative)
    sim.at(0, absolute)
    t0 = time.perf_counter()
    sim.run()
    return sim.events_run, time.perf_counter() - t0


def _probe_timers(n: int) -> Tuple[int, float]:
    """``TimerWheel`` churn shaped like RTO timers: every step arms one
    timer and cancels three out of four of the previous ones; the rest
    fire."""
    from repro.sim import Simulator
    from repro.sim.timerwheel import TimerWheel

    sim = Simulator()
    wheel = TimerWheel(sim)
    fired = [0]
    prev = [None]
    step = [0]

    def on_fire():
        fired[0] += 1

    def tick():
        i = step[0] = step[0] + 1
        if prev[0] is not None and i & 3:
            prev[0].cancel()
        prev[0] = wheel.arm(200_000 + (i & 1023) * 4_000, on_fire)
        if i < n:
            sim.after(5_000, tick)

    sim.at(0, tick)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    return wheel.armed_total + wheel.cancelled_total + fired[0], elapsed


def _probe_dwrr(n: int) -> Tuple[int, float]:
    """``PortScheduler.next`` draining the paper's 3-queue port: a strict-
    priority credit queue over two DWRR data queues, one lightly weighted."""
    from repro.net.packet import Dscp, Packet, PacketKind
    from repro.net.queues import PacketQueue, QueueConfig
    from repro.net.scheduler import PortScheduler, QueueSchedule

    queues = [PacketQueue(QueueConfig(name=f"q{i}")) for i in range(3)]
    sched = PortScheduler([
        QueueSchedule(queues[0], priority=0, weight=1.0),
        QueueSchedule(queues[1], priority=1, weight=1.0),
        QueueSchedule(queues[2], priority=1, weight=0.05),
    ])
    # One shared packet per queue: the scheduler only reads sizes, and
    # building n Packet objects would cost more than the drain being timed.
    for q in queues:
        pkt = Packet(PacketKind.DATA, 1, 0, 1, 1500, dscp=Dscp.LEGACY)
        for _ in range(n // 3):
            q.push(pkt)
    served = 0
    t0 = time.perf_counter()
    while True:
        pkt, _ = sched.next(0)
        if pkt is None:
            break
        served += 1
    return served, time.perf_counter() - t0


class _Counter:
    """Receiver that counts deliveries and lets packets return to the pool."""

    def __init__(self) -> None:
        self.count = 0

    def on_packet(self, pkt) -> None:
        self.count += 1


def _single_queue_factory(name, rate_bps, is_host_nic):
    """All traffic in one FIFO: the simplest valid port."""
    from repro.net.packet import Dscp
    from repro.net.queues import PacketQueue, QueueConfig
    from repro.net.scheduler import QueueSchedule

    classifier = {d.value: 0 for d in Dscp}
    classifier.update({Dscp.HOMA_BASE + p: 0 for p in range(8)})
    queue = PacketQueue(QueueConfig(name="all"))
    return [QueueSchedule(queue, priority=0, weight=1.0)], classifier


def _probe_forward(n: int) -> Tuple[int, float]:
    """Drain ``n`` packets across a 3-hop dumbbell path."""
    from repro.net import DumbbellSpec, build_dumbbell
    from repro.net.packet import Dscp, Packet, PacketKind
    from repro.sim import Simulator

    sim = Simulator()
    db = build_dumbbell(sim, _single_queue_factory, DumbbellSpec(n_pairs=1))
    sink = _Counter()
    src, dst = db.senders[0], db.receivers[0]
    dst.register_receiver(1, sink)
    for _ in range(n):
        src.send(Packet(PacketKind.DATA, 1, src.id, dst.id, 1584,
                        dscp=Dscp.LEGACY))
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    if sink.count != n:
        raise RuntimeError(f"delivered {sink.count} of {n} packets")
    return n, elapsed


def _probe_pool(n: int) -> Tuple[int, float]:
    """``PacketPool.acquire/release`` in the host TX -> fabric -> sink
    lifetime pattern, batched like a draining queue."""
    from repro.net.packet import Dscp, PacketKind, PacketPool

    pool = PacketPool(max_size=4096)
    live = []
    t0 = time.perf_counter()
    for i in range(n):
        live.append(pool.acquire(PacketKind.DATA, 1 + (i & 1), 0, 1, 1584,
                                 seq=i, dscp=Dscp.LEGACY))
        if len(live) >= 32:
            for pkt in live[:16]:
                pool.release(pkt)
            del live[:16]
    for pkt in live:
        pool.release(pkt)
    return pool.acquired + pool.released, time.perf_counter() - t0


def _probe_flows(n: int) -> Tuple[int, float]:
    """``merge_sources`` -> ``stream_digest`` over the four ``stream_audit``
    sources: the generator cost the streaming pump pays per flow."""
    from repro.sim import RngRegistry
    from repro.workloads import (build_sources, merge_sources, stream_digest,
                                 stub_groups)

    groups = stub_groups(24, 8)
    hosts = [h for g in groups for h in g]
    sources = build_sources(stream_traffic(), hosts, groups, load=0.6,
                            rate_bps=10e9, sim_time_ns=1 << 62,
                            size_scale=8.0)
    stream = itertools.islice(merge_sources(sources, RngRegistry(1)), n)
    t0 = time.perf_counter()
    digest = stream_digest(stream)
    return digest.flows, time.perf_counter() - t0


def _probe_summarize(n: int) -> Tuple[int, float]:
    """``metrics.fct.summarize`` over ``n`` records in rounds of 200k,
    alternating all flows with the small-flow/new-group filter."""
    from repro.metrics.fct import FlowRecord, summarize

    batch = min(n, 200_000)
    records = [FlowRecord(i, "flexpass", "new" if i & 1 else "legacy", "bg",
                          1_000 + (i * 7919) % 2_000_000, i * 100,
                          -1 if i % 97 == 0 else 10_000 + (i * 104729) % 10**7)
               for i in range(batch)]
    rounds = max(1, n // batch)
    t0 = time.perf_counter()
    for i in range(rounds):
        if i & 1:
            summarize(records, small_cutoff_bytes=100_000, group="new")
        else:
            summarize(records)
    return rounds * batch, time.perf_counter() - t0


#: name -> (probe, size, unit)
PROBES: Dict[str, Tuple[Callable[[int], Tuple[int, float]], int, str]] = {
    "probe.sim.dispatch_ev_per_s": (_probe_dispatch, 1_300_000, "1/s"),
    "probe.sim.timer_ops_per_s": (_probe_timers, 350_000, "1/s"),
    "probe.net.port.dwrr_pkts_per_s": (_probe_dwrr, 720_000, "1/s"),
    "probe.net.switch.forward_pkts_per_s": (_probe_forward, 190_000, "1/s"),
    "probe.net.packet.pool_ops_per_s": (_probe_pool, 720_000, "1/s"),
    "probe.workloads.flows_per_s": (_probe_flows, 140_000, "1/s"),
    "probe.metrics_audit.summarize_recs_per_s":
        (_probe_summarize, 8_400_000, "1/s"),
}


def run_probes(smoke: bool = False) -> Dict[str, dict]:
    out = {}
    for name, (probe, size, unit) in PROBES.items():
        n = max(64, size // SMOKE_DIVISOR) if smoke else size
        try:
            ops, elapsed = probe(n)
            out[name] = {"value": ops / elapsed, "unit": unit, "ops": ops,
                         "elapsed_s": elapsed, "error": None}
        except Exception as exc:  # noqa: BLE001 - a moved API is a null, not a crash
            out[name] = {"value": None, "unit": unit, "error": repr(exc)}
    return out
