#!/usr/bin/env python
"""cProfile harness for the simulator hot paths.

Runs the same workloads the simulator-core benchmarks time — pure event
dispatch, store-and-forward packet forwarding, and the strict-priority +
DWRR egress scheduler — outside pytest, so they can be profiled, scaled,
and scripted from CI.

Examples::

    # quick smoke (small sizes, no thresholds) + machine-readable record
    python tools/profile_sim.py --scenario all --quick --json /tmp/BENCH_engine.json

    # where does event dispatch spend its time?
    python tools/profile_sim.py --scenario dispatch --profile

    # scale up the scheduler microbench
    python tools/profile_sim.py --scenario dwrr --packets 500000
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.metrics.bench import record_bench  # noqa: E402
from repro.net.packet import Dscp, Packet, PacketKind  # noqa: E402
from repro.net.queues import PacketQueue, QueueConfig  # noqa: E402
from repro.net.scheduler import PortScheduler, QueueSchedule  # noqa: E402
from repro.net import DumbbellSpec, build_dumbbell  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402


def _single_queue_factory(name, rate_bps, is_host_nic):
    """All traffic in one FIFO — the simplest valid port."""
    q = PacketQueue(QueueConfig(name="all"))
    classifier = {d.value: 0 for d in Dscp}
    classifier.update({Dscp.HOMA_BASE + p: 0 for p in range(8)})
    return [QueueSchedule(q, priority=0, weight=1.0)], classifier


class _Recorder:
    def __init__(self):
        self.count = 0

    def on_packet(self, pkt):
        self.count += 1


def scenario_dispatch(n_events: int) -> dict:
    """Pure engine: schedule/execute ``n_events`` chained events."""
    sim = Simulator()
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < n_events:
            sim.after(10, tick)

    sim.at(0, tick)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert count[0] == n_events
    return {"n_events": n_events, "elapsed_s": elapsed,
            "events_per_sec": n_events / elapsed}


def scenario_forwarding(n_packets: int) -> dict:
    """Fabric: push ``n_packets`` across a 3-hop dumbbell path."""
    sim = Simulator()
    db = build_dumbbell(sim, _single_queue_factory, DumbbellSpec(n_pairs=1))
    rec = _Recorder()
    db.receivers[0].register_receiver(1, rec)
    src, dst = db.senders[0], db.receivers[0]
    for _ in range(n_packets):
        src.send(Packet(PacketKind.DATA, 1, src.id, dst.id, 1584,
                        dscp=Dscp.LEGACY))
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert rec.count == n_packets
    return {"n_packets": n_packets, "elapsed_s": elapsed,
            "packets_per_sec": n_packets / elapsed,
            "events_per_sec": sim.events_run / elapsed}


def scenario_telemetry(n_packets: int) -> dict:
    """Forwarding with a telemetry sampler attached at the default cadence.

    Same dumbbell workload as ``scenario_forwarding``, plus a
    :class:`~repro.metrics.telemetry.TelemetrySampler` watching every port
    on the path at 100 µs — the telemetry-ON side of the overhead gate in
    ``benchmarks/test_bench_simulator_perf.py``.
    """
    from repro.metrics.telemetry import TelemetrySampler
    from repro.sim.units import MILLIS

    sim = Simulator()
    db = build_dumbbell(sim, _single_queue_factory, DumbbellSpec(n_pairs=1))
    rec = _Recorder()
    db.receivers[0].register_receiver(1, rec)
    src, dst = db.senders[0], db.receivers[0]
    # 1584 B at 10 Gbps serializes in ~1.27 µs, so the bottleneck drains in
    # ~1.27 µs x n_packets: bound the sampler just past that so it covers
    # the whole run but lets the heap empty.
    horizon = ((n_packets * 1600) // MILLIS + 2) * MILLIS
    sampler = TelemetrySampler(sim, interval_ns=100_000, until_ns=horizon)
    for port in db.topo.all_ports():
        sampler.watch_port(port)
        sampler.watch_link(port)
    sampler.watch_pool()
    sampler.start()
    for _ in range(n_packets):
        src.send(Packet(PacketKind.DATA, 1, src.id, dst.id, 1584,
                        dscp=Dscp.LEGACY))
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert rec.count == n_packets
    series = sampler.freeze()
    return {"n_packets": n_packets, "elapsed_s": elapsed,
            "packets_per_sec": n_packets / elapsed,
            "n_series": len(series), "ticks": sampler.ticks}


def scenario_audit(n_packets: int) -> dict:
    """Forwarding with the invariant auditor fully enabled.

    Same dumbbell workload as ``scenario_forwarding``, plus digest taps on
    every link, periodic checkpoints at 100 µs, and the full horizon audit
    — the audit-ON side of the overhead gate in
    ``benchmarks/test_bench_simulator_perf.py`` (the gate itself holds the
    *disabled* path to <2%; this scenario tracks the enabled cost).
    """
    from repro.audit import AuditConfig, InvariantAuditor
    from repro.sim.units import MILLIS

    sim = Simulator()
    db = build_dumbbell(sim, _single_queue_factory, DumbbellSpec(n_pairs=1))
    rec = _Recorder()
    db.receivers[0].register_receiver(1, rec)
    src, dst = db.senders[0], db.receivers[0]
    horizon = ((n_packets * 1600) // MILLIS + 2) * MILLIS
    auditor = InvariantAuditor(
        sim, db.topo,
        config=AuditConfig(digest=True, checkpoint_interval_ns=100_000))
    auditor.install(horizon)
    for _ in range(n_packets):
        src.send(Packet(PacketKind.DATA, 1, src.id, dst.id, 1584,
                        dscp=Dscp.LEGACY))
    t0 = time.perf_counter()
    sim.run()
    report = auditor.finalize()
    elapsed = time.perf_counter() - t0
    assert rec.count == n_packets
    assert report.ok, report.violations
    return {"n_packets": n_packets, "elapsed_s": elapsed,
            "packets_per_sec": n_packets / elapsed,
            "checks": report.checks, "digest_events": report.digest.total}


def scenario_dwrr(n_packets: int) -> dict:
    """Egress scheduler: drain ``n_packets`` through a 3-queue port config
    (strict-priority credit queue + two DWRR data queues, one small-weight)."""
    queues = [PacketQueue(QueueConfig(name=f"q{i}")) for i in range(3)]
    sched = PortScheduler([
        QueueSchedule(queues[0], priority=0, weight=1.0),
        QueueSchedule(queues[1], priority=1, weight=1.0),
        QueueSchedule(queues[2], priority=1, weight=0.05),
    ])
    per_queue = n_packets // 3
    for q in queues:
        for _ in range(per_queue):
            q.push(Packet(PacketKind.DATA, 1, 0, 1, 1500, dscp=Dscp.LEGACY))
    total = 3 * per_queue
    t0 = time.perf_counter()
    served = 0
    while True:
        pkt, _ = sched.next(0)
        if pkt is None:
            break
        served += 1
    elapsed = time.perf_counter() - t0
    assert served == total, f"scheduler wedged: {served}/{total} served"
    return {"n_packets": total, "elapsed_s": elapsed,
            "packets_per_sec": total / elapsed}



def scenario_pool(n_packets: int) -> dict:
    """Packet pool: acquire/release churn across two interleaved flows."""
    from repro.net.packet import PacketPool

    pool = PacketPool(max_size=4096)
    t0 = time.perf_counter()
    live = []
    for i in range(n_packets):
        pkt = pool.acquire(PacketKind.DATA, 1 + (i & 1), 0, 1, 1584,
                           seq=i, dscp=Dscp.LEGACY)
        live.append(pkt)
        if len(live) >= 32:
            # release the oldest half, like packets draining a queue
            for p in live[:16]:
                pool.release(p)
            del live[:16]
    for p in live:
        pool.release(p)
    elapsed = time.perf_counter() - t0
    assert pool.acquired == n_packets and pool.released == n_packets
    return {"n_packets": n_packets, "elapsed_s": elapsed,
            "packets_per_sec": n_packets / elapsed,
            "reuse_ratio": pool.reused / max(1, pool.acquired)}


def scenario_sweep(n_configs: int) -> dict:
    """Sweep: stream ``n_configs`` tiny Clos experiments through run_many."""
    from repro.experiments.config import ExperimentConfig, SchemeName
    from repro.experiments.parallel import run_many, FailedResult

    configs = [
        ExperimentConfig(scheme=SchemeName.DCTCP, sim_time_ns=1_000_000,
                         load=0.3, seed=seed)
        for seed in range(1, n_configs + 1)
    ]
    t0 = time.perf_counter()
    results = run_many(configs)
    elapsed = time.perf_counter() - t0
    failed = sum(1 for r in results if isinstance(r, FailedResult))
    assert failed == 0, f"{failed} configs failed"
    return {"n_configs": n_configs, "elapsed_s": elapsed,
            "configs_per_sec": n_configs / elapsed}


def scenario_clos_full(horizon_us: int) -> dict:
    """Paper-scale Clos (192 hosts, 40 Gbps, §6.2 shape) at full load.

    The headline deployment scenario: every host credit-paced at 40 Gbps,
    so the credit plane — not event dispatch — dominates. ``size`` is the
    simulated horizon in microseconds (the fabric and load are fixed at
    paper scale; scaling the horizon scales events near-linearly).
    """
    from repro.experiments.runner import run_experiment
    from repro.experiments.scenarios import paper_scale_config
    from repro.sim.units import MICROS

    cfg = paper_scale_config(hosts=192, full_load=True,
                             sim_time_ns=horizon_us * MICROS)
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    assert not result.aborted, result.abort_reason
    return {"horizon_us": horizon_us, "n_events": result.events_run,
            "n_flows": len(result.records), "elapsed_s": elapsed,
            "events_per_sec": result.events_run / elapsed}


def scenario_traffic_gen(n_flows: int) -> dict:
    """Streaming generator suite: merge three composed sources, digest
    ``n_flows`` flows.

    Pure generator overhead — no simulator. Exercises the empirical-CDF
    open-loop source, an ON/OFF-modulated bimodal source with a locality
    matrix, and a coflow source, merged by start time through
    ``merge_sources`` exactly as the runner's streaming pump consumes them.
    """
    import itertools

    from repro.sim.rng import RngRegistry
    from repro.workloads.gen import (SourceConfig, TrafficConfig,
                                     build_sources, merge_sources,
                                     stream_digest, stub_groups)

    traffic = TrafficConfig(sources=(
        SourceConfig(name="bg", kind="open", load_share=0.7,
                     locality="grouped:intra=0.8"),
        SourceConfig(name="burst", kind="open", load_share=0.2,
                     sizes="bimodal:small_kb=2,large_mb=0.5",
                     arrivals="onoff:on_us=50,off_us=200",
                     locality="matrix:intra=0.6"),
        SourceConfig(name="jobs", kind="coflow", load_share=0.1, fanout=4),
    ))
    groups = stub_groups(32, 4)
    hosts = [h for g in groups for h in g]
    sources = build_sources(traffic, hosts, groups, load=0.6,
                            rate_bps=10e9, sim_time_ns=1 << 62,
                            size_scale=8.0)
    stream = itertools.islice(merge_sources(sources, RngRegistry(1)),
                              n_flows)
    t0 = time.perf_counter()
    digest = stream_digest(stream)
    elapsed = time.perf_counter() - t0
    assert digest.flows >= n_flows
    return {"n_flows": digest.flows, "elapsed_s": elapsed,
            "flows_per_sec": digest.flows / elapsed,
            "total_bytes": digest.total_bytes}


def scenario_experiment(_size: int) -> dict:
    """One full ``run_experiment`` on the default config (profiling target)."""
    from repro.experiments.config import ExperimentConfig, SchemeName
    from repro.experiments.runner import run_experiment

    cfg = ExperimentConfig(scheme=SchemeName.FLEXPASS, sim_time_ns=5_000_000,
                           load=0.5)
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    return {"n_events": result.events_run, "n_flows": len(result.records),
            "elapsed_s": elapsed,
            "events_per_sec": result.events_run / elapsed}


SCENARIOS = {
    "dispatch": (scenario_dispatch, "events"),
    "forwarding": (scenario_forwarding, "packets"),
    "telemetry": (scenario_telemetry, "packets"),
    "audit": (scenario_audit, "packets"),
    "dwrr": (scenario_dwrr, "packets"),
    "pool": (scenario_pool, "packets"),
    "sweep": (scenario_sweep, "configs"),
    "clos_full": (scenario_clos_full, "microseconds"),
    "traffic_gen": (scenario_traffic_gen, "flows"),
    "experiment": (scenario_experiment, "events"),
}

#: benchmark-record names, kept in sync with benchmarks/test_bench_simulator_perf.py
RECORD_NAMES = {
    "dispatch": "event_dispatch",
    "forwarding": "packet_forwarding",
    "telemetry": "telemetry_overhead",
    "audit": "audit_overhead",
    "dwrr": "dwrr_egress",
    "pool": "packet_pool",
    "sweep": "sweep_throughput",
    "clos_full": "clos_full",
    "traffic_gen": "traffic_gen",
    # "experiment" is a profiling target, not a tracked benchmark
}

QUICK_SIZES = {"dispatch": 20_000, "forwarding": 2_000, "telemetry": 2_000,
               "audit": 2_000, "dwrr": 6_000, "pool": 20_000, "sweep": 4,
               "clos_full": 50, "traffic_gen": 20_000, "experiment": 1}
FULL_SIZES = {"dispatch": 200_000, "forwarding": 20_000, "telemetry": 20_000,
              "audit": 20_000, "dwrr": 60_000, "pool": 200_000, "sweep": 16,
              "clos_full": 200, "traffic_gen": 200_000, "experiment": 1}


def run_scenario(name: str, size: int, profile: bool, top: int,
                 sort: str = "cumulative") -> dict:
    fn, _unit = SCENARIOS[name]
    if profile:
        prof = cProfile.Profile()
        prof.enable()
        result = fn(size)
        prof.disable()
        stats = pstats.Stats(prof, stream=sys.stdout)
        stats.strip_dirs().sort_stats(sort)
        print(f"\n--- cProfile: {name} ---")
        stats.print_stats(top)
    else:
        result = fn(size)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scenario", choices=[*SCENARIOS, "all"], default="all")
    ap.add_argument("--events", type=int, default=None,
                    help="event count for the dispatch scenario")
    ap.add_argument("--packets", type=int, default=None,
                    help="packet count for forwarding/dwrr scenarios")
    ap.add_argument("--quick", action="store_true",
                    help="small sizes for smoke runs (CI)")
    ap.add_argument("--profile", action="store_true",
                    help="run under cProfile and print the hottest functions")
    ap.add_argument("--top", type=int, default=15,
                    help="rows of profile output to print")
    ap.add_argument("--sort", default="cumulative",
                    choices=("calls", "cumulative", "filename", "line",
                             "name", "nfl", "pcalls", "stdname", "time"),
                    help="pstats sort key for --profile output")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="merge results into a BENCH_engine.json file")
    args = ap.parse_args(argv)

    if args.scenario == "all":
        # "experiment" is a profiling target (a full run_experiment, ~15 s);
        # it only runs when asked for by name.
        names = [n for n in SCENARIOS if n != "experiment"]
    else:
        names = [args.scenario]
    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    for name in names:
        size = sizes[name]
        if name == "dispatch" and args.events is not None:
            size = args.events
        elif name != "dispatch" and args.packets is not None:
            size = args.packets
        result = run_scenario(name, size, args.profile, args.top,
                              args.sort)
        rate_key = next(k for k in result if k.endswith("_per_sec"))
        print(f"{name:12s} {result[rate_key]:>14,.0f} {rate_key} "
              f"({result['elapsed_s']:.3f} s)")
        if args.json:
            record_name = RECORD_NAMES.get(name)
            if record_name is not None:
                record_bench(record_name, result, path=args.json)
    if args.json:
        print(f"recorded -> {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
