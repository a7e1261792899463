"""The four end-to-end workloads of the perf observatory.

Every workload is closed, deterministic and single-process; one
"operation" is one simulation cell (one ``run_experiment``). All
horizons are constants here, with no env knobs: the only argument that
changes the load is the seed, which goes into every
``ExperimentConfig.seed``. Fabrics are spelled out as ``ClosSpec``s so
nothing here depends on ``benchmarks/common.py`` or ``tests/``.

The horizons are sized so one untraced body lasts about 3 s on the
reference sandbox when it is quiet: the driver's budget (92 runs in
3420 s) leaves about 30 s per run for five set-up children and six or
seven repeats, and on a sandbox that slows down for seconds to tens of
seconds at a time many short repeats find the undisturbed cost more
often than a few long ones. Shortening a horizon is the only allowed way
to fit a budget; the fabric, scheme set and load of each workload are
fixed.

``repro`` is imported inside the functions, so the orchestrator can read
names and horizons without paying (or timing) the import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

MICROS = 1_000
MILLIS = 1_000_000
GBPS = 1_000_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    #: simulated horizon of every cell
    horizon_ns: int
    #: horizon under ``--smoke`` (self-test only)
    smoke_horizon_ns: int
    #: switch-port enqueues of the seed-1 run at the commit that defined
    #: the benchmark. ``wall_s`` is reported at this stated input size
    #: (raw wall x ref / actual), so a seed that happens to draw more
    #: bytes is not read as a slower simulator. Only a scale factor: it
    #: is never compared with a measured count.
    ref_pkt_hops: int
    #: cells go through ``run_many`` and a SQLite result store
    sweep: bool = False


WORKLOADS = {w.name: w for w in (
    # The paper's headline operating point (§6.2): credit pacing at 40G
    # on all 192 hosts, so credit_plane, core and net.port do the work.
    Workload("clos192_full", horizon_ns=180 * MICROS,
             smoke_horizon_ns=20 * MICROS, ref_pkt_hops=124_048),
    # The sweep users actually run: all five transports, DWRR multi-queue
    # ports, selective dropping, and the only workload with the
    # experiments layer (config hashing, result encode, store) on the path.
    Workload("fig10_sweep", horizon_ns=700 * MICROS,
             smoke_horizon_ns=60 * MICROS, ref_pkt_hops=179_317,
             sweep=True),
    # The bypass workload: no credit-based flow exists, so credit_plane
    # and core execute zero calls and their optimisations must not move it.
    Workload("dctcp_fabric", horizon_ns=4500 * MICROS,
             smoke_horizon_ns=300 * MICROS, ref_pkt_hops=206_822),
    # Same layers used differently: thousands of tiny flows from the
    # streaming pump, coflow children released from completion callbacks,
    # auditor and telemetry busy on every delivery and tick.
    Workload("stream_audit", horizon_ns=2 * MILLIS,
             smoke_horizon_ns=300 * MICROS, ref_pkt_hops=120_291),
)}

#: The four merged sources of ``stream_audit`` (also what the
#: ``probe.workloads.flows_per_s`` probe digests).
STREAM_SOURCES = (
    dict(name="bg", kind="open", sizes="empirical",
         locality="grouped:intra=0.5", load_share=0.6),
    dict(name="burst", kind="open", sizes="bimodal",
         arrivals="onoff:on_us=50,off_us=200", load_share=0.2),
    dict(name="incast", kind="incast", role="fg", load_share=0.1),
    dict(name="jobs", kind="coflow", fanout=4, load_share=0.1),
)

#: Figure 10 grid at bench scale: one all-DCTCP baseline plus these
#: schemes x deployments (9 cells).
FIG10_SCHEMES = ("naive", "owf", "ly", "flexpass")
FIG10_DEPLOYMENTS = (0.5, 1.0)


def stream_traffic():
    from repro.workloads import SourceConfig, TrafficConfig

    return TrafficConfig(sources=tuple(SourceConfig(**s)
                                       for s in STREAM_SOURCES))


def build_configs(name: str, seed: int, smoke: bool = False) -> List:
    """The workload's cells, in the order they run."""
    from repro.audit import AuditConfig
    from repro.experiments import ExperimentConfig, SchemeName, TelemetryConfig
    from repro.net import ClosSpec

    wl = WORKLOADS[name]
    horizon = wl.smoke_horizon_ns if smoke else wl.horizon_ns
    fabric24 = ClosSpec(n_pods=2, aggs_per_pod=2, tors_per_pod=4,
                        hosts_per_tor=3, rate_bps=10 * GBPS)
    if name == "clos192_full":
        paper = ClosSpec(n_pods=8, aggs_per_pod=2, tors_per_pod=4,
                         hosts_per_tor=6, cores_per_group=4,
                         rate_bps=40 * GBPS)
        return [ExperimentConfig(
            scheme=SchemeName.FLEXPASS, deployment=1.0, load=1.0,
            workload="websearch", size_scale=1.0, clos=paper,
            sim_time_ns=horizon, seed=seed)]
    if name == "fig10_sweep":
        base = dict(
            workload="websearch", size_scale=8.0, load=0.5,
            clos=ClosSpec(n_pods=2, aggs_per_pod=2, tors_per_pod=2,
                          hosts_per_tor=3, rate_bps=10 * GBPS),
            sim_time_ns=horizon, seed=seed)
        cells = [ExperimentConfig(scheme=SchemeName.DCTCP, deployment=0.0,
                                  **base)]
        cells += [ExperimentConfig(scheme=SchemeName(s), deployment=d, **base)
                  for s in FIG10_SCHEMES for d in FIG10_DEPLOYMENTS]
        return cells
    if name == "dctcp_fabric":
        return [ExperimentConfig(
            scheme=SchemeName.DCTCP, deployment=0.0, load=0.6,
            workload="websearch", size_scale=8.0, clos=fabric24,
            sim_time_ns=horizon, seed=seed)]
    if name == "stream_audit":
        return [ExperimentConfig(
            scheme=SchemeName.FLEXPASS, deployment=0.5, load=0.6,
            workload="websearch", size_scale=8.0, clos=fabric24,
            sim_time_ns=horizon, seed=seed, traffic=stream_traffic(),
            audit=AuditConfig(enabled=True, digest=True),
            telemetry=TelemetryConfig(ports="all"))]
    raise KeyError(name)
