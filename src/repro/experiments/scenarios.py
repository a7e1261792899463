"""Scheme wiring: switch queue configurations and endpoint factories.

Every deployment scheme in §6.2 is a pair of decisions:

1. **How switch ports are configured** (``queue_factory``): which queues
   exist, their priorities/weights, credit rate limits, ECN and selective-
   dropping thresholds, and the DSCP -> queue classifier.
2. **Which transport a "new" flow uses** (``launch``): legacy flows are
   always DCTCP; upgraded flows are ExpressPass (naïve, oWF, or behind
   FlexPass's switch), Layering, FlexPass (and its §4.3 variants), or Homa.

:class:`SchemeSetup` bundles both so topology builders and traffic
generators stay scheme-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.flexpass import FlexPassParams, FlexPassReceiver, FlexPassSender
from repro.core.variants import (
    Rc3SplitReceiver,
    Rc3SplitSender,
    alt_queue_params,
)
from repro.experiments.config import (
    ConfigError,
    ExperimentConfig,
    QueueSettings,
    SchemeName,
)
from repro.net.fabric import (
    FabricHandle,
    TopologySpec,
    build_from_spec,
    clos_to_topology_spec,
    load_topology_spec,
)
from repro.net.packet import Dscp
from repro.net.queues import PacketQueue, QueueConfig
from repro.net.ratelimit import TokenBucket
from repro.net.scheduler import QueueSchedule
from repro.net.topology import ClosSpec
from repro.sim.units import KB, MILLIS
from repro.transports.base import CompletionCallback, FlowSpec, FlowStats
from repro.transports.credit_feedback import CREDIT_PER_DATA, FeedbackParams
from repro.transports.dctcp import DctcpParams, DctcpReceiver, DctcpSender
from repro.transports.expresspass import (
    ExpressPassParams,
    ExpressPassReceiver,
    ExpressPassSender,
)
from repro.transports.homa import HomaParams, HomaReceiver, HomaSender
from repro.transports.layering import LayeringParams, LayeringReceiver, LayeringSender
from repro.workloads.gen import TrafficConfig

#: Every DSCP the classifier must map somewhere.
ALL_DSCPS: List[int] = [d.value for d in Dscp] + [
    Dscp.HOMA_BASE + p for p in range(8)
]

def _scaled(anchor_at_40g: int, rate_bps: int) -> int:
    """Rate-proportional threshold: equal queueing *delay* to the paper's
    40 Gbps configuration. Floored at ~4 MTUs so marking still works on
    slow links."""
    return max(4 * 1584, int(anchor_at_40g * rate_bps / 40e9))


def _q1_ecn_bytes(qs: QueueSettings, rate_bps: int) -> int:
    if qs.q1_ecn_bytes is not None:
        return qs.q1_ecn_bytes
    return _scaled(QueueSettings.Q1_ECN_AT_40G, rate_bps)


def _q1_seldrop_bytes(qs: QueueSettings, rate_bps: int) -> int:
    if qs.q1_seldrop_bytes is not None:
        return qs.q1_seldrop_bytes
    return _scaled(QueueSettings.Q1_SELDROP_AT_40G, rate_bps)


def _q2_ecn_bytes(qs: QueueSettings, rate_bps: int) -> int:
    if qs.q2_ecn_bytes is not None:
        return qs.q2_ecn_bytes
    return _scaled(QueueSettings.Q2_ECN_AT_40G, rate_bps)


# ------------------------------------------------------------ queue factories
#
# A factory builds its DSCP classifier once: a port only reads its
# classifier, so every port the factory configures shares the one dict.
# Its queue configs are frozen and depend on nothing but the link rate, so
# it builds them once per rate and every port of that rate shares them.


def flexpass_queue_factory(qs: QueueSettings):
    """§4.1 switch configuration: Q0 credits (strict priority, rate limited
    to w_q), Q1 FlexPass data (ECN + selective dropping), Q2 legacy —
    Q1/Q2 scheduled by DWRR with weights w_q / 1-w_q.

    Host NICs carry the same queue structure but their credit limiter runs
    at the full line-rate equivalent: per-flow credit pacing already caps
    each flow at w_q, and the testbed behaviour of Figure 7(b) — two
    proactive sub-flows together filling the link and starving reactive —
    requires the NIC not to clamp the *aggregate* to w_q.
    """

    classifier = {d: 2 for d in ALL_DSCPS}
    classifier[Dscp.CREDIT.value] = 0
    classifier[Dscp.PROACTIVE_DATA.value] = 1
    classifier[Dscp.REACTIVE_DATA.value] = 1
    classifier[Dscp.FLEX_CONTROL.value] = 1

    @cache
    def configs(rate_bps: int) -> Tuple[QueueConfig, ...]:
        return (
            QueueConfig(name="q0-credit", capacity_bytes=qs.credit_buffer_bytes),
            QueueConfig(
                name="q1-flexpass",
                ecn_threshold_bytes=_q1_ecn_bytes(qs, rate_bps),
                selective_drop_bytes=_q1_seldrop_bytes(qs, rate_bps),
            ),
            QueueConfig(name="q2-legacy",
                        ecn_threshold_bytes=_q2_ecn_bytes(qs, rate_bps)),
        )

    def factory(name: str, rate_bps: int, is_host_nic: bool):
        credit_q, flex_q, legacy_q = map(PacketQueue, configs(rate_bps))
        credit_fraction = 1.0 if is_host_nic else qs.wq
        pacer = TokenBucket(
            max(1, int(rate_bps * credit_fraction * CREDIT_PER_DATA)),
            bucket_bytes=2 * 84,
        )
        schedules = [
            QueueSchedule(credit_q, priority=0, weight=1.0, pacer=pacer),
            QueueSchedule(flex_q, priority=1, weight=qs.wq),
            QueueSchedule(legacy_q, priority=1, weight=1.0 - qs.wq),
        ]
        return schedules, classifier

    return factory


def naive_queue_factory(qs: QueueSettings):
    """Naïve deployment: full-rate credit queue + ONE shared data queue for
    ExpressPass data and legacy traffic (no isolation)."""
    classifier = {d: 1 for d in ALL_DSCPS}
    classifier[Dscp.CREDIT.value] = 0

    @cache
    def configs(rate_bps: int) -> Tuple[QueueConfig, ...]:
        return (
            QueueConfig(name="q0-credit", capacity_bytes=qs.credit_buffer_bytes),
            QueueConfig(name="q1-shared",
                        ecn_threshold_bytes=_q2_ecn_bytes(qs, rate_bps)),
        )

    def factory(name: str, rate_bps: int, is_host_nic: bool):
        credit_q, data_q = map(PacketQueue, configs(rate_bps))
        pacer = TokenBucket(max(1, int(rate_bps * CREDIT_PER_DATA)), bucket_bytes=2 * 84)
        schedules = [
            QueueSchedule(credit_q, priority=0, weight=1.0, pacer=pacer),
            QueueSchedule(data_q, priority=1, weight=1.0),
        ]
        return schedules, classifier

    return factory


def owf_queue_factory(qs: QueueSettings, fraction: float):
    """Oracle WFQ: two data queues weighted by the *known* traffic split
    (the impractical scheme the paper uses as the upper baseline)."""
    fraction = min(max(fraction, 0.02), 0.98)  # DWRR needs nonzero weights
    classifier = {d: 2 for d in ALL_DSCPS}
    classifier[Dscp.CREDIT.value] = 0
    classifier[Dscp.PROACTIVE_DATA.value] = 1
    classifier[Dscp.FLEX_CONTROL.value] = 1

    @cache
    def configs(rate_bps: int) -> Tuple[QueueConfig, ...]:
        return (
            QueueConfig(name="q0-credit", capacity_bytes=qs.credit_buffer_bytes),
            QueueConfig(name="q1-xp"),
            QueueConfig(name="q2-legacy",
                        ecn_threshold_bytes=_q2_ecn_bytes(qs, rate_bps)),
        )

    def factory(name: str, rate_bps: int, is_host_nic: bool):
        credit_q, xp_q, legacy_q = map(PacketQueue, configs(rate_bps))
        credit_fraction = 1.0 if is_host_nic else fraction
        pacer = TokenBucket(
            max(1, int(rate_bps * credit_fraction * CREDIT_PER_DATA)),
            bucket_bytes=2 * 84,
        )
        schedules = [
            QueueSchedule(credit_q, priority=0, weight=1.0, pacer=pacer),
            QueueSchedule(xp_q, priority=1, weight=fraction),
            QueueSchedule(legacy_q, priority=1, weight=1.0 - fraction),
        ]
        return schedules, classifier

    return factory


def homa_shared_queue_factory():
    """Figure 1(b) configuration: grants in a small strict-priority queue,
    Homa data and DCTCP sharing one ECN FIFO (no coexistence measures).

    Note (DESIGN.md): with DCTCP alone in a strictly-higher-priority queue
    (footnote 3's testbed mapping), a work-conserving per-packet priority
    scheduler provably protects ACK-clocked DCTCP — our model shows that,
    see tests. The published starvation therefore reproduces under the
    shared-queue premise the figure is actually making a point about.
    """
    classifier = {d: 1 for d in ALL_DSCPS}
    classifier[Dscp.HOMA_BASE + 0] = 0  # grants
    grant_cfg = QueueConfig(name="grants", capacity_bytes=10 * KB)
    data_cfg = QueueConfig(name="shared", ecn_threshold_bytes=100 * KB)

    def factory(name: str, rate_bps: int, is_host_nic: bool):
        grant_q = PacketQueue(grant_cfg)
        data_q = PacketQueue(data_cfg)
        schedules = [
            QueueSchedule(grant_q, priority=0, weight=1.0),
            QueueSchedule(data_q, priority=1, weight=1.0),
        ]
        return schedules, classifier

    return factory


def homa_queue_factory(n_prios: int = 8):
    """Eight strict priority queues; DCTCP mapped to the highest (footnote 3)."""
    classifier: Dict[int, int] = {Dscp.HOMA_BASE + p: p for p in range(n_prios)}
    for d in (Dscp.LEGACY, Dscp.CREDIT, Dscp.PROACTIVE_DATA,
              Dscp.REACTIVE_DATA, Dscp.FLEX_CONTROL):
        classifier[d.value] = 0
    # prio 0 carries DCTCP and needs its ECN signal
    configs = [QueueConfig(name=f"prio{p}",
                           ecn_threshold_bytes=65 * KB if p == 0 else None)
               for p in range(n_prios)]

    def factory(name: str, rate_bps: int, is_host_nic: bool):
        schedules = [QueueSchedule(PacketQueue(cfg), priority=p, weight=1.0)
                     for p, cfg in enumerate(configs)]
        return schedules, classifier

    return factory


# --------------------------------------------------------------- SchemeSetup


@dataclass
class SchemeSetup:
    """Queue factory + per-flow endpoint launcher for one scheme."""

    name: SchemeName
    queue_factory: Callable
    #: launch(sim, spec, stats, on_complete) -> sender (already registered)
    launch_new: Callable
    launch_legacy: Callable

    def launch(self, sim, spec: FlowSpec, on_complete: Optional[CompletionCallback]):
        """Create endpoints for ``spec`` and schedule the sender start."""
        stats = FlowStats()
        if spec.group == "new":
            sender = self.launch_new(sim, spec, stats, on_complete)
        else:
            sender = self.launch_legacy(sim, spec, stats, on_complete)
        if spec.start_ns >= sim.now:
            sim.at(spec.start_ns, sender.start)
        else:
            sender.start()
        return stats


def dctcp_launcher():
    """Legacy-flow launcher: plain DCTCP endpoints. Each launcher builds
    its (frozen) params once, and every flow it starts shares them."""
    params = DctcpParams()

    def launch(sim, spec, stats, on_complete):
        DctcpReceiver(sim, spec, stats, params, on_complete=on_complete)
        return DctcpSender(sim, spec, stats, params)

    return launch


def expresspass_launcher(cfg: ExperimentConfig, credit_fraction: float):
    """ExpressPass endpoints credit-limited to ``credit_fraction`` of the
    line rate. Data goes out as PROACTIVE_DATA and control as
    FLEX_CONTROL; each queue factory's classifier decides which queue
    that is."""
    params = ExpressPassParams(
        max_credit_rate_bps=(cfg.reference_rate_bps * credit_fraction
                             * CREDIT_PER_DATA),
        update_period_ns=cfg.update_period_ns,
    )

    def launch(sim, spec, stats, on_complete):
        ExpressPassReceiver(sim, spec, stats, params, on_complete=on_complete)
        return ExpressPassSender(sim, spec, stats, params)

    return launch


def layering_launcher(cfg: ExperimentConfig):
    """ExpressPass+ window-overlay endpoints (the Layering scheme [45])."""
    params = LayeringParams(
        max_credit_rate_bps=cfg.reference_rate_bps * CREDIT_PER_DATA,
        update_period_ns=cfg.update_period_ns,
    )

    def launch(sim, spec, stats, on_complete):
        LayeringReceiver(sim, spec, stats, params, on_complete=on_complete)
        return LayeringSender(sim, spec, stats, params)

    return launch


def flexpass_params_for(cfg: ExperimentConfig) -> FlexPassParams:
    return FlexPassParams(
        max_credit_rate_bps=cfg.reference_rate_bps * cfg.queues.wq * CREDIT_PER_DATA,
        update_period_ns=cfg.update_period_ns,
    )


def flexpass_launcher(cfg: ExperimentConfig, variant: str = ""):
    """FlexPass endpoints; ``variant`` selects the §4.3 alternatives
    ("rc3" RC3-splitting, "altq" alternative queueing, "" = base)."""
    params = flexpass_params_for(cfg)
    sender, receiver = FlexPassSender, FlexPassReceiver
    if variant == "altq":
        params = alt_queue_params(params)
    if variant == "rc3":
        params = replace(params, enable_proactive_rtx=False)
        sender, receiver = Rc3SplitSender, Rc3SplitReceiver

    def launch(sim, spec, stats, on_complete):
        receiver(sim, spec, stats, params, on_complete=on_complete)
        return sender(sim, spec, stats, params)

    return launch


def homa_launcher(cfg: ExperimentConfig):
    """Receiver-driven Homa endpoints granting at the full line rate
    (the Figure 1(b) baseline: no awareness of coexisting legacy traffic)."""
    params = HomaParams(grant_rate_bps=cfg.reference_rate_bps, grant_prio=0,
                        unscheduled_prio=1, scheduled_prio=1)

    def launch(sim, spec, stats, on_complete):
        HomaReceiver(sim, spec, stats, params, on_complete=on_complete)
        return HomaSender(sim, spec, stats, params)

    return launch


def make_scheme_setup(cfg: ExperimentConfig) -> SchemeSetup:
    """Build the queue factory and flow launchers for ``cfg.scheme``.

    This is the one audited launch path: figures, sweeps, and the runner
    all derive their endpoints from the launchers assembled here.
    """
    qs = cfg.queues
    legacy = dctcp_launcher()
    scheme = cfg.scheme
    if scheme == SchemeName.DCTCP:
        return SchemeSetup(scheme, flexpass_queue_factory(qs), legacy, legacy)
    if scheme == SchemeName.NAIVE:
        return SchemeSetup(
            scheme, naive_queue_factory(qs),
            expresspass_launcher(cfg, credit_fraction=1.0),
            legacy,
        )
    if scheme == SchemeName.EXPRESSPASS:
        # one switch configuration for every transport, as on the testbed
        return SchemeSetup(
            scheme, flexpass_queue_factory(qs),
            expresspass_launcher(cfg, credit_fraction=qs.wq), legacy,
        )
    if scheme == SchemeName.OWF:
        # the oracle knows the true fraction of new-transport traffic
        fraction = max(cfg.deployment ** 2, 0.02)  # both endpoints upgraded
        return SchemeSetup(
            scheme, owf_queue_factory(qs, fraction),
            expresspass_launcher(cfg, credit_fraction=fraction),
            legacy,
        )
    if scheme == SchemeName.LAYERING:
        return SchemeSetup(
            scheme, naive_queue_factory(qs), layering_launcher(cfg), legacy
        )
    if scheme == SchemeName.FLEXPASS:
        return SchemeSetup(
            scheme, flexpass_queue_factory(qs), flexpass_launcher(cfg), legacy
        )
    if scheme == SchemeName.FLEXPASS_RC3:
        return SchemeSetup(
            scheme, flexpass_queue_factory(qs), flexpass_launcher(cfg, "rc3"), legacy
        )
    if scheme == SchemeName.FLEXPASS_ALTQ:
        return SchemeSetup(
            scheme, flexpass_queue_factory(qs), flexpass_launcher(cfg, "altq"), legacy
        )
    if scheme == SchemeName.HOMA:
        return SchemeSetup(
            scheme, homa_shared_queue_factory(), homa_launcher(cfg), legacy
        )
    raise ValueError(f"unknown scheme {scheme}")


def build_topology(sim, make_queues, cfg: ExperimentConfig) -> FabricHandle:
    """Build the config's fabric: ``cfg.topology_spec`` when one is declared,
    else ``cfg.clos`` emitted as a spec. Both go through
    :func:`repro.net.fabric.build_from_spec`, the one builder."""
    spec = cfg.topology_spec
    if spec is None:
        spec = clos_to_topology_spec(cfg.clos)
    return build_from_spec(sim, make_queues, spec)


# --------------------------------------------------------------------------
# Regional declarative fabrics (multi-DC what-if studies)


def regional_fabric_config(spec, scheme: SchemeName = SchemeName.FLEXPASS,
                           load: float = 0.5, sim_time_ns: int = 2 * MILLIS,
                           seed: int = 1,
                           locality_intra: Optional[float] = 0.8,
                           **overrides) -> ExperimentConfig:
    """Config for any scheme over a declarative :class:`TopologySpec`.

    ``spec`` is a TopologySpec or a path to a YAML/JSON file or CSV
    directory. ``locality_intra`` keeps that fraction of traffic inside the
    sender's region (WAN backbones carry the rest); None is uniform
    all-to-all.
    """
    if not isinstance(spec, TopologySpec):
        spec = load_topology_spec(spec)
    spec.validate()
    params = dict(
        scheme=SchemeName(scheme), topology_spec=spec, load=load,
        sim_time_ns=sim_time_ns, seed=seed,
        traffic=TrafficConfig.paper(locality_intra=locality_intra),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def run_regional_fabric(spec, **kwargs):
    """Build a regional-fabric config and run it (convenience launcher)."""
    from repro.experiments.runner import run_experiment

    return run_experiment(regional_fabric_config(spec, **kwargs))


# --------------------------------------------------------------------------
# Paper-scale Clos deployment scenario (§6.2, Figs 10-11)

#: one §6.2 pod: 4 ToRs x 6 hosts (2 aggs ride along per pod)
PAPER_HOSTS_PER_POD = 24


def paper_scale_config(hosts: int = 192, **overrides) -> ExperimentConfig:
    """The §6.2 Clos deployment scenario at (a fraction of) paper scale.

    ``hosts`` must be a multiple of 24 — the paper pod is 4 ToRs x 6 hosts
    with 2 aggs and 40 Gbps everywhere; ``hosts=192`` (8 pods) is the full
    Figs 10-11 fabric. Flow sizes are unscaled (``size_scale=1``) — this
    scenario exists to exercise the credit plane at real credit rates. The
    horizon defaults to 2 ms; ``overrides`` set any other config field
    (``load=1.0`` is the paper's saturation operating point).
    """
    if hosts <= 0 or hosts % PAPER_HOSTS_PER_POD:
        raise ConfigError(
            f"hosts must be a positive multiple of {PAPER_HOSTS_PER_POD} "
            f"(one paper pod), got {hosts}")
    clos = replace(ClosSpec.paper_scale(), n_pods=hosts // PAPER_HOSTS_PER_POD)
    params = dict(clos=clos, size_scale=1.0, sim_time_ns=2 * MILLIS)
    params.update(overrides)
    return ExperimentConfig(**params)
