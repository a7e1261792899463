"""Experiment configuration.

One :class:`ExperimentConfig` fully determines a simulation run: topology,
deployment scheme, switch queue parameters (§6 settings), workload, load
level, deployment ratio, and seed. Defaults follow the paper's simulation
section scaled down for pure-Python execution speed; the paper-scale values
are documented inline and built by
:func:`repro.experiments.scenarios.paper_scale_config`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from repro.net.topology import ClosSpec
from repro.sim.units import GBPS, KB, MICROS, MILLIS
from repro.workloads.gen import TrafficConfig

if TYPE_CHECKING:  # pragma: no cover - a feature's config loads with its use
    from repro.audit.config import AuditConfig
    from repro.faults.spec import FaultPlan
    from repro.metrics.telemetry_config import TelemetryConfig
    from repro.net.fabric import TopologySpec


class SchemeName(str, enum.Enum):
    """Deployment schemes compared in §6.2 (plus the Homa baseline of §2)."""

    DCTCP = "dctcp"          # baseline: nothing deployed
    NAIVE = "naive"          # ExpressPass dropped in beside legacy traffic
    EXPRESSPASS = "expresspass"  # ExpressPass behind FlexPass's switch (Fig 8)
    OWF = "owf"              # oracle weighted fair queueing
    LAYERING = "ly"          # ExpressPass+ window overlay [45]
    FLEXPASS = "flexpass"
    FLEXPASS_RC3 = "flexpass_rc3"    # §4.3 RC3-splitting variant
    FLEXPASS_ALTQ = "flexpass_altq"  # §4.3 alternative-queueing variant
    HOMA = "homa"            # receiver-driven baseline sharing legacy queues


class ConfigError(ValueError):
    """A config no run can be built from, found when it is built."""


@dataclass
class QueueSettings:
    """Per-port queue parameters (§6.1 testbed / §6.2 simulation values).

    The paper quotes byte thresholds for 40 Gbps links (Q1 ECN 65 kB,
    selective dropping 150 kB, legacy ECN 100 kB). Queueing *delay* — what
    the FCT figures actually measure — is threshold/rate, so when left
    ``None`` the scenario builder scales each threshold with the port rate
    to keep the delay equal to the paper's. Set explicit byte values to
    pin them instead.
    """

    #: FlexPass queue weight w_q (Q1); legacy gets 1 - w_q.
    wq: float = 0.5
    #: ECN marking threshold on the FlexPass queue Q1 (65 kB at 40 Gbps).
    q1_ecn_bytes: Optional[int] = None
    #: Selective-dropping threshold for reactive bytes (150 kB at 40 Gbps).
    q1_seldrop_bytes: Optional[int] = None
    #: ECN marking threshold on the legacy queue (100 kB at 40 Gbps).
    q2_ecn_bytes: Optional[int] = None
    #: Credit queue static buffer (<1 kB per §4.1).
    credit_buffer_bytes: int = 1 * KB

    #: Paper anchor values at 40 Gbps, for rate-proportional scaling.
    Q1_ECN_AT_40G = 65 * KB
    Q1_SELDROP_AT_40G = 150 * KB
    Q2_ECN_AT_40G = 100 * KB


@dataclass
class ExperimentConfig:
    """Everything needed to run one simulation."""

    scheme: SchemeName = SchemeName.FLEXPASS
    #: fraction of racks upgraded to the new transport (0.0 - 1.0)
    deployment: float = 1.0
    workload: str = "websearch"
    load: float = 0.5
    sim_time_ns: int = 60 * MILLIS
    seed: int = 1
    clos: ClosSpec = field(default_factory=ClosSpec)
    #: declarative fabric (overrides ``clos`` when set); content-hashes into
    #: the cache key like every other field. See :mod:`repro.net.fabric`.
    topology_spec: Optional[TopologySpec] = None
    #: the run's traffic sources (default: one uniform Poisson ``bg``
    #: source); ``workload``, ``load`` and ``size_scale`` are the defaults
    #: each source resolves against. ``TrafficConfig.paper`` builds the
    #: §6.2 incast/locality variants. See DESIGN.md §6k.
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    queues: QueueSettings = field(default_factory=QueueSettings)
    #: divide workload flow sizes by this factor (keeps flow *count* high at
    #: Python-simulation scale; the small-flow FCT cutoff scales with it)
    size_scale: float = 1.0
    #: flows smaller than this count as "small" in tail-FCT metrics
    small_flow_cutoff_bytes: int = 100 * KB
    #: credit feedback update period
    update_period_ns: int = 40 * MICROS
    #: fault injection plan (None = clean fabric); see :mod:`repro.faults`
    faults: Optional[FaultPlan] = None
    #: time-series sampling (None = off); see :mod:`repro.metrics.telemetry`
    telemetry: Optional[TelemetryConfig] = None
    #: correctness auditing (None = off); see :mod:`repro.audit`
    audit: Optional[AuditConfig] = None
    #: watchdog: abort the simulation after this many events (None = off)
    max_events: Optional[int] = None
    #: watchdog: abort after this much real time in seconds (None = off)
    max_wall_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.load <= 1.0:
            raise ConfigError(f"load must be in (0,1], got {self.load}")

    def scaled_cutoff_bytes(self) -> int:
        return max(1, int(self.small_flow_cutoff_bytes / self.size_scale))

    @property
    def reference_rate_bps(self) -> int:
        """Host access rate the scheme parameters are derived from.

        ``clos.rate_bps`` when the fabric is ``clos``; a declared
        ``topology_spec`` derives it from its host access links.
        """
        if self.topology_spec is not None:
            return self.topology_spec.access_rate_bps()
        return self.clos.rate_bps

    def with_(self, **overrides) -> "ExperimentConfig":
        return replace(self, **overrides)
