"""Telemetry knobs.

:class:`TelemetryConfig` lives on ``ExperimentConfig`` (like
``AuditConfig``), so it participates in the experiment-cache content key.
It is kept apart from the sampler (:mod:`repro.metrics.telemetry`), which
a run imports only when its config switches telemetry on.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TelemetryConfig:
    """What :func:`repro.experiments.runner.run_experiment` should sample.

    Part of :class:`~repro.experiments.config.ExperimentConfig`, and
    therefore part of the experiment-cache content key: changing any field
    re-runs the simulation rather than serving a result recorded with
    different instrumentation.
    """

    enabled: bool = True
    #: sampling cadence; every probe fires once per interval
    interval_ns: int = 100_000
    #: ring-buffer bound per series — long runs keep the newest samples
    max_samples: int = 4096
    #: which switch ports get per-queue depth/drop/mark series:
    #: "tor_uplinks" (the core load measurement points), "all", or "none"
    ports: str = "tor_uplinks"
    #: per-flow goodput series: aggregate by "scheme", per "flow", or "none"
    flows: str = "scheme"
    #: per-link utilization series for the watched ports
    links: bool = True
    #: packet-pool occupancy gauges
    pool: bool = True
    #: per-scheme allocated credit-rate gauges (transport feedback loop)
    credit: bool = True
    #: cap on dynamically-created flow series (flows="flow" mode)
    max_flow_series: int = 64

    def __post_init__(self) -> None:
        if self.interval_ns <= 0:
            raise ValueError("telemetry interval must be positive")
        if self.max_samples <= 0:
            raise ValueError("telemetry max_samples must be positive")
        if self.ports not in ("tor_uplinks", "all", "none"):
            raise ValueError(f"unknown ports mode {self.ports!r}")
        if self.flows not in ("scheme", "flow", "none"):
            raise ValueError(f"unknown flows mode {self.flows!r}")

    @classmethod
    def ports_only(cls, horizon_ns: int) -> "TelemetryConfig":
        """Per-queue series of the ToR uplinks and nothing else, with a
        ring that holds every tick of the horizon — what the §6.2 queue
        occupancy percentiles need (no sample may be overwritten)."""
        return cls(max_samples=horizon_ns // cls.interval_ns + 8,
                   flows="none", links=False, pool=False, credit=False)
