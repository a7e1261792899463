"""Measurement: FCT records, telemetry time series, starvation, packet traces."""

from repro.metrics.fct import FctSummary, FlowRecord, summarize
from repro.metrics.telemetry import (
    RingBuffer,
    TelemetryConfig,
    TelemetrySampler,
    TelemetrySeries,
)
from repro.metrics.throughput import starvation_fraction
from repro.metrics.tracing import PacketTracer, TraceEvent

__all__ = [
    "FctSummary",
    "FlowRecord",
    "summarize",
    "RingBuffer",
    "TelemetryConfig",
    "TelemetrySampler",
    "TelemetrySeries",
    "starvation_fraction",
    "PacketTracer",
    "TraceEvent",
]
