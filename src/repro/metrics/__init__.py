"""Measurement: FCT records, telemetry time series, starvation, benchmark
baselines."""

from repro.metrics.bench import (
    compare_to_baseline,
    load_baseline,
    record_bench,
)
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
    "compare_to_baseline",
    "load_baseline",
    "record_bench",
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
