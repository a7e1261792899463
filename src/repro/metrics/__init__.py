"""Measurement: FCT records, telemetry time series, starvation, packet traces.

Each name resolves lazily from its submodule: a run without telemetry
or tracing loads neither the sampler nor the tracer.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".fct": ("FctSummary", "FlowRecord", "summarize"),
    ".telemetry": ("RingBuffer", "TelemetrySampler", "TelemetrySeries"),
    ".telemetry_config": ("TelemetryConfig",),
    ".throughput": ("starvation_fraction",),
    ".tracing": ("PacketTracer", "TraceEvent"),
})
