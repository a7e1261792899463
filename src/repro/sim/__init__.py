"""Discrete-event simulation kernel.

The kernel is deliberately tiny: an integer-nanosecond clock, an event
calendar with cancellable handles (:mod:`repro.sim.engine`, a calendar
queue), unit helpers for time and rate arithmetic (:mod:`repro.sim.units`),
and named deterministic random streams (:mod:`repro.sim.rng`).
"""

from repro.sim.engine import CalendarSimulator, EventHandle, Simulator
from repro.sim.rng import RngRegistry
from repro.sim.units import (
    GBPS,
    KB,
    MB,
    MBPS,
    MICROS,
    MILLIS,
    SECONDS,
    bits_to_bytes,
    bytes_to_bits,
    rate_to_bytes_per_ns,
    tx_time_ns,
)

__all__ = [
    "CalendarSimulator",
    "EventHandle",
    "Simulator",
    "RngRegistry",
    "GBPS",
    "MBPS",
    "KB",
    "MB",
    "MICROS",
    "MILLIS",
    "SECONDS",
    "bits_to_bytes",
    "bytes_to_bits",
    "rate_to_bytes_per_ns",
    "tx_time_ns",
]
