"""Time and rate units.

Simulation time is an ``int`` number of nanoseconds; link rates are bits per
second. Keeping both integral makes event ordering exact and reproducible.
Serialization delays round up to the next nanosecond so a packet never
finishes transmitting "early".
"""

from __future__ import annotations

#: One microsecond / millisecond / second, in nanoseconds.
MICROS = 1_000
MILLIS = 1_000_000
SECONDS = 1_000_000_000

#: Rate units, in bits per second.
MBPS = 1_000_000
GBPS = 1_000_000_000

#: Size units, in bytes.
KB = 1_000
MB = 1_000_000


def bytes_to_bits(nbytes: int) -> int:
    """Convert a byte count to bits."""
    return nbytes * 8


def bits_to_bytes(nbits: int) -> int:
    """Convert bits to bytes, rounding up to whole bytes."""
    return (nbits + 7) // 8


def tx_time_ns(nbytes: int, rate_bps: int) -> int:
    """Serialization delay of ``nbytes`` on a ``rate_bps`` link, in ns.

    Rounds up so the transmitter never releases the wire early. A zero or
    negative rate is a configuration error.
    """
    if rate_bps <= 0:
        raise ValueError(f"link rate must be positive, got {rate_bps}")
    bits = nbytes * 8
    return (bits * SECONDS + rate_bps - 1) // rate_bps


def rate_to_bytes_per_ns(rate_bps: int) -> float:
    """Convert a bits-per-second rate to bytes per nanosecond."""
    return rate_bps / 8.0 / SECONDS


