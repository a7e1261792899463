"""Token-bucket rate limiter for credit-queue pacing.

ExpressPass (and hence FlexPass) rate-limits the credit queue so that the
data packets the credits trigger consume at most the reserved fraction of
the link (§4.1). The limiter is a standard token bucket: tokens accrue at
``rate_bps`` up to ``bucket_bytes``; a packet may depart once the bucket
holds its full size.

Tokens are tracked as exact integers in units of one byte / (8 * SECONDS)
— one unit is what ``rate_bps = 1`` accrues per nanosecond — so refilling
is path-independent: probing ``tokens()`` at intermediate instants can
never change whether ``can_send`` holds at a later instant. The float
implementation this replaces drifted by rounding once per refill, which
broke ``can_send(eligible_at(t, n), n)`` whenever another query touched
the bucket between ``t`` and the wake.
"""

from __future__ import annotations

from repro.sim.units import SECONDS

#: integer token units per byte (unit = smallest accrual of rate_bps=1/ns)
_UNITS_PER_BYTE = 8 * SECONDS


class TokenBucket:
    """Byte-granularity token bucket over the integer-ns clock."""

    __slots__ = ("rate_bps", "bucket_bytes", "_units", "_last_ns")

    def __init__(self, rate_bps: int, bucket_bytes: int) -> None:
        if rate_bps <= 0:
            raise ValueError("token bucket rate must be positive")
        if bucket_bytes <= 0:
            raise ValueError("token bucket depth must be positive")
        self.rate_bps = int(rate_bps)
        self.bucket_bytes = bucket_bytes
        self._units = bucket_bytes * _UNITS_PER_BYTE
        self._last_ns = 0

    def _refill(self, now_ns: int) -> None:
        if now_ns > self._last_ns:
            self._units = min(
                self.bucket_bytes * _UNITS_PER_BYTE,
                self._units + (now_ns - self._last_ns) * self.rate_bps,
            )
            self._last_ns = now_ns

    def tokens(self, now_ns: int) -> float:
        """Tokens (bytes) available at ``now_ns``."""
        self._refill(now_ns)
        return self._units / _UNITS_PER_BYTE

    def can_send(self, now_ns: int, nbytes: int) -> bool:
        self._refill(now_ns)
        return self._units >= nbytes * _UNITS_PER_BYTE

    def consume(self, now_ns: int, nbytes: int) -> None:
        """Spend tokens for a departing packet. Caller must check first."""
        self._refill(now_ns)
        need = nbytes * _UNITS_PER_BYTE
        if self._units < need:
            raise RuntimeError("token bucket overdrawn; call can_send first")
        self._units -= need

    def take(self, now_ns: int, nbytes: int) -> int:
        """Spend ``nbytes`` if the bucket covers them and return 0; otherwise
        spend nothing and return the eligible instant (always ``> now_ns``).

        Exactly ``consume`` when ``can_send`` holds and ``eligible_at`` when
        it does not, in one refill: what the egress scheduler calls per paced
        serve, with that triple as the reference the tests compare it to.
        """
        units = self._units
        if now_ns > self._last_ns:
            units += (now_ns - self._last_ns) * self.rate_bps
            cap = self.bucket_bytes * _UNITS_PER_BYTE
            if units > cap:
                units = cap
            self._last_ns = now_ns
        need = nbytes * _UNITS_PER_BYTE
        if units >= need:
            self._units = units - need
            return 0
        self._units = units
        rate = self.rate_bps
        return now_ns + (need - units + rate - 1) // rate

    def eligible_at(self, now_ns: int, nbytes: int) -> int:
        """Earliest time at which ``nbytes`` tokens will be available.

        Exact ceiling division on integers: when the deficit divides the
        rate the returned instant is on the nanosecond (no systematic +1 ns
        that would drift a paced credit queue below its reserved rate), and
        ``can_send(eligible_at(t, n), n)`` always holds, regardless of any
        intermediate refills.
        """
        self._refill(now_ns)
        deficit = nbytes * _UNITS_PER_BYTE - self._units
        if deficit <= 0:
            return now_ns
        return now_ns + (deficit + self.rate_bps - 1) // self.rate_bps
