"""Shared-buffer management with dynamic thresholds.

Implements the dynamic buffer scheme of Choudhury & Hahne [10] that the
paper's simulations configure ("egress dynamic buffer threshold 1/4"): a
queue may grow up to ``alpha`` times the *remaining free* shared buffer.
Every egress queue of a switch draws from one :class:`SharedBuffer`.
"""

from __future__ import annotations


class SharedBuffer:
    """Switch-wide packet buffer with Choudhury–Hahne dynamic thresholds."""

    __slots__ = ("capacity", "alpha", "used", "drops")

    def __init__(self, capacity_bytes: int, alpha: float = 0.25) -> None:
        if capacity_bytes <= 0:
            raise ValueError("buffer capacity must be positive")
        if alpha <= 0:
            raise ValueError("dynamic threshold alpha must be positive")
        self.capacity = capacity_bytes
        self.alpha = alpha
        self.used = 0
        self.drops = 0

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def threshold(self) -> float:
        """Current per-queue occupancy limit."""
        return self.alpha * self.free

    def try_admit(self, queue_bytes: int, pkt_bytes: int) -> bool:
        """Admit ``pkt_bytes`` into a queue currently holding ``queue_bytes``.

        Applies both the dynamic per-queue threshold and the hard capacity.
        On success the bytes are charged to the shared pool.
        """
        used = self.used + pkt_bytes
        if used > self.capacity:
            self.drops += 1
            return False
        # inline ``threshold()`` — this runs once per admitted packet
        if queue_bytes + pkt_bytes > self.alpha * (self.capacity - self.used):
            self.drops += 1
            return False
        self.used = used
        return True

    def release(self, pkt_bytes: int) -> None:
        """Return bytes to the pool when a packet departs."""
        self.used -= pkt_bytes
        if self.used < 0:
            raise RuntimeError("shared buffer accounting went negative")


class UnlimitedBuffer(SharedBuffer):
    """The buffer of a host NIC, which models deep sender queues: a
    :class:`SharedBuffer` whose capacity and threshold never bind, so every
    packet is admitted while occupancy is still accounted (a release that
    was never admitted raises, as on a switch)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(1 << 62, alpha=1.0)
