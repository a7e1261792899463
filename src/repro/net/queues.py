"""Per-queue admission, marking, and accounting.

A :class:`PacketQueue` implements the paper's per-queue switch features:

* **RED/ECN marking** — instantaneous-queue-length marking as DCTCP
  configures it (mark when the post-enqueue occupancy exceeds K), with an
  optional RED ramp.
* **Selective (color-aware) dropping** — RED-colored packets are dropped
  once the queue's red-byte occupancy crosses a threshold, while GREEN
  packets survive until the whole queue hits its cap (§4.1, §5).
* **Static byte cap** — e.g., the <1 kB credit-queue buffer ExpressPass
  requires.

Shared-buffer dynamic thresholds live one level up (:mod:`repro.net.buffering`)
because they need switch-wide state.

``admit``/``push``/``pop`` state those rules readably; the per-packet path
(:mod:`repro.net.port`, :mod:`repro.net.scheduler`) applies them inline
against this queue's fields, and ``tests/test_net_port_flat.py`` holds the
two forms equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.net.packet import Color, Packet


@dataclass(frozen=True)
class QueueConfig:
    """Configuration of one egress queue. Frozen: the queue caches its
    thresholds at construction, so a later edit could only go unnoticed."""

    name: str = "q"
    #: Static byte cap; ``None`` means only the shared buffer limits growth.
    capacity_bytes: Optional[int] = None
    #: ECN marking threshold in bytes (DCTCP K). ``None`` disables marking.
    ecn_threshold_bytes: Optional[int] = None
    #: If set, RED-style probabilistic marking ramps from ``ecn_threshold``
    #: to ``red_max_bytes``; otherwise marking is a hard threshold.
    red_max_bytes: Optional[int] = None
    #: Selective-dropping threshold for RED-colored bytes. ``None`` disables.
    selective_drop_bytes: Optional[int] = None


@dataclass(slots=True)
class QueueStats:
    """Drop/mark counters, exposed to experiments."""

    enqueued: int = 0
    dequeued: int = 0
    dropped_cap: int = 0
    dropped_selective: int = 0
    dropped_buffer: int = 0
    ecn_marked: int = 0
    bytes_enqueued: int = 0
    max_bytes: int = 0
    max_red_bytes: int = 0


class PacketQueue:
    """A FIFO byte queue with ECN marking and selective dropping.

    It also carries how its port's scheduler serves it (``priority``,
    ``weight``, ``quantum``, ``pacer`` and the DWRR ``deficit``), so a
    queue is one object on the per-packet path; the
    :class:`~repro.net.scheduler.PortScheduler` that adopts it sets them.
    """

    __slots__ = ("config", "stats", "_fifo", "byte_count", "red_bytes",
                 "_mark_rng", "_marking", "_mark_k", "_cap", "_sel_drop",
                 "trivial_admit", "_starved_until",
                 "priority", "weight", "quantum", "pacer", "deficit")

    def __init__(self, config: QueueConfig, mark_rng=None) -> None:
        self.config = config
        self.stats = QueueStats()
        #: never rebound: the port and scheduler hold aliases of this list.
        #: A list, not a ``collections`` double-ended queue: an empty one of
        #: those costs ~600 B, and no FIFO gets deep enough (a few hundred
        #: packets) for ``pop(0)``'s memmove to matter
        self._fifo: List[Packet] = []
        self.byte_count = 0
        self.red_bytes = 0
        self._mark_rng = mark_rng  # only needed when red_max_bytes is set
        # Thresholds as the inlined per-packet path reads them.
        self._marking = config.ecn_threshold_bytes is not None
        #: hard marking threshold; ``None`` with ``_marking`` set means a
        #: RED ramp, which goes through :meth:`_maybe_mark`
        self._mark_k = (None if config.red_max_bytes is not None
                        else config.ecn_threshold_bytes)
        self._cap = config.capacity_bytes
        self._sel_drop = config.selective_drop_bytes
        #: with no cap and no selective threshold, admit() is identically True
        self.trivial_admit = self._cap is None and self._sel_drop is None
        #: pacer memo, owned by the scheduler that paces this queue: the
        #: head packet lacks tokens until this instant (0 = nothing known).
        #: Every pop clears it, since a pop changes the head and spends tokens.
        self._starved_until = 0
        # Scheduling, as QueueSchedule's defaults until a scheduler adopts
        # the queue (it also sets the quantum, weight x one MTU frame).
        self.priority = 1
        self.weight = 1.0
        self.quantum = 0.0
        self.pacer = None
        self.deficit = 0.0

    def __len__(self) -> int:
        return len(self._fifo)

    @property
    def empty(self) -> bool:
        return not self._fifo

    def head(self) -> Optional[Packet]:
        return self._fifo[0] if self._fifo else None

    def admit(self, pkt: Packet) -> bool:
        """Run this queue's own admission checks (not the shared buffer).

        Returns False (and counts the drop) if the packet must be discarded.
        """
        cfg = self.config
        if cfg.selective_drop_bytes is not None and pkt.color == Color.RED:
            if self.red_bytes + pkt.size > cfg.selective_drop_bytes:
                self.stats.dropped_selective += 1
                return False
        if cfg.capacity_bytes is not None:
            if self.byte_count + pkt.size > cfg.capacity_bytes:
                self.stats.dropped_cap += 1
                return False
        return True

    def push(self, pkt: Packet) -> None:
        """Enqueue an admitted packet, applying ECN marking."""
        if self._marking and pkt.ecn_capable:
            self._maybe_mark(pkt)
        self._fifo.append(pkt)
        self.byte_count += pkt.size
        if pkt.color == Color.RED:
            self.red_bytes += pkt.size
        st = self.stats
        st.enqueued += 1
        st.bytes_enqueued += pkt.size
        if self.byte_count > st.max_bytes:
            st.max_bytes = self.byte_count
        if self.red_bytes > st.max_red_bytes:
            st.max_red_bytes = self.red_bytes

    def pop(self) -> Packet:
        """Dequeue the head packet."""
        pkt = self._fifo.pop(0)
        self._starved_until = 0
        self.byte_count -= pkt.size
        if pkt.color == Color.RED:
            self.red_bytes -= pkt.size
        self.stats.dequeued += 1
        return pkt

    def _maybe_mark(self, pkt: Packet) -> None:
        cfg = self.config
        if cfg.ecn_threshold_bytes is None or not pkt.ecn_capable:
            return
        # DCTCP marking rule: mark when the instantaneous queue length
        # *including the arriving packet* exceeds K (strictly greater — a
        # queue sitting exactly at K is not over threshold).
        occupancy = self.byte_count + pkt.size
        if cfg.red_max_bytes is not None and cfg.red_max_bytes > cfg.ecn_threshold_bytes:
            # RED ramp: linear marking probability between min and max.
            if occupancy <= cfg.ecn_threshold_bytes:
                return
            if occupancy < cfg.red_max_bytes:
                span = cfg.red_max_bytes - cfg.ecn_threshold_bytes
                prob = (occupancy - cfg.ecn_threshold_bytes) / span
                if self._mark_rng is None or self._mark_rng.random() >= prob:
                    return
            # above red_max: always mark
        elif occupancy <= cfg.ecn_threshold_bytes:
            return
        pkt.ce = True
        self.stats.ecn_marked += 1
