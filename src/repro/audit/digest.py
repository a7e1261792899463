"""Rolling event digest for deterministic replay.

Every packet delivery is folded into an epoch-bucketed 64-bit hash of
``(time, kind, node, flow, seq)``. Two runs of the same config must
produce identical digests — including across worker pickling and a cache
round-trip — or the simulation is not reproducible. The digest is pure
observation: recording is a transparent proxy on each link's destination
node, so it adds no events and cannot perturb scheduling, and nothing at
all is installed when auditing (or the digest) is disabled.

Only Python integer arithmetic is used for mixing (no ``hash()`` of
strings, no dict iteration order), so digests are stable across
processes and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

_MASK = (1 << 64) - 1
_FNV_PRIME = 0x100000001B3
_FNV_OFFSET = 0xCBF29CE484222325
_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9


class EventDigest:
    """Frozen per-epoch digests of one run (picklable)."""

    __slots__ = ("epoch_ns", "epochs", "digests", "counts", "total", "events")

    def __init__(self, epoch_ns: int, epochs: List[int], digests: List[int],
                 counts: List[int], total: int,
                 events: Optional[List[Tuple[int, int, int, int, int]]] = None,
                 ) -> None:
        self.epoch_ns = epoch_ns
        self.epochs = epochs      #: epoch indices with at least one event
        self.digests = digests    #: 64-bit digest per epoch (parallel list)
        self.counts = counts      #: events folded per epoch (parallel list)
        self.total = total
        #: raw (time, kind, node, flow, seq) tuples for the capture epoch
        self.events = events if events is not None else []

    # __slots__ classes need explicit state hooks for pickling
    def __getstate__(self):
        return (self.epoch_ns, self.epochs, self.digests, self.counts,
                self.total, self.events)

    def __setstate__(self, state):
        (self.epoch_ns, self.epochs, self.digests, self.counts,
         self.total, self.events) = state

    def final(self) -> int:
        """One combined 64-bit digest over all epochs."""
        h = _FNV_OFFSET
        for e, d, c in zip(self.epochs, self.digests, self.counts):
            h = ((h ^ (e * _MIX_A + d + c)) * _FNV_PRIME) & _MASK
        return h

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventDigest):
            return NotImplemented
        return (self.epoch_ns == other.epoch_ns
                and self.epochs == other.epochs
                and self.digests == other.digests
                and self.counts == other.counts)

    def first_divergence(self, other: "EventDigest") -> Optional[int]:
        """Earliest epoch index where the two digests disagree (None if
        identical). Compares aligned epoch streams, so an epoch present in
        one run but absent from the other also counts as the divergence."""
        if self.epoch_ns != other.epoch_ns:
            raise ValueError("digests recorded at different epoch sizes")
        a = dict(zip(self.epochs, zip(self.digests, self.counts)))
        b = dict(zip(other.epochs, zip(other.digests, other.counts)))
        diverged = [e for e in set(a) | set(b) if a.get(e) != b.get(e)]
        return min(diverged) if diverged else None


class DigestRecorder:
    """Accumulates the rolling digest during a run."""

    __slots__ = ("epoch_ns", "total", "_epochs", "_digests", "_counts",
                 "_cur_epoch", "_hash", "_count", "capture_epoch",
                 "capture_limit", "events")

    def __init__(self, epoch_ns: int, capture_epoch: Optional[int] = None,
                 capture_limit: int = 256) -> None:
        if epoch_ns <= 0:
            raise ValueError("epoch_ns must be positive")
        self.epoch_ns = epoch_ns
        self.total = 0
        self._epochs: List[int] = []
        self._digests: List[int] = []
        self._counts: List[int] = []
        self._cur_epoch = -1
        self._hash = _FNV_OFFSET
        self._count = 0
        self.capture_epoch = capture_epoch
        self.capture_limit = capture_limit
        self.events: List[Tuple[int, int, int, int, int]] = []

    def record(self, t: int, kind: int, node: int, flow: int, seq) -> None:
        epoch = t // self.epoch_ns
        if epoch != self._cur_epoch:
            self._flush()
            self._cur_epoch = epoch
        s = -1 if seq is None else seq
        f = -1 if flow is None else flow
        x = (((t << 4) ^ kind) * _MIX_A + node) & _MASK
        x ^= (f * _MIX_B + (s & _MASK)) & _MASK
        self._hash = ((self._hash ^ x) * _FNV_PRIME) & _MASK
        self._count += 1
        self.total += 1
        if (epoch == self.capture_epoch
                and len(self.events) < self.capture_limit):
            self.events.append((t, int(kind), node, f, s))

    def _flush(self) -> None:
        if self._count:
            self._epochs.append(self._cur_epoch)
            self._digests.append(self._hash)
            self._counts.append(self._count)
        self._hash = _FNV_OFFSET
        self._count = 0

    def freeze(self) -> EventDigest:
        """Finish the open epoch and return the immutable digest."""
        self._flush()
        self._cur_epoch = -1
        return EventDigest(self.epoch_ns, list(self._epochs),
                           list(self._digests), list(self._counts),
                           self.total, list(self.events))


class _DigestTap:
    """Transparent destination-node proxy: record the delivery, pass it on.

    Installed as ``link.dst``, so the ``_deliver`` of ``Link`` and of
    ``FaultyLink`` routes through :meth:`receive` at delivery time with no
    extra scheduled events.
    """

    __slots__ = ("_node", "_rec", "_sim", "_id")

    def __init__(self, node, recorder: DigestRecorder, sim) -> None:
        self._node = node
        self._rec = recorder
        self._sim = sim
        self._id = node.id

    @property
    def id(self) -> int:
        return self._id

    @property
    def name(self) -> str:
        return self._node.name

    def receive(self, pkt) -> None:
        self._rec.record(self._sim.now, pkt.kind, self._id,
                         pkt.flow_id, pkt.seq)
        self._node.receive(pkt)


def install_digest_taps(sim, topo, recorder: DigestRecorder) -> int:
    """Wrap the destination of every link in ``topo`` with a recording tap.

    Must run after fault splicing (so a spliced FaultyLink's own ``dst``
    gets wrapped). Returns the number of taps installed.
    """
    n = 0
    for port in topo.all_ports():
        link = port.link
        link.dst = _DigestTap(link.dst, recorder, sim)
        n += 1
    return n
