"""Per-packet loss models.

Each model answers one question — "does this packet die here?" — so they
compose: :class:`KindSelectiveLoss` narrows any model to specific packet
kinds (data-only, credit-only), which is how the §4.3 experiments separate
proactive-data loss from credit loss.

Models draw from a random stream handed in by the caller (normally a
named :class:`repro.sim.rng.RngRegistry` stream), so a seeded
run replays the exact same drop pattern.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, TYPE_CHECKING

from repro.net.packet import PacketKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.sim.rng import Stream


class LossModel:
    """Base class: decides per packet whether it is lost."""

    def should_drop(self, pkt: "Packet") -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class BernoulliLoss(LossModel):
    """Independent loss: each packet dies with probability ``p``."""

    def __init__(self, p: float, rng: "Stream") -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {p}")
        self.p = p
        self._rng = rng

    def should_drop(self, pkt: "Packet") -> bool:
        return self._rng.random() < self.p


class GilbertElliottLoss(LossModel):
    """Two-state Markov burst loss (Gilbert-Elliott).

    The chain steps once per packet: in the *good* state packets are lost
    with ``loss_good`` (usually 0), in the *bad* state with ``loss_bad``
    (usually 1). ``p_good_to_bad`` / ``p_bad_to_good`` set burst frequency
    and mean burst length (1 / p_bad_to_good packets) — the loss shape a
    flapping link or failing optic produces, which independent Bernoulli
    drops cannot.
    """

    def __init__(
        self,
        p_good_to_bad: float,
        p_bad_to_good: float,
        rng: "Stream",
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ) -> None:
        for name, p in (("p_good_to_bad", p_good_to_bad),
                        ("p_bad_to_good", p_bad_to_good),
                        ("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._rng = rng
        self.bad = False
        self.bursts = 0  # good -> bad transitions, for diagnostics

    def should_drop(self, pkt: "Packet") -> bool:
        rng = self._rng
        if self.bad:
            if rng.random() < self.p_bad_to_good:
                self.bad = False
        else:
            if rng.random() < self.p_good_to_bad:
                self.bad = True
                self.bursts += 1
        loss = self.loss_bad if self.bad else self.loss_good
        if loss >= 1.0:
            return True
        if loss <= 0.0:
            return False
        return rng.random() < loss


class PredicateLoss(LossModel):
    """Wraps an arbitrary ``pkt -> bool`` predicate (targeted test drops)."""

    def __init__(self, should_drop: Callable[["Packet"], bool]) -> None:
        self._predicate = should_drop

    def should_drop(self, pkt: "Packet") -> bool:
        return self._predicate(pkt)


class KindSelectiveLoss(LossModel):
    """Applies an inner model only to packets of the given kinds.

    Packets of other kinds pass untouched *and do not advance* the inner
    model's randomness, so e.g. a credit-only model sees the same drop
    sequence regardless of how much data traffic interleaves.
    """

    def __init__(self, inner: LossModel, kinds: Iterable[PacketKind]) -> None:
        self.inner = inner
        self.kinds: FrozenSet[PacketKind] = frozenset(kinds)
        if not self.kinds:
            raise ValueError("KindSelectiveLoss needs at least one packet kind")

    def should_drop(self, pkt: "Packet") -> bool:
        if pkt.kind not in self.kinds:
            return False
        return self.inner.should_drop(pkt)


#: Human-friendly names for kind selections (CLI / FaultPlan specs).
KIND_ALIASES = {
    "data": frozenset({PacketKind.DATA}),
    "ack": frozenset({PacketKind.ACK}),
    "credit": frozenset({PacketKind.CREDIT}),
    "credit_request": frozenset({PacketKind.CREDIT_REQUEST}),
    "credit_stop": frozenset({PacketKind.CREDIT_STOP}),
    "grant": frozenset({PacketKind.GRANT}),
    "control": frozenset({PacketKind.CREDIT_REQUEST, PacketKind.CREDIT_STOP,
                          PacketKind.GRANT}),
    "all": frozenset(PacketKind),
}


def kinds_from_names(names: Iterable[str]) -> FrozenSet[PacketKind]:
    """Resolve alias names ("data", "credit", ...) to a set of kinds."""
    kinds: FrozenSet[PacketKind] = frozenset()
    for name in names:
        try:
            kinds |= KIND_ALIASES[name.lower()]
        except KeyError:
            raise ValueError(
                f"unknown packet kind {name!r}; choose from {sorted(KIND_ALIASES)}"
            ) from None
    return kinds
