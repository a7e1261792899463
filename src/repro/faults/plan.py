"""FaultPlan: a picklable, seeded description of every fault in a run.

The plan is plain data (strings, numbers, tuples) so it rides on
:class:`repro.experiments.config.ExperimentConfig` through a process pool
unchanged. Applying it to a built topology produces a
:class:`FaultInjector` — the live objects (spliced links, scheduled
events) plus one shared :class:`repro.faults.counters.FaultCounters`.

Randomness comes from named ``RngRegistry`` streams keyed by spec index
and port name, so two runs with the same seed produce the same drop
pattern bit for bit, and adding a fault spec never perturbs the traffic
generator's streams.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.faults.counters import FaultCounters
from repro.faults.events import LinkDownEvent, LinkUpEvent, schedule_failure_events
from repro.faults.link import FaultyLink, splice
from repro.faults.models import (
    BernoulliLoss,
    GilbertElliottLoss,
    KindSelectiveLoss,
    LossModel,
    kinds_from_names,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.topology import Topology
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class LinkLossSpec:
    """Stochastic loss (or corruption) on every link matching a pattern.

    ``links`` is an ``fnmatch`` glob over directed port names
    (``"src->dst"``): ``"*"`` hits every link, ``"tor*->agg*"`` the ToR
    uplinks, ``"s0->swL"`` one specific direction.
    """

    links: str = "*"
    model: str = "bernoulli"  # "bernoulli" | "gilbert"
    rate: float = 0.01        # Bernoulli p, or Gilbert-Elliott bad-state loss
    #: Gilbert-Elliott chain: burst start / end probabilities per packet
    burst_start: float = 0.001
    burst_end: float = 0.1
    #: loss probability while in the good state (usually 0)
    rate_good: float = 0.0
    #: restrict to packet kinds ("data", "credit", ...); empty = all kinds
    kinds: Tuple[str, ...] = ()
    #: corrupt instead of silently drop: the packet still crosses the wire
    #: and is counted+discarded at the receiving NIC
    corrupt: bool = False

    def build_model(self, rng) -> LossModel:
        if self.model == "bernoulli":
            model: LossModel = BernoulliLoss(self.rate, rng)
        elif self.model == "gilbert":
            model = GilbertElliottLoss(
                self.burst_start, self.burst_end, rng,
                loss_good=self.rate_good, loss_bad=self.rate,
            )
        else:
            raise ValueError(f"unknown loss model {self.model!r}")
        if self.kinds:
            model = KindSelectiveLoss(model, kinds_from_names(self.kinds))
        return model


@dataclass(frozen=True)
class LinkFailureSpec:
    """The a<->b link goes down at ``down_ns`` and (optionally) comes back
    at ``up_ns``. Nodes are addressed by name."""

    a: str
    b: str
    down_ns: int
    up_ns: Optional[int] = None

    def events(self) -> List[object]:
        events: List[object] = [LinkDownEvent(self.down_ns, self.a, self.b)]
        if self.up_ns is not None:
            if self.up_ns <= self.down_ns:
                raise ValueError(
                    f"link {self.a}<->{self.b}: up_ns {self.up_ns} must be "
                    f"after down_ns {self.down_ns}"
                )
            events.append(LinkUpEvent(self.up_ns, self.a, self.b))
        return events


@dataclass(frozen=True)
class SiteFailureSpec:
    """Every link incident to an ontology group — or one named node —
    fails at ``down_ns`` (optionally recovering at ``up_ns``).

    ``target`` names a group published on ``Topology.node_groups`` by the
    declarative fabric builder ("site:DC-SYD-01", "region:NSW"; the bare
    site/region name also resolves), or any single node. Expansion needs
    the built topology, so :meth:`events` takes it — unknown targets fail
    at setup, matching the rest of the fault machinery.
    """

    target: str
    down_ns: int
    up_ns: Optional[int] = None

    def _member_names(self, topo: "Topology") -> Tuple[str, ...]:
        groups = topo.node_groups
        for key in (self.target, f"site:{self.target}",
                    f"region:{self.target}"):
            if key in groups:
                return groups[key]
        try:
            return (topo.node_by_name(self.target).name,)
        except KeyError:
            known = ", ".join(sorted(groups)) or "none"
            raise ValueError(
                f"site failure target {self.target!r} is neither a node "
                f"nor a topology group (groups: {known})") from None

    def events(self, topo: "Topology") -> List[object]:
        if self.up_ns is not None and self.up_ns <= self.down_ns:
            raise ValueError(
                f"site {self.target!r}: up_ns {self.up_ns} must be after "
                f"down_ns {self.down_ns}")
        members = set(self._member_names(topo))
        events: List[object] = []
        seen = set()
        for name in sorted(members):
            node = topo.node_by_name(name)
            for peer in topo.neighbors(node):
                edge = (min(name, peer.name), max(name, peer.name))
                if edge in seen:
                    continue
                seen.add(edge)
                events.append(LinkDownEvent(self.down_ns, edge[0], edge[1]))
                if self.up_ns is not None:
                    events.append(LinkUpEvent(self.up_ns, edge[0], edge[1]))
        if not events:
            raise ValueError(
                f"site failure target {self.target!r} has no incident links")
        return events


class FaultPlanError(ValueError):
    """A fault plan was applied to a topology it does not fit."""


@dataclass(frozen=True)
class FaultPlan:
    """Everything the fault subsystem will do to one run."""

    losses: Tuple[LinkLossSpec, ...] = ()
    failures: Tuple[LinkFailureSpec, ...] = ()
    #: whole-site/region (or single-node) outages, by ontology name
    site_failures: Tuple[SiteFailureSpec, ...] = ()
    #: RngRegistry stream-name prefix (change to decorrelate two plans)
    stream_prefix: str = "faults"

    @property
    def empty(self) -> bool:
        return not self.losses and not self.failures and not self.site_failures

    def apply(self, sim: "Simulator", topo: "Topology",
              rng: "RngRegistry") -> "FaultInjector":
        """Splice loss models and schedule failures; returns the injector.

        A plan that does not fit ``topo`` (unknown node or group, no such
        cable, a pattern matching no link) raises :class:`FaultPlanError`.
        """
        try:
            return self._apply(sim, topo, rng)
        except ValueError as exc:
            raise FaultPlanError(str(exc)) from exc

    def _apply(self, sim: "Simulator", topo: "Topology",
               rng: "RngRegistry") -> "FaultInjector":
        counters = FaultCounters()
        spliced: List[FaultyLink] = []
        # Deterministic port order: sort by name, independent of dict order.
        ports = sorted(topo.all_ports(), key=lambda p: p.name)
        for idx, spec in enumerate(self.losses):
            matched = False
            for port in ports:
                if not fnmatch.fnmatchcase(port.name, spec.links):
                    continue
                matched = True
                stream = rng.stream(f"{self.stream_prefix}.{idx}.{port.name}")
                model = spec.build_model(stream)
                if spec.corrupt:
                    link = splice(port, corruption=model, counters=counters)
                else:
                    link = splice(port, loss=model, counters=counters)
                spliced.append(link)
            if not matched:
                raise ValueError(
                    f"fault spec {idx}: pattern {spec.links!r} matches no link"
                )
        events: List[object] = []
        for failure in self.failures:
            events.extend(failure.events())
        for site_failure in self.site_failures:
            events.extend(site_failure.events(topo))
        schedule_failure_events(sim, topo, events, counters)
        return FaultInjector(plan=self, counters=counters, links=spliced)


@dataclass
class FaultInjector:
    """Live fault state of one run: the applied plan, shared counters, and
    every spliced link (so callers can inspect per-link state)."""

    plan: FaultPlan
    counters: FaultCounters
    links: List[FaultyLink] = field(default_factory=list)
