"""FaultPlan and its specs: a picklable, seeded description of every
fault in a run.

The plan is plain data (strings, numbers, tuples) so it rides on
:class:`repro.experiments.config.ExperimentConfig` through a process pool
unchanged, and building one loads none of the injector: the loss models,
the link splicing and the link-down events load inside
:meth:`FaultPlan.apply` (and the spec methods that build them), as
``audit/config.py`` keeps :class:`~repro.audit.config.AuditConfig` apart
from the auditor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.models import LossModel
    from repro.faults.plan import FaultInjector
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

    def build_model(self, rng) -> "LossModel":
        from repro.faults.models import (
            BernoulliLoss, GilbertElliottLoss, KindSelectiveLoss,
            kinds_from_names,
        )

        if self.model == "bernoulli":
            model: "LossModel" = BernoulliLoss(self.rate, rng)
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
        from repro.faults.events import LinkDownEvent, LinkUpEvent

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
        from repro.faults.events import LinkDownEvent, LinkUpEvent

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
        from repro.faults.plan import apply_plan

        try:
            return apply_plan(self, sim, topo, rng)
        except ValueError as exc:
            raise FaultPlanError(str(exc)) from exc
