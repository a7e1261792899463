"""Rack-granularity deployment assignment (§6.2).

The paper deploys the new transport per rack: a fraction of ToRs is
"upgraded", and a flow uses the new transport only if *both* endpoints sit
in upgraded racks. Everything else stays on legacy DCTCP.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Set, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.sim.rng import Stream


class DeploymentPlan:
    """Which hosts run the new transport."""

    def __init__(self, racks: Sequence[Sequence["Host"]], fraction: float,
                 rng: "Stream") -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"deployment fraction must be in [0,1], got {fraction}")
        self.fraction = fraction
        n_racks = len(racks)
        # round-half-up, NOT round(): banker's rounding sends exact .5
        # products to the even neighbour, deploying half a rack short
        # (round(0.25 * 2) == 0, round(0.25 * 10) == 2 instead of 3).
        n_upgraded = math.floor(fraction * n_racks + 0.5)
        order = list(rng.permutation(n_racks))
        self.upgraded_racks: Set[int] = set(order[:n_upgraded])
        self.upgraded_hosts: Set[int] = {
            h.id for r in self.upgraded_racks for h in racks[r]
        }

    def is_upgraded(self, host: "Host") -> bool:
        return host.id in self.upgraded_hosts

    def flow_group(self, src: "Host", dst: "Host") -> str:
        """'new' if both endpoints are upgraded, else 'legacy'."""
        if src.id in self.upgraded_hosts and dst.id in self.upgraded_hosts:
            return "new"
        return "legacy"
