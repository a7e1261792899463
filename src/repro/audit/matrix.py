"""The CI audit matrix: scheme x topology cells with auditing enabled.

Each cell is a short-horizon :func:`run_experiment` over one of three
fabric shapes — a dumbbell (two racks through one spine), an incast rack
(one ToR, foreground incast traffic), and the default two-pod Clos — for
each transport scheme. A cell passes when its :class:`AuditReport` has
zero violations (any violation is a bookkeeping bug) and, at the pinned
operating point, its replay digest equals :data:`GOLDEN_DIGESTS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.audit.config import AuditConfig
from repro.net.topology import ClosSpec
from repro.sim.units import MILLIS
from repro.workloads.gen import TrafficConfig

#: the five transport schemes the matrix exercises (enum values)
MATRIX_SCHEMES = ("dctcp", "naive", "homa", "ly", "flexpass")

#: topology name -> (ClosSpec shape, config overrides)
MATRIX_TOPOLOGIES: Dict[str, Tuple[ClosSpec, Dict[str, object]]] = {
    # two racks, one spine layer: the classic shared-bottleneck shape
    "dumbbell": (
        ClosSpec(n_pods=1, aggs_per_pod=1, tors_per_pod=2, hosts_per_tor=2),
        {},
    ),
    # one rack fanning into one ToR, with foreground incast bursts
    "incast": (
        ClosSpec(n_pods=1, aggs_per_pod=1, tors_per_pod=1, hosts_per_tor=6),
        {"traffic": TrafficConfig.paper(foreground_fraction=0.3)},
    ),
    # the default two-pod Clos the figure sweeps run on
    "clos": (
        ClosSpec(n_pods=2, aggs_per_pod=2, tors_per_pod=2, hosts_per_tor=4),
        {},
    ),
}

#: the ``(sim_time_ns, seed, load)`` at which :data:`GOLDEN_DIGESTS` holds
GOLDEN_POINT = (2 * MILLIS, 1, 0.5)

#: (topology, scheme) -> (``EventDigest.total``, ``EventDigest.final()``) at
#: :data:`GOLDEN_POINT`: every packet delivery of the cell, in order. This
#: is the regression oracle for the engine, the credit pacers and the
#: timers. A change that means to alter packet timing re-records the
#: drifting rows from the ``got`` lines ``repro audit`` prints and bumps
#: ``repro.experiments.cache.DEFAULT_CODE_SALT`` in the same commit; any other
#: drift is a bug.
GOLDEN_DIGESTS: Dict[Tuple[str, str], Tuple[int, int]] = {
    ("dumbbell", "dctcp"): (17407, 0xd426b4ba8c324ffe),
    ("dumbbell", "naive"): (34868, 0x6314ab41aa5793eb),
    ("dumbbell", "homa"): (16166, 0x55123be7cb4e487b),
    ("dumbbell", "ly"): (32374, 0x746a9010a292b391),
    ("dumbbell", "flexpass"): (24646, 0x2f49f55f99f23598),
    ("incast", "dctcp"): (18395, 0x52db23345cdad285),
    ("incast", "naive"): (35726, 0xf5228e285366910e),
    ("incast", "homa"): (15786, 0xfa5929748377f494),
    ("incast", "ly"): (35466, 0xfe204d8eb98b3d45),
    ("incast", "flexpass"): (29972, 0xc7f4d430a3795495),
    ("clos", "dctcp"): (75243, 0x350317dcd7711ac7),
    ("clos", "naive"): (142317, 0xc8fb5d8f87692ba1),
    ("clos", "homa"): (75310, 0x5fc7da5b66757f77),
    ("clos", "ly"): (135682, 0x6c5dac6cdd511f1f),
    ("clos", "flexpass"): (115622, 0x64718ee31b57b85b),
}


@dataclass
class MatrixCell:
    """One audited (scheme, topology) run."""

    scheme: str
    topology: str
    violations: List[str] = field(default_factory=list)
    checks: int = 0
    checkpoints: int = 0
    flows: int = 0
    completed: int = 0
    aborted: bool = False
    #: ``(total, final)`` of this run's event digest
    digest: Tuple[int, int] = (0, 0)
    #: the pinned ``(total, final)``; None away from :data:`GOLDEN_POINT`
    expected: Optional[Tuple[int, int]] = None

    @property
    def drifted(self) -> bool:
        return self.expected is not None and self.digest != self.expected

    @property
    def ok(self) -> bool:
        return not self.violations and not self.aborted and not self.drifted


def golden_row(topology: str, scheme: str, digest: Tuple[int, int]) -> str:
    """One :data:`GOLDEN_DIGESTS` row, as it is written in this file."""
    return f'("{topology}", "{scheme}"): ({digest[0]}, 0x{digest[1]:016x}),'


def matrix_config(scheme: str, topology: str, sim_time_ns: int = 2 * MILLIS,
                  seed: int = 1, load: float = 0.5,
                  audit: Optional[AuditConfig] = None):
    """Build the ExperimentConfig for one matrix cell."""
    from repro.experiments.config import ExperimentConfig, SchemeName
    from repro.experiments.sweep import default_sweep_config

    try:
        clos, overrides = MATRIX_TOPOLOGIES[topology]
    except KeyError:
        raise ValueError(
            f"unknown audit topology {topology!r}; choose from "
            f"{sorted(MATRIX_TOPOLOGIES)}") from None
    scheme_name = SchemeName(scheme)
    deployment = 0.0 if scheme_name == SchemeName.DCTCP else 1.0
    return default_sweep_config(
        scheme=scheme_name, deployment=deployment, clos=clos,
        sim_time_ns=sim_time_ns, seed=seed, load=load,
        audit=audit if audit is not None else AuditConfig(),
        **overrides,
    )


def run_matrix(schemes: Sequence[str] = MATRIX_SCHEMES,
               topologies: Sequence[str] = tuple(MATRIX_TOPOLOGIES),
               sim_time_ns: int = 2 * MILLIS, seed: int = 1,
               load: float = 0.5) -> List[MatrixCell]:
    """Run every (scheme, topology) cell and collect its audit outcome."""
    from repro.experiments.runner import run_experiment

    pinned = (sim_time_ns, seed, load) == GOLDEN_POINT
    cells: List[MatrixCell] = []
    for topology in topologies:
        for scheme in schemes:
            cfg = matrix_config(scheme, topology, sim_time_ns=sim_time_ns,
                                seed=seed, load=load,
                                audit=AuditConfig(digest=True))
            res = run_experiment(cfg)
            report = res.audit
            cells.append(MatrixCell(
                scheme=scheme,
                topology=topology,
                violations=list(report.violations) if report else
                ["audit report missing from result"],
                checks=report.checks if report else 0,
                checkpoints=report.checkpoints if report else 0,
                flows=len(res.records),
                completed=res.completed,
                aborted=res.aborted,
                digest=(report.digest.total, report.digest.final())
                if report else (0, 0),
                expected=GOLDEN_DIGESTS.get((topology, scheme))
                if pinned else None,
            ))
    return cells
