"""Traffic generation: flow-size distributions, streaming sources, deployment.

Size models live in :mod:`repro.workloads.distributions`, the arrival
processes, pair pickers, sources and the declarative ``TrafficConfig`` in
:mod:`repro.workloads.gen`, rack-granularity deployment in
:mod:`repro.workloads.deployment`.
"""

from repro.workloads.deployment import DeploymentPlan
from repro.workloads.distributions import (
    BimodalSizes,
    BoundedParetoSizes,
    EmpiricalCdf,
    LognormalSizes,
    SizeModel,
    WORKLOADS,
    workload_cdf,
)
from repro.workloads.gen import (
    ArrivalProcess,
    BulkSource,
    CoflowSource,
    GroupedPairs,
    IncastSource,
    MatrixPairs,
    OnOffArrivals,
    OpenLoopSource,
    PairPicker,
    ParetoArrivals,
    PoissonArrivals,
    SourceConfig,
    StreamDigest,
    TrafficConfig,
    TrafficSource,
    TrafficSpec,
    UniformPairs,
    build_sources,
    merge_sources,
    stream_digest,
    stub_groups,
    stub_hosts,
)

__all__ = [
    "DeploymentPlan",
    "EmpiricalCdf",
    "SizeModel",
    "LognormalSizes",
    "BoundedParetoSizes",
    "BimodalSizes",
    "WORKLOADS",
    "workload_cdf",
    "TrafficSpec",
    "ArrivalProcess",
    "PoissonArrivals",
    "ParetoArrivals",
    "OnOffArrivals",
    "PairPicker",
    "UniformPairs",
    "GroupedPairs",
    "MatrixPairs",
    "TrafficSource",
    "OpenLoopSource",
    "IncastSource",
    "CoflowSource",
    "BulkSource",
    "SourceConfig",
    "TrafficConfig",
    "StreamDigest",
    "build_sources",
    "merge_sources",
    "stream_digest",
    "stub_hosts",
    "stub_groups",
]
