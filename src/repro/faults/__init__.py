"""Fault injection and resilient execution (paper §4.3).

FlexPass's robustness claim is that proactive data losses from
*non-congestion* causes — switch/link failures, corrupted frames — are
recovered by the reactive sub-flow and proactive retransmission. A clean
simulated fabric never exercises that path, so this package provides:

* **Loss models** (:mod:`repro.faults.models`): seeded Bernoulli and
  Gilbert-Elliott burst loss, plus predicate- and kind-selective filters.
* **FaultyLink** (:mod:`repro.faults.link`): a library-grade wrapper that
  attaches loss/corruption models to any :class:`repro.net.link.Link`,
  tracks in-flight packets, and supports up/down state.
* **Scheduled failures** (:mod:`repro.faults.events`):
  :class:`LinkDownEvent`/:class:`LinkUpEvent` on the simulator clock with
  ECMP route recomputation and in-flight discard.
* **FaultPlan** (:mod:`repro.faults.spec`): a picklable description of all
  of the above, carried on an ``ExperimentConfig`` so any scenario or
  figure can run under faults, seeded via ``RngRegistry`` for bit-for-bit
  reproducibility. Building one loads none of the injector;
  ``FaultPlan.apply`` loads :mod:`repro.faults.plan`, which splices the
  links and schedules the failures.

Each name below resolves lazily from its submodule, so a config that
carries no :class:`FaultPlan` loads none of the injector.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".counters": ("FaultCounters",),
    ".events": ("LinkDownEvent", "LinkUpEvent", "schedule_failure_events"),
    ".link": ("FaultyLink", "LossyLink", "splice", "splice_lossy"),
    ".models": ("KIND_ALIASES", "BernoulliLoss", "GilbertElliottLoss",
                "KindSelectiveLoss", "LossModel", "PredicateLoss",
                "kinds_from_names"),
    ".plan": ("FaultInjector",),
    ".spec": ("FaultPlan", "FaultPlanError", "LinkFailureSpec",
              "LinkLossSpec", "SiteFailureSpec"),
})
