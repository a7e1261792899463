#!/usr/bin/env python3
"""Failure recovery: the §4.3 robustness story, end to end.

Two demonstrations in a few seconds:

1. **Link outage** — one FlexPass and one DCTCP flow share a dumbbell whose
   bottleneck link dies mid-transfer and is repaired 4 ms later. Packets in
   flight are destroyed, routes reconverge on both transitions, and both
   flows complete (FlexPass via reactive retransmission and
   proactive retransmission, DCTCP via its RTO).

2. **Seeded random loss** — a full Clos experiment run under a FaultPlan
   (Gilbert-Elliott burst loss on every link, data packets only) carried on
   the ExperimentConfig, showing fault counters on the result and that the
   same seed reproduces the same faults bit for bit.

Run:  python examples/failure_recovery.py
"""

from repro.experiments.config import ExperimentConfig, SchemeName
from repro.experiments.figures import failure_recovery
from repro.experiments.runner import run_experiment
from repro.faults import FaultPlan, LinkFailureSpec, LinkLossSpec
from repro.metrics.summary import degraded_title, print_table
from repro.net.topology import ClosSpec
from repro.sim.units import MILLIS


def main() -> None:
    # 1. The scripted outage scenario (also: `repro.cli figure failure-recovery`).
    failure_recovery(down_ms=2.0, up_ms=6.0).print_report()

    # 2. A whole experiment under a seeded fault plan.
    plan = FaultPlan(
        losses=(
            # bursty loss on every link, proactive/reactive data only
            LinkLossSpec(model="gilbert", rate=1.0,
                         burst_start=0.001, burst_end=0.2, kinds=("data",)),
        ),
        failures=(
            # one ToR uplink flaps for half a millisecond mid-run
            LinkFailureSpec(a="tor0.0", b="agg0.0",
                            down_ns=1 * MILLIS, up_ns=int(1.5 * MILLIS)),
        ),
    )
    cfg = ExperimentConfig(
        scheme=SchemeName.FLEXPASS,
        deployment=1.0,
        load=0.4,
        sim_time_ns=3 * MILLIS,
        size_scale=16.0,
        seed=7,
        clos=ClosSpec(n_pods=2, aggs_per_pod=1, tors_per_pod=2, hosts_per_tor=2),
        faults=plan,
        max_wall_seconds=120.0,  # watchdog: a runaway run aborts, not hangs
    )
    res = run_experiment(cfg)
    twin = run_experiment(cfg)
    fc = res.fault_counters
    print_table(
        degraded_title("FlexPass Clos under seeded faults", res),
        ("metric", "value"),
        [
            ("flows completed", f"{res.completed}/{len(res.records)}"),
            ("faults injected (drops)", fc.injected_drops),
            ("link-down losses",
             fc.discarded_in_flight + fc.dropped_link_down),
            ("reroutes", fc.reroutes),
            ("same seed, same faults", twin.fault_counters == fc),
        ],
    )


if __name__ == "__main__":
    main()
