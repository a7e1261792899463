#!/usr/bin/env python3
"""North-south traffic after full deployment (§1 / §2.1 motivation).

Even when every rack runs FlexPass, legacy traffic never disappears:
Internet-facing flows (~1/6 of Facebook's datacenter traffic per Roy et
al.) keep crossing the boundary. This example deploys FlexPass on 100% of
racks, keeps a fraction of flows on legacy DCTCP ("north-south"), and shows
both classes coexist: neither starves, FlexPass keeps its bounded-queue
benefits, legacy keeps reasonable tails.

Run:  python examples/north_south.py [--ns-fraction 0.18]
"""

import argparse

from repro.experiments.config import ExperimentConfig, SchemeName
from repro.experiments.runner import flow_specs, pump_flows
from repro.experiments.scenarios import make_scheme_setup
from repro.metrics.fct import FlowRecord, summarize
from repro.metrics.summary import print_table
from repro.net import ClosSpec, build_clos
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.units import MILLIS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ns-fraction", type=float, default=0.18,
                        help="fraction of flows that stay legacy (north-south)")
    parser.add_argument("--ms", type=int, default=10)
    parser.add_argument("--load", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    cfg = ExperimentConfig(
        scheme=SchemeName.FLEXPASS, deployment=1.0, load=args.load,
        sim_time_ns=args.ms * MILLIS, size_scale=8.0, seed=args.seed,
        clos=ClosSpec(n_pods=2, aggs_per_pod=2, tors_per_pod=2, hosts_per_tor=4),
    )

    # Build the experiment by hand so we can relabel a fraction of flows as
    # boundary-crossing legacy traffic despite the 100% rack deployment.
    sim = Simulator()
    rng = RngRegistry(cfg.seed)
    setup = make_scheme_setup(cfg)
    clos = build_clos(sim, setup.queue_factory, cfg.clos)
    ns_rng = rng.stream("north-south")

    def with_north_south(flows):
        for spec, children in flows:
            if ns_rng.random() < args.ns_fraction:
                spec.group = "legacy"
                spec.scheme = "dctcp"
            yield spec, children

    live = {}
    pump_flows(sim, with_north_south(flow_specs(cfg, clos, rng)), setup, live,
               cfg.sim_time_ns)
    sim.run(until=cfg.sim_time_ns)

    records = [FlowRecord.from_flow(s, st) for s, st in live.values()]
    cutoff = cfg.scaled_cutoff_bytes()
    fp = summarize(records, small_cutoff_bytes=cutoff, group="new")
    ns = summarize(records, small_cutoff_bytes=cutoff, group="legacy")
    fp_all = summarize(records, group="new")
    ns_all = summarize(records, group="legacy")
    print_table(
        f"Full FlexPass deployment + {args.ns_fraction:.0%} north-south legacy",
        ("class", "flows", "avg FCT (ms)", "p99 small FCT (ms)", "timeouts"),
        [
            ("FlexPass (east-west)", fp_all.count, fp_all.avg_ms, fp.p99_ms,
             fp_all.timeouts),
            ("DCTCP (north-south)", ns_all.count, ns_all.avg_ms, ns.p99_ms,
             ns_all.timeouts),
        ],
    )
    print("\nBoth classes make progress: the w_q reservation keeps FlexPass's "
          "proactive loop intact\nwhile DWRR guarantees the legacy queue its "
          "share — the heterogeneity §2.1 says is permanent.")


if __name__ == "__main__":
    main()
