#!/usr/bin/env python3
"""Quickstart: one FlexPass flow sharing a 10G link with legacy DCTCP.

Reproduces the paper's headline coexistence property (Figure 9b) in a few
seconds: the FlexPass flow and the DCTCP flow each take about half the
bottleneck, the reactive sub-flow yields, and nobody starves.

Run:  python examples/quickstart.py
"""

from repro.core.flexpass import FlexPassParams, FlexPassReceiver, FlexPassSender
from repro.experiments.config import QueueSettings
from repro.experiments.scenarios import flexpass_queue_factory
from repro.metrics.summary import print_table
from repro.net import DumbbellSpec, build_dumbbell
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MB, MILLIS
from repro.transports.base import FlowSpec, FlowStats
from repro.transports.credit_feedback import CREDIT_PER_DATA
from repro.transports.dctcp import DctcpParams, DctcpReceiver, DctcpSender


def main() -> None:
    sim = Simulator()

    # A dumbbell with the paper's switch configuration: Q0 credits
    # (strict priority, rate-limited to w_q), Q1 FlexPass (ECN + selective
    # dropping), Q2 legacy; Q1/Q2 under DWRR.
    wq = 0.5
    topo = build_dumbbell(
        sim, flexpass_queue_factory(QueueSettings(wq=wq)), DumbbellSpec(n_pairs=2)
    )

    size = 40 * MB
    horizon_ms = 30

    # Flow 1: FlexPass (upgraded traffic).
    fp_spec = FlowSpec(1, topo.senders[0], topo.receivers[0], size, 0,
                       scheme="flexpass", group="new")
    fp_stats = FlowStats()
    fp_params = FlexPassParams(
        max_credit_rate_bps=10 * GBPS * wq * CREDIT_PER_DATA
    )
    FlexPassReceiver(sim, fp_spec, fp_stats, fp_params)
    fp_sender = FlexPassSender(sim, fp_spec, fp_stats, fp_params)
    sim.at(0, fp_sender.start)

    # Flow 2: legacy DCTCP.
    dc_spec = FlowSpec(2, topo.senders[1], topo.receivers[1], size, 0,
                       scheme="dctcp", group="legacy")
    dc_stats = FlowStats()
    DctcpReceiver(sim, dc_spec, dc_stats, DctcpParams())
    dc_sender = DctcpSender(sim, dc_spec, dc_stats, DctcpParams())
    sim.at(0, dc_sender.start)

    sim.run(until=horizon_ms * MILLIS)

    total = fp_stats.delivered_bytes + dc_stats.delivered_bytes
    print_table(
        f"Bandwidth over {horizon_ms} ms of contention (10G bottleneck)",
        ("flow", "delivered", "share", "via proactive", "via reactive",
         "timeouts"),
        [
            ("FlexPass", f"{fp_stats.delivered_bytes / 1e6:.1f} MB",
             f"{fp_stats.delivered_bytes / total:.1%}",
             f"{fp_stats.proactive_bytes / 1e6:.1f} MB",
             f"{fp_stats.reactive_bytes / 1e6:.1f} MB",
             fp_stats.timeouts),
            ("DCTCP", f"{dc_stats.delivered_bytes / 1e6:.1f} MB",
             f"{dc_stats.delivered_bytes / total:.1%}",
             "-", "-", dc_stats.timeouts),
        ],
    )
    print(
        "\nFlexPass's proactive sub-flow used its reserved w_q share and the\n"
        "reactive sub-flow backed off, leaving legacy DCTCP its fair half —\n"
        "compare Figure 9(b) of the paper."
    )


if __name__ == "__main__":
    main()
