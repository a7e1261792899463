"""Ablations of FlexPass's design choices (DESIGN.md §6).

Not a paper figure: these isolate the mechanisms §4.2 argues for —
(1) proactive retransmission (the tail-latency optimization),
(2) the reactive sub-flow itself (spare-bandwidth utilization).
"""

from dataclasses import replace

from repro.core.flexpass import FlexPassParams, FlexPassReceiver, FlexPassSender
from repro.experiments.config import QueueSettings
from repro.experiments.scenarios import flexpass_queue_factory
from repro.metrics.summary import print_table
from repro.net import DumbbellSpec, StarSpec, build_dumbbell, build_star
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, KB, MB, MILLIS
from repro.transports.base import FlowSpec, FlowStats
from repro.transports.credit_feedback import CREDIT_PER_DATA

from benchmarks.common import run_once


def _params(**kw):
    return FlexPassParams(
        max_credit_rate_bps=10 * GBPS * 0.5 * CREDIT_PER_DATA, **kw
    )


def _incast_run(params, n_flows=48):
    sim = Simulator()
    star = build_star(sim, flexpass_queue_factory(QueueSettings(wq=0.5)),
                      StarSpec(n_hosts=9, buffer_bytes=2 * MB))
    receiver = star.hosts[0]
    stats = []
    for k in range(n_flows):
        src = star.hosts[1:][k % 8]
        spec = FlowSpec(k + 1, src, receiver, 64 * KB, 0,
                        scheme="flexpass", group="new")
        st = FlowStats()
        FlexPassReceiver(sim, spec, st, params)
        sender = FlexPassSender(sim, spec, st, params)
        sim.at(0, sender.start)
        stats.append(st)
    sim.run(until=300 * MILLIS)
    fcts = [s.fct_ns() / 1e6 for s in stats if s.completed]
    return max(fcts) if fcts else float("inf"), len(fcts), len(stats)


def _solo_run(params):
    sim = Simulator()
    db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings(wq=0.5)),
                        DumbbellSpec(n_pairs=1))
    spec = FlowSpec(1, db.senders[0], db.receivers[0], 8 * MB, 0,
                    scheme="flexpass", group="new")
    st = FlowStats()
    FlexPassReceiver(sim, spec, st, params)
    sender = FlexPassSender(sim, spec, st, params)
    sim.at(0, sender.start)
    sim.run(until=80 * MILLIS)
    return st.fct_ns() / 1e6 if st.completed else float("inf")


def test_bench_ablation_proactive_rtx(benchmark):
    """Disabling proactive retransmission forces reactive tail losses to
    wait for the (re-enabled) reactive RTO — tail FCT suffers."""

    def run():
        with_rtx, _, _ = _incast_run(_params())
        without = _params(enable_proactive_rtx=False, enable_reactive_rto=True)
        without_rtx, _, _ = _incast_run(without)
        return with_rtx, without_rtx

    with_rtx, without_rtx = run_once(benchmark, run)
    print_table(
        "Ablation: proactive retransmission (48-flow incast tail FCT)",
        ("variant", "max FCT (ms)"),
        [("with proactive rtx", with_rtx),
         ("without (RTO fallback)", without_rtx)],
    )
    assert with_rtx <= without_rtx


def test_bench_ablation_reactive_subflow(benchmark):
    """Without the reactive sub-flow, a lone FlexPass flow is stuck at the
    w_q reservation and leaves half the link idle (§3.2's dilemma)."""

    def run():
        full = _solo_run(_params())
        proactive_only = _solo_run(_params(enable_reactive=False))
        return full, proactive_only

    full, proactive_only = run_once(benchmark, run)
    print_table(
        "Ablation: reactive sub-flow (lone 8 MB flow on idle 10G link)",
        ("variant", "FCT (ms)"),
        [("both sub-flows", full), ("proactive only", proactive_only)],
    )
    # proactive-only is limited to ~wq of the link: ~2x slower.
    assert proactive_only > full * 1.5
