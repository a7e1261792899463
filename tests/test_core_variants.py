"""Tests for the §4.3 design-alternative variants of FlexPass."""

from dataclasses import replace

from repro.core.flexpass import FlexPassParams, FlexPassReceiver, FlexPassSender
from repro.core.variants import (
    Rc3SplitReceiver,
    Rc3SplitSender,
    alt_queue_params,
)
from repro.experiments.config import QueueSettings
from repro.experiments.scenarios import flexpass_queue_factory
from repro.net.packet import Color, Dscp
from repro.net import DumbbellSpec, build_dumbbell
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MB, MILLIS
from repro.transports.base import FlowSpec, FlowStats
from repro.transports.credit_feedback import CREDIT_PER_DATA

from tests.util import Completions


def fp_params(**kw):
    return FlexPassParams(
        max_credit_rate_bps=10 * GBPS * 0.5 * CREDIT_PER_DATA, **kw
    )


def run_flow(sender_cls, receiver_cls, params, size=4 * MB, until_ms=60):
    sim = Simulator()
    db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings(wq=0.5)),
                        DumbbellSpec(n_pairs=1))
    done = Completions()
    spec = FlowSpec(1, db.senders[0], db.receivers[0], size, 0,
                    scheme="x", group="new")
    stats = FlowStats()
    receiver_cls(sim, spec, stats, params, on_complete=done)
    sender = sender_cls(sim, spec, stats, params)
    sim.at(0, sender.start)
    sim.run(until=until_ms * MILLIS)
    return stats, done


class TestRc3Splitting:
    def test_flow_completes(self):
        params = fp_params(enable_proactive_rtx=False)
        stats, done = run_flow(Rc3SplitSender, Rc3SplitReceiver, params)
        assert done.flow_ids == {1}
        assert stats.delivered_bytes == 4 * MB

    def test_reactive_sends_from_the_back(self):
        """RC3 splitting: the reactive loop transmits the tail of the flow
        first — visible as a large reorder buffer at the receiver."""
        params = fp_params(enable_proactive_rtx=False)
        rc3_stats, _ = run_flow(Rc3SplitSender, Rc3SplitReceiver, params)
        fp_stats, _ = run_flow(FlexPassSender, FlexPassReceiver, fp_params())
        assert rc3_stats.max_reorder_bytes > 4 * fp_stats.max_reorder_bytes

    def test_no_duplicate_transmissions_by_construction(self):
        """The two RC3 loops never overlap, so reassembly sees no dups."""
        params = fp_params(enable_proactive_rtx=False)
        stats, _ = run_flow(Rc3SplitSender, Rc3SplitReceiver, params)
        # On a clean link with no drops there is nothing to duplicate.
        assert stats.duplicate_bytes == 0


class TestAlternativeQueueing:
    def test_params_redirect_reactive_to_legacy_queue(self):
        params = alt_queue_params(fp_params())
        assert params.reactive_data_dscp == Dscp.LEGACY
        assert params.reactive_data_color == Color.GREEN
        # proactive mapping untouched
        assert params.proactive_data_dscp == Dscp.PROACTIVE_DATA

    def test_flow_completes_through_legacy_queue(self):
        params = alt_queue_params(fp_params())
        stats, done = run_flow(FlexPassSender, FlexPassReceiver, params)
        assert done.flow_ids == {1}
        assert stats.delivered_bytes == 4 * MB
        assert stats.reactive_bytes > 0  # reactive path actually used


class TestAblationFlags:
    def test_proactive_only_mode(self):
        params = fp_params(enable_reactive=False)
        stats, done = run_flow(FlexPassSender, FlexPassReceiver, params)
        assert done.flow_ids == {1}
        assert stats.reactive_bytes == 0
        assert stats.proactive_bytes == 4 * MB

    def test_proactive_only_is_limited_to_wq(self):
        params = fp_params(enable_reactive=False)
        stats, done = run_flow(FlexPassSender, FlexPassReceiver, params)
        both, done2 = run_flow(FlexPassSender, FlexPassReceiver, fp_params())
        # 4 MB at 5G ~ 6.4ms vs ~3.4ms with both sub-flows
        assert done.fct_ms(1) > done2.fct_ms(1) * 1.5

    def test_no_proactive_rtx_flag(self):
        params = fp_params(enable_proactive_rtx=False)
        stats, done = run_flow(FlexPassSender, FlexPassReceiver, params)
        assert done.flow_ids == {1}
        assert stats.proactive_retransmissions == 0
