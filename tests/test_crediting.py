"""Unit tests for the receiver-side credit pacer."""

import pytest

from repro.net.packet import Dscp, PacketKind
from repro.net import DumbbellSpec, build_dumbbell
from repro.sim.engine import Simulator
from repro.sim.units import MILLIS, SECONDS
from repro.transports.base import FlowStats
from repro.transports.crediting import CreditPacer

from tests.test_net_port_topology import Recorder, single_queue_factory


def make_pacer(rate_bps=500e6, update_period=40_000):
    sim = Simulator()
    db = build_dumbbell(sim, single_queue_factory, DumbbellSpec(n_pairs=1))
    stats = FlowStats()
    pacer = CreditPacer(sim, 1, db.receivers[0], db.senders[0].id, stats,
                        rate_bps, update_period)
    rec = Recorder()
    db.senders[0].register_sender(1, rec)
    return sim, pacer, stats, rec


class TestCreditPacer:
    def test_paces_at_configured_rate(self):
        sim, pacer, stats, rec = make_pacer(rate_bps=500e6)
        pacer.start()
        sim.run(until=10 * MILLIS)
        pacer.stop()
        # 500 Mbps of 84B credits = ~744 credits/ms; jitter averages out.
        expected = 500e6 * 10e-3 / (84 * 8)
        assert expected * 0.8 < stats.credits_sent < expected * 1.2

    def test_credit_seqs_increase(self):
        sim, pacer, stats, rec = make_pacer()
        pacer.start()
        sim.run(until=1 * MILLIS)
        pacer.stop()
        seqs = [p.seq for p in rec.packets if p.kind == PacketKind.CREDIT]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_stop_halts_credits(self):
        sim, pacer, stats, rec = make_pacer()
        pacer.start()
        sim.run(until=1 * MILLIS)
        pacer.stop()
        count = stats.credits_sent
        sim.run(until=5 * MILLIS)
        assert stats.credits_sent == count
        assert sim.pending() == 0  # no leaked timers

    def test_start_is_idempotent(self):
        sim, pacer, stats, rec = make_pacer()
        pacer.start()
        pacer.start()
        sim.run(until=1 * MILLIS)
        pacer.stop()
        # one pacing loop, not two: rate honored
        expected = 500e6 * 1e-3 / (84 * 8)
        assert stats.credits_sent < expected * 1.3

    def test_rate_updates_take_effect(self):
        sim, pacer, stats, rec = make_pacer(rate_bps=500e6)
        pacer.start()
        sim.run(until=2 * MILLIS)
        at_full = stats.credits_sent
        pacer.feedback.rate_bps = 50e6  # force a 10x slowdown
        sim.run(until=4 * MILLIS)
        slow_period = stats.credits_sent - at_full
        pacer.stop()
        assert slow_period < at_full * 0.3

    def test_credits_carry_correct_addressing(self):
        sim, pacer, stats, rec = make_pacer()
        pacer.start()
        sim.run(until=200_000)
        pacer.stop()
        pkt = rec.packets[0]
        assert pkt.kind == PacketKind.CREDIT
        assert pkt.dscp == Dscp.CREDIT
        assert pkt.flow_id == 1
        assert pkt.size == 84

    def test_periodic_feedback_update_runs(self):
        sim, pacer, stats, rec = make_pacer(update_period=100_000)
        pacer.start()
        # pretend every credit came back: no loss -> rate should not drop
        sim.run(until=1 * MILLIS)
        for i in range(stats.credits_sent):
            pacer.note_data_received(i)
        before = pacer.feedback.rate_bps
        sim.run(until=2 * MILLIS)
        pacer.stop()
        assert pacer.feedback.updates >= 9
        assert pacer.feedback.rate_bps >= before * 0.5
