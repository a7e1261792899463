"""Failure-injection tests: targeted packet drops and recovery paths.

The paper's §4.3 "Handling proactive data packet losses" path (switch
failures, i.e., non-congestion loss) is hard to trigger organically on a
clean fabric, so these tests inject drops at the link layer — via the
library's :class:`repro.faults.LossyLink`, so test and experiment fault
paths cannot drift — and verify each recovery mechanism fires and the
flow still completes exactly once.
"""

from repro.core.flexpass import FlexPassParams, FlexPassReceiver, FlexPassSender
from repro.experiments.config import QueueSettings
from repro.experiments.scenarios import flexpass_queue_factory
from repro.faults import splice_lossy as _splice
from repro.net.packet import PacketKind
from repro.net import DumbbellSpec, build_dumbbell
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, KB, MB, MILLIS
from repro.transports.base import FlowSpec, FlowStats
from repro.transports.credit_feedback import CREDIT_PER_DATA
from repro.transports.dctcp import DctcpParams, DctcpReceiver, DctcpSender

from tests.util import Completions


def setup_flexpass(size=1 * MB, **param_overrides):
    sim = Simulator()
    db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings(wq=0.5)),
                        DumbbellSpec(n_pairs=1))
    done = Completions()
    spec = FlowSpec(1, db.senders[0], db.receivers[0], size, 0,
                    scheme="flexpass", group="new")
    stats = FlowStats()
    params = FlexPassParams(
        max_credit_rate_bps=10 * GBPS * 0.5 * CREDIT_PER_DATA,
        **param_overrides,
    )
    FlexPassReceiver(sim, spec, stats, params, on_complete=done)
    sender = FlexPassSender(sim, spec, stats, params)
    sim.at(0, sender.start)
    return sim, db, stats, done, sender


class TestProactiveLossRecovery:
    def test_single_proactive_drop_recovered_by_dupacks(self):
        """A mid-flow proactive loss is detected via SACK dupacks and
        retransmitted on a later credit — no timer involved."""
        sim, db, stats, done, sender = setup_flexpass()
        state = {"dropped": False}

        def drop_one(pkt):
            if (pkt.kind == PacketKind.DATA and pkt.subflow == 0
                    and pkt.seq == 20 and not state["dropped"]):
                state["dropped"] = True
                return True
            return False

        _splice(db.bottleneck, drop_one)
        sim.run(until=60 * MILLIS)
        assert done.flow_ids == {1}
        assert stats.delivered_bytes == 1 * MB
        assert state["dropped"]
        assert stats.retransmissions >= 1
        assert stats.timeouts == 0  # dupack recovery, not the timer

    def test_tail_proactive_drop_recovered_by_timer(self):
        """Dropping the *last* proactive packet leaves no later ACKs for
        dupack detection: the §4.3 recovery timer must fire."""
        sim, db, stats, done, sender = setup_flexpass(size=1 * MB)
        n_seg = 1 * MB // 1500 + 1
        state = {"dropped": 0}

        def drop_tail(pkt):
            # Drop every proactive copy of the last flow segment a few times.
            if (pkt.kind == PacketKind.DATA and pkt.subflow == 0
                    and pkt.flow_seq == n_seg - 1 and state["dropped"] < 1):
                state["dropped"] += 1
                return True
            return False

        _splice(db.bottleneck, drop_tail)
        sim.run(until=100 * MILLIS)
        assert done.flow_ids == {1}
        assert stats.delivered_bytes == 1 * MB

    def test_lost_credit_request_is_retried(self):
        # Proactive-only ablation: without the reactive sub-flow the flow
        # cannot make progress until the retried credit request lands.
        sim, db, stats, done, sender = setup_flexpass(
            size=200 * KB, enable_reactive=False)
        state = {"dropped": 0}

        def drop_request(pkt):
            if pkt.kind == PacketKind.CREDIT_REQUEST and state["dropped"] < 1:
                state["dropped"] += 1
                return True
            return False

        _splice(db.senders[0].nic_port, drop_request)
        sim.run(until=100 * MILLIS)
        assert done.flow_ids == {1}
        assert stats.request_retries >= 1

    def test_dropped_final_ack_is_recovered_by_a_re_request(self):
        """Proactive-only: the receiver completes and stops crediting, and
        the one ACK it emits after that is dropped. The §4.3 recovery timer
        must re-request so the receiver re-sends its summary ACKs."""
        sim, db, stats, done, sender = setup_flexpass(
            size=30 * KB, enable_reactive=False)
        dropped = []

        def drop_acks_after_completion(pkt):
            if pkt.kind == PacketKind.ACK and stats.completed and not dropped:
                dropped.append(pkt.seq)
                return True
            return False

        _splice(db.receivers[0].nic_port, drop_acks_after_completion)
        sim.run(until=200 * MILLIS)
        assert done.flow_ids == {1} and len(dropped) == 1
        assert sender.done and sender.all_acked
        assert 1 not in db.senders[0]._senders
        assert stats.timeouts == 1

    def test_random_loss_storm_still_completes_exactly_once(self):
        """5% random loss on the bottleneck in both directions: everything
        still completes, and reassembly never double-delivers."""
        import random

        rng = random.Random(42)
        sim, db, stats, done, sender = setup_flexpass(size=1 * MB)

        def drop_random(pkt):
            return pkt.kind == PacketKind.DATA and rng.random() < 0.05

        _splice(db.bottleneck, drop_random)
        sim.run(until=200 * MILLIS)
        assert done.flow_ids == {1}
        assert stats.delivered_bytes == 1 * MB  # exactly once

    def test_ack_losses_do_not_deadlock(self):
        """Dropping 10% of ACKs: cumulative ACKs cover the holes."""
        import random

        rng = random.Random(7)
        sim, db, stats, done, sender = setup_flexpass(size=1 * MB)

        def drop_acks(pkt):
            return pkt.kind == PacketKind.ACK and rng.random() < 0.10

        _splice(db.receivers[0].nic_port, drop_acks)
        sim.run(until=200 * MILLIS)
        assert done.flow_ids == {1}
        assert sender.all_acked  # sender converged despite lost ACKs


class TestReactiveTailLoss:
    """A lost reactive tail leaves no later reactive ACK for dupack
    detection. FlexPass recovers it by proactive retransmission, with no
    timeout (§4.2); the ``enable_reactive_rto`` ablation needs its RTO."""

    SIZE = 15 * 1500  # the initial window sends every segment reactively

    def _run(self, **param_overrides):
        sim, db, stats, done, sender = setup_flexpass(
            size=self.SIZE, **param_overrides)
        dropped = []

        def drop_reactive_tail(pkt):
            if (pkt.kind == PacketKind.DATA and pkt.subflow == 1
                    and pkt.flow_seq == self.SIZE // 1500 - 1 and not dropped):
                dropped.append(pkt.seq)
                return True
            return False

        _splice(db.bottleneck, drop_reactive_tail)
        sim.run(until=100 * MILLIS)
        assert dropped
        assert done.flow_ids == {1}
        assert stats.delivered_bytes == self.SIZE
        return stats

    def test_rto_ablation_recovers_by_timeout(self):
        stats = self._run(enable_proactive_rtx=False, enable_reactive_rto=True)
        assert stats.timeouts >= 1

    def test_proactive_retransmission_needs_no_timeout(self):
        stats = self._run()
        assert stats.timeouts == 0
        assert stats.proactive_retransmissions >= 1


class TestDctcpUnderLoss:
    def test_dctcp_survives_random_loss(self):
        sim = Simulator()
        db = build_dumbbell(sim, flexpass_queue_factory(QueueSettings()),
                            DumbbellSpec(n_pairs=1))
        done = Completions()
        spec = FlowSpec(1, db.senders[0], db.receivers[0], 1 * MB, 0,
                        scheme="dctcp")
        stats = FlowStats()
        DctcpReceiver(sim, spec, stats, DctcpParams(), on_complete=done)
        sender = DctcpSender(sim, spec, stats, DctcpParams())
        sim.at(0, sender.start)
        import random

        rng = random.Random(3)
        _splice(db.bottleneck,
                lambda pkt: pkt.kind == PacketKind.DATA and rng.random() < 0.03)
        sim.run(until=400 * MILLIS)
        assert done.flow_ids == {1}
        assert stats.delivered_bytes == 1 * MB
        assert stats.retransmissions > 0
