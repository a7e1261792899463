"""The FlexPass sender against a model of §4's five packet states.

Every segment of a FlexPass flow is PENDING, SENT_REACTIVE, SENT_PROACTIVE,
LOST or ACKED (paper Figure 4). :class:`Model` tracks those states from
what the sender emits and what the test feeds it, with one
:class:`~tests.util.ScoreboardModel` per sub-flow for loss detection, and
states the rules of §4.2 directly:

* a credit sends exactly one segment on the proactive sub-flow, picked
  Lost > Pending > Sent-as-reactive (the last only with proactive
  retransmission on), lowest index first, or is wasted when none is left;
* the reactive sub-flow sends only PENDING segments, from the front (RC3:
  from the back), and never retransmits;
* each sub-flow numbers its copies 0, 1, 2, ...; an ACK acks the segment
  of every copy it covers, and a segment acked on one sub-flow leaves
  flight on the other;
* a loss detected on a sub-flow makes a segment LOST only if that copy is
  its latest one there and nothing has moved the segment on since;
* the proactive recovery timer runs exactly while a proactive copy is in
  flight and the flow is not done (an older copy's ACK can finish the
  flow with a newer copy still out), and the reactive RTO is never armed
  (the design has none).

The real sender and receiver run over fake hosts. One random sequence of
credits, data deliveries in any order (some CE-marked, some ACKs lost),
summary ACKs (once the flow is complete, the answer its host gives a late
``CREDIT_REQUEST``), drops, clock ticks and recovery-timer fires drives
them; after every step the sender's segment states, sub-flow scoreboards,
timers and counters must be the model's, with ``credits_received ==
credited_sends + credits_wasted`` and ``duplicate_bytes`` the bytes of the
copies the receiver already had. Deliveries go through the receiving
host's table, so a finished flow's are answered by its tombstone.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.flexpass import (
    PROACTIVE, REACTIVE, FlexPassParams, FlexPassReceiver, FlexPassSender,
    send_summary_acks,
)
from repro.core.segments import SegmentState as S
from repro.core.variants import Rc3SplitSender
from repro.net.packet import (
    CREDIT_WIRE_BYTES, MSS, Color, PacketKind, alloc_packet,
)
from repro.sim.engine import Simulator
from repro.transports.base import FlowSpec, FlowStats

from tests.util import ScoreboardModel


class FakeHost:
    """Records what an endpoint sends; no NIC, no network. Its receiver
    table is a host's: a finished flow's tombstone replaces the receiver,
    and :meth:`deliver` hands a packet to whatever the table holds."""

    def __init__(self, node_id: int) -> None:
        self.id = node_id
        self.sent = []
        self.receivers = {}

    def register_sender(self, flow_id, endpoint) -> None:
        pass

    def unregister_sender(self, flow_id) -> None:
        pass

    def register_receiver(self, flow_id, endpoint) -> None:
        self.receivers[flow_id] = endpoint

    def retire_receiver(self, flow_id, tombstone) -> None:
        assert isinstance(self.receivers[flow_id], FlexPassReceiver)
        self.receivers[flow_id] = tombstone

    def deliver(self, pkt) -> None:
        self.receivers[pkt.flow_id].on_packet(pkt)

    def send(self, pkt) -> bool:
        self.sent.append(pkt)
        return True

    def take(self, kind):
        """What was sent since the last call, of one kind."""
        sent, self.sent = self.sent, []
        return [p for p in sent if p.kind == kind]


#: (sender class, params)
CONFIGS = {
    "default": (FlexPassSender, FlexPassParams()),
    "no_proactive_rtx": (FlexPassSender,
                         FlexPassParams(enable_proactive_rtx=False)),
    "no_reactive": (FlexPassSender, FlexPassParams(enable_reactive=False)),
    "rc3": (Rc3SplitSender, FlexPassParams(enable_proactive_rtx=False)),
}

#: (op, which in-network packet / clock tick, CE mark, ACK lost)
OPS = st.lists(
    st.tuples(st.sampled_from(["credit", "credit", "deliver", "deliver",
                               "deliver", "drop", "summary", "tick", "fire"]),
              st.integers(0, 10**6), st.booleans(), st.booleans()),
    min_size=20, max_size=120,
)

_SENT = (S.SENT_PROACTIVE, S.SENT_REACTIVE)  # by sub-flow id


class Model:
    """The five states of every segment, and each sub-flow's copies."""

    def __init__(self, n: int, params: FlexPassParams, rc3: bool) -> None:
        self.state = [S.PENDING] * n
        self.params = params
        self.rc3 = rc3
        self.boards = (ScoreboardModel(params.dupthresh),
                       ScoreboardModel(params.dupthresh))
        self.segs = ([], [])  # per sub-flow: copy seq -> segment
        self.last = ([-1] * n, [-1] * n)  # per sub-flow: latest copy seq
        self.stats = FlowStats()  # the counters the sender must keep
        self.delivered = set()

    @property
    def done(self) -> bool:
        return all(s == S.ACKED for s in self.state)

    def first(self, state, back=False):
        idxs = [i for i, s in enumerate(self.state) if s == state]
        return (max if back else min)(idxs, default=None)

    def credit_pick(self):
        order = (S.LOST, S.PENDING)
        if self.params.enable_proactive_rtx:
            order += (S.SENT_REACTIVE,)
        for state in order:
            idx = self.first(state)
            if idx is not None:
                return idx
        return None

    def sent(self, pkt, now: int) -> None:
        sub, idx = pkt.subflow, pkt.flow_seq
        assert pkt.seq == len(self.segs[sub])
        self.segs[sub].append(idx)
        self.last[sub][idx] = pkt.seq
        self.boards[sub].send(pkt.seq, now)
        self.state[idx] = _SENT[sub]
        self.stats.packets_sent += 1

    def acked(self, sub: int, cum: int, sack, echo: int) -> None:
        newly, lost = self.boards[sub].ack(cum, sack, echo)
        other = 1 - sub
        for seq in newly:
            idx = self.segs[sub][seq]
            if self.state[idx] != S.ACKED:
                self.state[idx] = S.ACKED
                if self.last[other][idx] >= 0:
                    self.boards[other].remove(self.last[other][idx])
        self.lose(sub, lost)

    def lose(self, sub: int, seqs) -> None:
        for seq in seqs:
            idx = self.segs[sub][seq]
            if self.state[idx] == _SENT[sub] and self.last[sub][idx] == seq:
                self.state[idx] = S.LOST

    def proactive_timeout(self) -> None:
        self.stats.timeouts += 1
        self.lose(PROACTIVE, self.boards[PROACTIVE].declare_all_lost())


def _fire(rtx_timer) -> None:
    """What the wheel does when the timer's deadline passes."""
    wheel_timer = rtx_timer._timer._timer
    fn, args = wheel_timer.fn, wheel_timer.args
    wheel_timer.cancel()
    fn(*args)


COUNTERS = ("credits_received", "credited_sends", "credits_wasted",
            "retransmissions", "proactive_retransmissions", "packets_sent",
            "timeouts", "duplicate_bytes")


@pytest.mark.parametrize("config", sorted(CONFIGS))
@given(n=st.integers(1, 24), ops=OPS)
@settings(max_examples=30, deadline=None)
def test_sender_follows_the_five_state_model(config, n, ops):
    cls, params = CONFIGS[config]
    sim = Simulator()
    src, dst = FakeHost(0), FakeHost(1)
    spec = FlowSpec(1, src, dst, n * MSS, 0, scheme="flexpass")
    stats = FlowStats()
    sender = cls(sim, spec, stats, params)
    FlexPassReceiver(sim, spec, stats, params)
    model = Model(n, params, rc3=cls is Rc3SplitSender)
    expected = model.stats
    network = []  # data packets on their way to the receiver

    def reactive_sends():
        for pkt in src.take(PacketKind.DATA):
            assert pkt.subflow == REACTIVE
            assert pkt.flow_seq == model.first(S.PENDING, back=model.rc3)
            assert pkt.ecn_capable and pkt.meta == -1
            assert pkt.dscp == params.reactive_data_dscp
            assert pkt.color == params.reactive_data_color
            model.sent(pkt, sim.now)
            network.append(pkt)

    def credit(seq):
        sender.on_packet(alloc_packet(PacketKind.CREDIT, 1, 1, 0,
                                      CREDIT_WIRE_BYTES, seq=seq))
        sent = src.take(PacketKind.DATA)
        if model.done:
            assert not sent
            return
        expected.credits_received += 1
        pick = model.credit_pick()
        if pick is None:
            assert not sent
            expected.credits_wasted += 1
            return
        [pkt] = sent
        assert (pkt.subflow, pkt.flow_seq) == (PROACTIVE, pick)
        assert not pkt.ecn_capable and pkt.meta == seq
        assert (pkt.dscp, pkt.color) == (params.proactive_data_dscp,
                                         Color.GREEN)
        expected.credited_sends += 1
        if model.state[pick] == S.LOST:
            expected.retransmissions += 1
        elif model.state[pick] == S.SENT_REACTIVE:
            expected.proactive_retransmissions += 1
        model.sent(pkt, sim.now)
        network.append(pkt)

    def ack(pkt):
        if not model.done:
            model.acked(pkt.subflow, pkt.ack, pkt.sack, pkt.seq)
        sender.on_packet(pkt)
        reactive_sends()

    def check():
        assert [sender.buffer.state_of(i) for i in range(n)] == model.state
        # the buffer keeps an object only for a touched, unacked segment
        assert all(model.state[i] != S.ACKED for i in sender.buffer.segments)
        for sub, flow in ((PROACTIVE, sender.proactive),
                          (REACTIVE, sender.reactive)):
            board = model.boards[sub]
            board.check(flow.scoreboard, range(len(model.segs[sub])))
        assert sender.p_timer.armed == (bool(model.boards[PROACTIVE].flight)
                                        and not model.done)
        assert not sender.loop.timer.armed
        assert sender.done == model.done
        assert stats.credits_received == (stats.credited_sends
                                          + stats.credits_wasted)
        assert [getattr(stats, c) for c in COUNTERS] == \
            [getattr(expected, c) for c in COUNTERS]

    sender.start()
    reactive_sends()
    check()
    credit_seq = 0
    for op, which, ce, ack_lost in ops:
        if op == "credit":
            credit(credit_seq)
            credit_seq += 1
        elif op == "summary":
            entry = dst.receivers[1]
            if isinstance(entry, FlexPassReceiver):
                # what the flow will answer once finished, from live boards
                send_summary_acks(spec, params.ack_dscp,
                                  (entry.p_board, entry.r_board))
            else:
                # a late CREDIT_REQUEST: the finished flow's host entry
                # answers it with one summary ACK per sub-flow
                dst.deliver(alloc_packet(PacketKind.CREDIT_REQUEST, 1, 0, 1,
                                         CREDIT_WIRE_BYTES))
                assert [p.subflow for p in dst.sent] == [PROACTIVE, REACTIVE]
            for pkt in dst.take(PacketKind.ACK):
                ack(pkt)
        elif op == "tick":
            sim.run(until=sim.now + 1 + which % 200_000)
            assert not src.take(PacketKind.DATA)
            if stats.timeouts > expected.timeouts:  # the recovery timer
                model.proactive_timeout()
        elif op == "fire":
            if sender.p_timer.armed:
                _fire(sender.p_timer)
                model.proactive_timeout()
            assert not src.take(PacketKind.DATA)
        elif network:
            pkt = network.pop(which % len(network))
            if op == "deliver":
                pkt.ce = ce and pkt.ecn_capable
                if pkt.flow_seq in model.delivered:
                    expected.duplicate_bytes += pkt.payload
                model.delivered.add(pkt.flow_seq)
                dst.deliver(pkt)
                [reply] = dst.take(PacketKind.ACK)
                if not ack_lost:
                    ack(reply)
        check()
