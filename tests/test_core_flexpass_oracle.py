"""Differential test: the FlexPass sender against the parent's.

The live sender runs its reactive sub-flow on ``DctcpLoop`` and keeps both
sub-flows' bookkeeping in ``SubFlow``; ``tests/flexpass_oracle.py`` is the
sender that carried its own copy of the DCTCP ACK path. Both are driven
over fake hosts by one random sequence of credit arrivals, per-packet ACKs
on either sub-flow (drawn from what was sent, delivered in any order, some
CE-marked, some lost), summary ACKs, dropped packets, clock ticks and
timer fires, and must agree after every step.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.flexpass import (
    PROACTIVE, REACTIVE, FlexPassParams, FlexPassSender,
)
from repro.core.variants import Rc3SplitSender
from repro.net.packet import (
    ACK_WIRE_BYTES, CREDIT_WIRE_BYTES, MSS, PacketKind, alloc_packet,
)
from repro.sim.engine import Simulator
from repro.transports.base import FlowSpec, FlowStats
from repro.transports.sequencing import ReceiveScoreboard

from tests import flexpass_oracle


class FakeHost:
    """Records what an endpoint sends; no NIC, no network."""

    def __init__(self, node_id: int) -> None:
        self.id = node_id
        self.sent = []

    def register_sender(self, flow_id, endpoint) -> None:
        pass

    def unregister_sender(self, flow_id) -> None:
        pass

    def send(self, pkt) -> bool:
        self.sent.append(pkt)
        return True


#: (live sender, parent sender, params)
CONFIGS = {
    "default": (FlexPassSender, flexpass_oracle.FlexPassSender,
                FlexPassParams()),
    "no_proactive_rtx": (FlexPassSender, flexpass_oracle.FlexPassSender,
                         FlexPassParams(enable_proactive_rtx=False)),
    "no_reactive": (FlexPassSender, flexpass_oracle.FlexPassSender,
                    FlexPassParams(enable_reactive=False)),
    "rc3": (Rc3SplitSender, flexpass_oracle.Rc3SplitSender,
            FlexPassParams(enable_proactive_rtx=False)),
}

#: (op, which in-network packet / clock tick, CE mark, ACK lost)
OPS = st.lists(
    st.tuples(st.sampled_from(["credit", "credit", "deliver", "deliver",
                               "deliver", "drop", "summary", "tick",
                               "fire_proactive", "fire_reactive"]),
              st.integers(0, 10**6), st.booleans(), st.booleans()),
    min_size=20, max_size=120,
)


class Side:
    """One sender over its own simulator and fake hosts."""

    def __init__(self, cls, params, size) -> None:
        self.sim = Simulator()
        self.src = FakeHost(0)
        spec = FlowSpec(1, self.src, FakeHost(1), size, 0, scheme="flexpass")
        self.stats = FlowStats()
        self.sender = cls(self.sim, spec, self.stats, params)
        self.seen = 0

    def emitted(self):
        new = self.src.sent[self.seen:]
        self.seen = len(self.src.sent)
        return new

    def deliver(self, kind, ce=False, **fields) -> None:
        size = ACK_WIRE_BYTES if kind == PacketKind.ACK else CREDIT_WIRE_BYTES
        pkt = alloc_packet(kind, 1, 1, 0, size, **fields)
        pkt.ce = ce
        self.sender.on_packet(pkt)


def _wire(pkt):
    return (pkt.kind, pkt.subflow, pkt.seq, pkt.flow_seq, pkt.dscp,
            pkt.color, pkt.ecn_capable, pkt.meta, pkt.sent_at)


def _rto_timers(sender):
    """The proactive recovery timer and the reactive RTO."""
    if isinstance(sender, flexpass_oracle.FlexPassSender):
        return sender.p_timer, sender.r_timer
    return sender.p_timer, sender.loop.timer


def _timers(side):
    """(armed, deadline) of both timers."""
    return [(t.armed, t._timer._timer.deadline if t.armed else None)
            for t in _rto_timers(side.sender)]


def _window(side):
    s = side.sender
    w = s.window if isinstance(s, flexpass_oracle.FlexPassSender) else s.loop.window
    return w.cwnd, w.ssthresh, w.alpha


def _fire(rtx_timer) -> None:
    """What the wheel does when the timer's deadline passes."""
    coarse = rtx_timer._timer
    coarse._timer.cancel()
    coarse._fire()


@pytest.mark.parametrize("config", sorted(CONFIGS))
@given(n=st.integers(1, 24), ops=OPS)
@settings(max_examples=40, deadline=None)
def test_same_behaviour_as_the_parent_sender(config, n, ops):
    cls, parent_cls, params = CONFIGS[config]
    live = Side(cls, params, n * MSS)
    parent = Side(parent_cls, params, n * MSS)
    boards = {PROACTIVE: ReceiveScoreboard(), REACTIVE: ReceiveScoreboard()}
    network = []  # data packets (as wire tuples) on their way to the receiver
    credit_seq = 0

    def both(fn):
        fn(live)
        fn(parent)

    def check():
        sent = [_wire(p) for p in live.emitted()]
        assert sent == [_wire(p) for p in parent.emitted()]
        network.extend(w for w in sent if w[0] == PacketKind.DATA)
        assert [live.sender.buffer.state_of(i) for i in range(n)] == \
            [parent.sender.buffer.state_of(i) for i in range(n)]
        assert asdict(live.stats) == asdict(parent.stats)
        assert _window(live) == _window(parent)
        assert _timers(live) == _timers(parent)
        assert live.sender.done == parent.sender.done

    both(lambda side: side.sender.start())
    check()
    for op, which, ce, ack_lost in ops:
        if op == "credit":
            both(lambda side: side.deliver(PacketKind.CREDIT, seq=credit_seq))
            credit_seq += 1
        elif op == "summary":
            for subflow, board in boards.items():
                both(lambda side: side.deliver(
                    PacketKind.ACK, ack=board.cum, sack=board.sack(),
                    subflow=subflow))
        elif op == "tick":
            until = live.sim.now + 1 + which % 200_000
            both(lambda side: side.sim.run(until=until))
        elif op.startswith("fire_"):
            kind = 0 if op == "fire_proactive" else 1
            if _rto_timers(live.sender)[kind].armed:
                both(lambda side: _fire(_rto_timers(side.sender)[kind]))
        elif op in ("deliver", "drop") and network:
            data = network.pop(which % len(network))
            if op == "deliver":
                _, subflow, seq, _, _, _, ecn_capable, _, sent_at = data
                board = boards[subflow]
                board.add(seq)
                if not ack_lost:
                    both(lambda side: side.deliver(
                        PacketKind.ACK, ack=board.cum, sack=board.sack(),
                        seq=seq, subflow=subflow, sent_at=sent_at, meta=1,
                        ce=ce and ecn_capable))
        check()
