"""A finished flow answers late packets exactly as its live receiver did.

Each scheme's flow runs to completion on a dumbbell; then late DATA (on
both sub-flows for FlexPass) and late ``CREDIT_REQUEST``s are delivered
*through the receiving host*, which hands them to whatever its table
holds for the flow. Every field of every packet the host emits, the
``FlowStats`` deltas and ``stray_packets`` must equal the values pinned
below, which were recorded from the live finished receivers that stayed
registered before tombstones replaced them (DESIGN.md §5, "State
lifetime"):

* DCTCP, ExpressPass and Layering ACK late data at the final cum with
  the packet's seq, timestamp and CE echoed, count it in
  ``duplicate_bytes``, and ignore a late request;
* FlexPass ACKs late data in its sub-flow's space (a late copy can be
  news there: SACKed above the cum, or moving it) and answers a late
  request with one summary ACK per sub-flow;
* Homa swallows everything.
"""

import dataclasses

import pytest

from repro.core.flexpass import (
    PROACTIVE, REACTIVE, FlexPassParams, FlexPassReceiver, FlexPassSender,
)
from repro.net import DumbbellSpec, build_dumbbell
from repro.net.host import Host
from repro.net.packet import (
    ACK_WIRE_BYTES, CREDIT_WIRE_BYTES, MSS, Color, Dscp, Packet, PacketKind,
    data_wire_size,
)
from repro.sim.engine import Simulator
from repro.sim.units import MILLIS
from repro.transports.base import FlowSpec, FlowStats
from repro.transports.dctcp import DctcpParams, DctcpReceiver, DctcpSender
from repro.transports.expresspass import (
    ExpressPassParams, ExpressPassReceiver, ExpressPassSender,
)
from repro.transports.homa import HomaParams, HomaReceiver, HomaSender
from repro.transports.layering import (
    LayeringParams, LayeringReceiver, LayeringSender,
)

from tests.util import ecn_queue_factory

#: scheme -> (sender class, receiver class, params)
SCHEMES = {
    "dctcp": (DctcpSender, DctcpReceiver, DctcpParams()),
    "expresspass": (ExpressPassSender, ExpressPassReceiver,
                    ExpressPassParams()),
    "layering": (LayeringSender, LayeringReceiver, LayeringParams()),
    "flexpass": (FlexPassSender, FlexPassReceiver, FlexPassParams()),
    "homa": (HomaSender, HomaReceiver, HomaParams()),
}

FLOW_ID = 7
SEGMENTS = 40

#: what is compared of each emitted packet, in this order
FIELDS = ("kind", "flow_id", "src", "dst", "size", "payload", "dscp",
          "color", "ecn_capable", "ce", "seq", "flow_seq", "ack", "sack",
          "subflow", "sent_at", "meta")


def _data(spec, seq, flow_seq, subflow=0, ce=False, sent_at=-1, meta=None):
    pkt = Packet(PacketKind.DATA, FLOW_ID, spec.src.id, spec.dst.id,
                 data_wire_size(MSS), payload=MSS, ecn_capable=ce, seq=seq,
                 flow_seq=flow_seq, subflow=subflow, sent_at=sent_at,
                 meta=meta)
    pkt.ce = ce
    return pkt


def _request(spec):
    return Packet(PacketKind.CREDIT_REQUEST, FLOW_ID, spec.src.id,
                  spec.dst.id, CREDIT_WIRE_BYTES, meta=spec.size_bytes)


def _late_packets(scheme, spec):
    """What reaches the finished flow late, in order."""
    if scheme != "flexpass":
        return [_data(spec, 3, 3, ce=True, sent_at=123_456, meta=9),
                _request(spec),
                _data(spec, SEGMENTS - 1, SEGMENTS - 1, sent_at=7)]
    return [
        # far above the proactive cum: SACKed there
        _data(spec, 1000, 3, PROACTIVE, sent_at=111, meta=77),
        # below the reactive cum, CE-marked
        _data(spec, 0, 5, REACTIVE, ce=True, sent_at=222, meta=-1),
        _request(spec),
        # at the proactive cum (pinned below): moves it
        _data(spec, PROACTIVE_CUM, 6, PROACTIVE, sent_at=333, meta=78),
        # at the reactive cum: moves it
        _data(spec, REACTIVE_CUM, 8, REACTIVE, sent_at=444, meta=-1),
        _request(spec),
    ]


def late_answers(scheme):
    """Finish one flow of ``scheme``, then deliver its late packets
    through the receiving host. Returns the emitted packets (field
    tuples), the nonzero ``FlowStats`` deltas and the ``stray_packets``
    delta."""
    sender_cls, receiver_cls, params = SCHEMES[scheme]
    sim = Simulator()
    db = build_dumbbell(sim, ecn_queue_factory(), DumbbellSpec(n_pairs=1))
    spec = FlowSpec(FLOW_ID, db.senders[0], db.receivers[0],
                    SEGMENTS * MSS, 0, scheme=scheme, group="new")
    stats = FlowStats()
    receiver_cls(sim, spec, stats, params)
    sender = sender_cls(sim, spec, stats, params)
    sim.at(0, sender.start)
    del sender
    sim.run(until=5 * MILLIS)
    assert stats.completed

    emitted = []
    host, send = spec.dst, Host.send

    def recording(node, pkt):
        if node is host:
            emitted.append(tuple(getattr(pkt, f) for f in FIELDS))
        return send(node, pkt)

    before = dataclasses.asdict(stats)
    stray = host.stray_packets
    Host.send = recording
    try:
        for pkt in _late_packets(scheme, spec):
            host.receive(pkt)
    finally:
        Host.send = send
    after = dataclasses.asdict(stats)
    deltas = {k: after[k] - before[k] for k in after if after[k] != before[k]}
    return emitted, deltas, host.stray_packets - stray


#: FlexPass's sub-flow cums once the run has ended (proactive copies in
#: flight at completion arrive late, and move the proactive one)
PROACTIVE_CUM = 29
REACTIVE_CUM = 30



def _ack(dscp, ack, sack=(), subflow=0, seq=-1, sent_at=-1, meta=None,
         ce=False):
    """An ACK from the receiving host (id 3) to the sender (id 2)."""
    return (PacketKind.ACK, FLOW_ID, 3, 2, ACK_WIRE_BYTES, 0, dscp,
            Color.GREEN, False, ce, seq, -1, ack, sack, subflow, sent_at,
            meta)


def _single_space(dscp):
    return ([_ack(dscp, SEGMENTS, seq=3, sent_at=123_456, meta=1, ce=True),
             _ack(dscp, SEGMENTS, seq=SEGMENTS - 1, sent_at=7, meta=1)],
            {"duplicate_bytes": 2 * MSS})


_FLEX = Dscp.FLEX_CONTROL

#: scheme -> (emitted packets, nonzero FlowStats deltas), recorded from the
#: live finished receivers
EXPECTED = {
    "dctcp": _single_space(Dscp.LEGACY),
    "expresspass": _single_space(Dscp.FLEX_CONTROL),
    "layering": _single_space(Dscp.LEGACY),
    "flexpass": ([
        _ack(_FLEX, 29, (1000,), PROACTIVE, seq=1000, sent_at=111, meta=1),
        _ack(_FLEX, 30, (), REACTIVE, seq=0, sent_at=222, meta=1, ce=True),
        _ack(_FLEX, 29, (1000,), PROACTIVE),
        _ack(_FLEX, 30, (), REACTIVE),
        _ack(_FLEX, 30, (1000,), PROACTIVE, seq=29, sent_at=333, meta=1),
        _ack(_FLEX, 31, (), REACTIVE, seq=30, sent_at=444, meta=1),
        _ack(_FLEX, 30, (1000,), PROACTIVE),
        _ack(_FLEX, 31, (), REACTIVE),
    ], {"duplicate_bytes": 4 * MSS}),
    "homa": ([], {}),
}


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_a_finished_flow_answers_late_packets_as_its_receiver_did(scheme):
    emitted, deltas, stray = late_answers(scheme)
    assert (emitted, deltas) == EXPECTED[scheme]
    assert stray == 0
