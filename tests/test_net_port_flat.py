"""Differential test of the flat egress port against its readable form.

``EgressPort.enqueue`` / ``PortScheduler.next`` apply admission, buffer
accounting, marking, dequeue and pacing inline. ``ReferencePort`` below does
the same job the slow way — ``PacketQueue.admit/push/pop``,
``SharedBuffer.try_admit/release``, ``TokenBucket.can_send/consume/
eligible_at`` and a round-by-round DRR loop with no closed forms, no
cut-through and no pacer memo — and Hypothesis drives both with one random
arrival sequence. Everything observable must agree: which packets are
admitted, departure order and instants, CE bits, queue statistics, buffer
occupancy and the instants the port asks to be woken at.

DWRR weights in the shapes are dyadic so that the reference's repeated
additions and the port's closed-form catch-up are both exact in floating
point.
"""

from dataclasses import asdict

from hypothesis import example, given, settings, strategies as st

from repro.net.buffering import SharedBuffer, UnlimitedBuffer
from repro.net.packet import (
    CREDIT_WIRE_BYTES, DATA_HEADER_BYTES, MSS, Color, Dscp, Packet, PacketKind,
)
from repro.net.port import EgressPort
from repro.net.queues import PacketQueue, QueueConfig
from repro.net.ratelimit import TokenBucket
from repro.net.scheduler import PortScheduler, QueueSchedule
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, tx_time_ns

RATE = 10 * GBPS
QUANTUM = MSS + DATA_HEADER_BYTES


# ------------------------------------------------------------- port shapes

# Thresholds are whole multiples of the packet sizes below, so that random
# arrivals land exactly on them and pin ``>`` against ``>=``.

def paper_shape():
    """§4.1: paced strict-priority credit queue over DWRR Q1/Q2."""
    pacer = TokenBucket(int(RATE * 0.5 * 84 / 1584), bucket_bytes=2 * 84)
    schedules = [
        QueueSchedule(PacketQueue(QueueConfig("q0", capacity_bytes=8 * 84)),
                      priority=0, pacer=pacer),
        QueueSchedule(PacketQueue(QueueConfig(
            "q1", ecn_threshold_bytes=3 * 1584, selective_drop_bytes=4 * 1584)),
            priority=1, weight=0.5),
        QueueSchedule(PacketQueue(QueueConfig("q2", ecn_threshold_bytes=2 * 1584)),
                      priority=1, weight=0.25),
    ]
    classifier = {Dscp.CREDIT: 0, Dscp.PROACTIVE_DATA: 1,
                  Dscp.REACTIVE_DATA: 1, Dscp.LEGACY: 2}
    return schedules, classifier


def naive_shape():
    """Paced credit queue over one shared data queue."""
    pacer = TokenBucket(int(RATE * 84 / 1584), bucket_bytes=2 * 84)
    schedules = [
        QueueSchedule(PacketQueue(QueueConfig("q0", capacity_bytes=8 * 84)),
                      priority=0, pacer=pacer),
        QueueSchedule(PacketQueue(QueueConfig("q1", ecn_threshold_bytes=3 * 1584)),
                      priority=1),
    ]
    classifier = {Dscp.CREDIT: 0, Dscp.PROACTIVE_DATA: 1,
                  Dscp.REACTIVE_DATA: 1, Dscp.LEGACY: 1}
    return schedules, classifier


def single_shape():
    """One capped, marking FIFO: the simplest unpaced port."""
    schedules = [QueueSchedule(PacketQueue(QueueConfig(
        "all", capacity_bytes=10 * 1584, ecn_threshold_bytes=3 * 1584,
        selective_drop_bytes=4 * 1584)), priority=0)]
    classifier = {Dscp.CREDIT: 0, Dscp.PROACTIVE_DATA: 0,
                  Dscp.REACTIVE_DATA: 0, Dscp.LEGACY: 0}
    return schedules, classifier


def unpaced_shape():
    """Strict Q0 over Q1 with no pacer, as Homa's shared-queue port: the
    scheduler's pick does not depend on the time, yet a Q0 arrival must
    still leave at the first serialization end after it, ahead of Q1's
    backlog."""
    schedules = [
        QueueSchedule(PacketQueue(QueueConfig("q0", capacity_bytes=8 * 84)),
                      priority=0),
        QueueSchedule(PacketQueue(QueueConfig(
            "q1", ecn_threshold_bytes=3 * 1584, selective_drop_bytes=4 * 1584)),
            priority=1),
    ]
    classifier = {Dscp.CREDIT: 0, Dscp.PROACTIVE_DATA: 1,
                  Dscp.REACTIVE_DATA: 1, Dscp.LEGACY: 1}
    return schedules, classifier


SHAPES = {"paper": paper_shape, "naive": naive_shape, "single": single_shape,
          "unpaced": unpaced_shape}
BUFFERS = {
    # 4 MTUs queued + 1 arriving = alpha x the 10 MTUs then free: on the line
    "tight": lambda: SharedBuffer(14 * 1584, alpha=0.5),
    "roomy": lambda: SharedBuffer(4_500_000, alpha=0.25),
    "nic": UnlimitedBuffer,
}

#: (dscp, size, color, ecn_capable) per arrival kind
KINDS = {
    "credit": (Dscp.CREDIT, CREDIT_WIRE_BYTES, Color.GREEN, False),
    "green": (Dscp.PROACTIVE_DATA, 1584, Color.GREEN, True),
    "red": (Dscp.REACTIVE_DATA, 1584, Color.RED, True),
    "red_small": (Dscp.REACTIVE_DATA, 300, Color.RED, True),
    "legacy": (Dscp.LEGACY, 1584, Color.GREEN, True),
    "legacy_nonect": (Dscp.LEGACY, 700, Color.GREEN, False),
}


def mk_packet(kind: str, seq: int) -> Packet:
    dscp, size, color, ect = KINDS[kind]
    return Packet(PacketKind.DATA, 1, 0, 1, size, dscp=dscp, color=color,
                  ecn_capable=ect, seq=seq)


# --------------------------------------------------------- the two ports

class RecordingLink:
    """Stands in for ``Link``: notes when each packet finishes serializing."""

    def __init__(self, sim, departures):
        self.sim = sim
        self.departures = departures

    def carry_after(self, extra_ns, pkt):
        self.departures.append((self.sim.now + extra_ns, pkt.seq))


class ReferencePort:
    """The port's contract, spelled out with the public per-layer methods."""

    def __init__(self, sim, buffer, schedules, classifier, departures):
        self.sim = sim
        self.buffer = buffer
        self.schedules = schedules
        self.queues = [s.queue for s in schedules]
        self.classifier = classifier
        self.departures = departures
        prios = sorted({s.priority for s in schedules})
        self.classes = [[i for i, s in enumerate(schedules) if s.priority == p]
                        for p in prios]
        self.deficit = [0.0] * len(schedules)
        self.rr_pos = [0] * len(self.classes)
        self.wake_handle = None
        self.serve_pending = False
        self.free_at = 0

    # -- scheduling: strict priority over classic one-round-at-a-time DRR

    def pick(self, now):
        wake = None
        for class_idx, members in enumerate(self.classes):
            pkt, t = self.pick_drr(class_idx, members, now)
            if pkt is not None:
                return pkt, None
            if t is not None and (wake is None or t < wake):
                wake = t
        return None, wake

    def pick_drr(self, class_idx, members, now):
        n = len(members)
        pos = self.rr_pos[class_idx]
        wake = None
        while True:
            progressed = False
            for _ in range(n):
                idx = members[pos % n]
                sched = self.schedules[idx]
                q = sched.queue
                head = q.head()
                if head is None:
                    self.deficit[idx] = 0.0
                    pos += 1
                    continue
                if n > 1 and self.deficit[idx] < head.size:
                    self.deficit[idx] += QUANTUM * sched.weight
                    progressed = True
                    pos += 1
                    continue
                pacer = sched.pacer
                if pacer is not None:
                    if not pacer.can_send(now, head.size):
                        t = pacer.eligible_at(now, head.size)
                        if wake is None or t < wake:
                            wake = t
                        pos += 1
                        continue
                    pacer.consume(now, head.size)
                if n > 1:
                    self.deficit[idx] -= head.size
                pkt = q.pop()
                if q.empty:
                    self.deficit[idx] = 0.0
                    pos += 1
                self.rr_pos[class_idx] = pos % n
                return pkt, None
            if not progressed:
                self.rr_pos[class_idx] = pos % n
                return None, wake

    # -- the port: admit, queue, serialize one packet per serve event

    def enqueue(self, pkt):
        q = self.queues[self.classifier[pkt.dscp]]
        if not q.admit(pkt):
            return False
        if not self.buffer.try_admit(q.byte_count, pkt.size):
            q.stats.dropped_buffer += 1
            return False
        q.push(pkt)
        if self.wake_handle is not None:
            self.wake_handle.cancel()
            self.wake_handle = None
        if not self.serve_pending:
            if self.sim.now >= self.free_at:
                self.serve()
            else:
                self.serve_pending = True
                self.sim.post_at(self.free_at, self.serve_event)
        return True

    def serve_event(self, _):
        self.serve_pending = False
        self.serve()

    def on_wake(self):
        self.wake_handle = None
        if not self.serve_pending and self.sim.now >= self.free_at:
            self.serve()

    def serve(self):
        now = self.sim.now
        pkt, wake = self.pick(now)
        if pkt is None:
            if wake is not None:
                self.wake_handle = self.sim.at(wake, self.on_wake)
            return
        self.buffer.release(pkt.size)
        self.free_at = now + tx_time_ns(pkt.size, RATE)
        self.departures.append((self.free_at, pkt.seq))
        if any(not q.empty for q in self.queues):
            self.serve_pending = True
            self.sim.post_at(self.free_at, self.serve_event)


# --------------------------------------------------------------- the drive

def drive(make_port, arrivals):
    """Run one port through ``arrivals`` = [(gap_ns, kind)]; each arrival
    event schedules the next, so port events and arrivals interleave by
    sequence number exactly as they do in a fabric."""
    sim = Simulator()
    departures = []
    port, wake_time, buffer, queues = make_port(sim, departures)
    packets = [mk_packet(kind, i) for i, (_, kind) in enumerate(arrivals)]
    log = []

    def arrive(i):
        ok = port.enqueue(packets[i])
        log.append((sim.now, ok, buffer.used, buffer.drops,
                    [q.byte_count for q in queues], wake_time()))
        if i + 1 < len(arrivals):
            sim.post(arrivals[i + 1][0], arrive, i + 1)

    sim.post(arrivals[0][0], arrive, 0)
    sim.run()
    return {
        "log": log,
        "departures": departures,
        "ce": [p.ce for p in packets],
        "stats": [asdict(q.stats) for q in queues],
        "used": buffer.used,
        "red": [q.red_bytes for q in queues],
        "end": sim.now,
    }


def port_maker(flat, shape, buffer_kind):
    """``make(sim, departures)`` for the flat port or the reference."""
    def make(sim, departures):
        schedules, classifier = SHAPES[shape]()
        buffer = BUFFERS[buffer_kind]()
        if flat:
            port = EgressPort(sim, "flat", RATE, buffer, schedules, classifier,
                              RecordingLink(sim, departures), {})
        else:
            port = ReferencePort(sim, buffer, schedules, classifier, departures)

        def wake_time():
            handle = port._wake_handle if flat else port.wake_handle
            return None if handle is None else handle.time

        return port, wake_time, buffer, [s.queue for s in schedules]
    return make


def run_both(shape, buffer_kind, arrivals):
    return (drive(port_maker(True, shape, buffer_kind), arrivals),
            drive(port_maker(False, shape, buffer_kind), arrivals))


#: gaps that line up with serialization ends (68 ns per credit, 1268 ns per
#: MTU at 10G) as well as arbitrary ones, so arrivals tie with port events
GAPS = st.one_of(st.sampled_from([0, 0, 68, 136, 1268, 1336, 2536, 20_000]),
                 st.integers(0, 3000))
ARRIVALS = st.lists(st.tuples(GAPS, st.sampled_from(sorted(KINDS))),
                    min_size=40, max_size=160)


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(sorted(SHAPES)),
       buffer_kind=st.sampled_from(sorted(BUFFERS)), arrivals=ARRIVALS)
# the sixth MTU meets four queued ones exactly on the dynamic threshold
@example(shape="single", buffer_kind="tight", arrivals=[(0, "green")] * 8)
# behind a cut-through, the third queued red MTU lands exactly on the ECN
# threshold and the fourth exactly on the selective-drop threshold
@example(shape="single", buffer_kind="roomy", arrivals=[(0, "red")] * 6)
# behind a cut-through, the tenth queued MTU lands exactly on the static cap
@example(shape="single", buffer_kind="roomy", arrivals=[(0, "green")] * 12)
# a credit arriving mid-serialization behind eleven queued MTUs leaves at the
# next serialization end, ahead of them all (a serve that committed more
# than one packet would make it wait behind those too)
@example(shape="unpaced", buffer_kind="roomy",
         arrivals=[(0, "green")] * 12 + [(1500, "credit")])
def test_flat_port_matches_reference(shape, buffer_kind, arrivals):
    """On random arrival runs over every port shape and buffer, the flat
    port admits, marks, drops and serves packet for packet as the
    reference does. It keeps 150 examples: at 100, seed 0 lets the
    scheduler-solo-deficit-one-quantum-late mutant survive."""
    flat, ref = run_both(shape, buffer_kind, arrivals)
    assert flat == ref
    # every admitted packet left, and left the accounting at zero
    admitted = sum(ok for _, ok, *_ in flat["log"])
    assert len(flat["departures"]) == admitted
    assert flat["used"] == 0 and not any(flat["red"])


def test_credit_burst_past_the_bucket_is_paced_identically():
    """Sixteen back-to-back credits against a two-credit bucket and a 1 kB
    cap, then credits mixed with data: two leave at once, the cap drops
    some, and the rest stay inside the token-bucket envelope — under the
    memo exactly as under per-serve probing."""
    arrivals = [(0, "credit")] * 16 + [(500, "green"), (0, "credit")] * 4
    flat, ref = run_both("paper", "roomy", arrivals)
    assert flat == ref
    assert flat["stats"][0]["dropped_cap"] > 0
    ends = [t for t, seq in flat["departures"] if arrivals[seq][1] == "credit"]
    assert ends[:2] == [68, 136]  # the full bucket
    # Any j - i + 1 credits fit in bucket + rate x elapsed: beyond the two
    # the bucket holds, each costs one token interval.
    token_interval = 84 * 8 * 10**9 // int(RATE * 0.5 * 84 / 1584)
    assert all(ends[j] - ends[i] >= (j - i - 1) * token_interval
               for i in range(len(ends)) for j in range(i + 1, len(ends)))


class TestPacerMemo:
    def setup_method(self):
        # 1 Mbps = one byte of tokens per 8000 ns; the bucket starts full.
        self.pacer = TokenBucket(rate_bps=1_000_000, bucket_bytes=168)
        self.q = PacketQueue(QueueConfig("credits"))
        self.sched = PortScheduler(
            [QueueSchedule(self.q, priority=0, pacer=self.pacer)])
        for size in (84, 168, 84):
            self.q.push(Packet(PacketKind.CREDIT, 1, 0, 1, size,
                               dscp=Dscp.CREDIT))

    def test_probe_before_wake_changes_nothing(self):
        first, _ = self.sched.next(0)
        assert first.size == 84
        # 84 tokens left, the head needs 168: covered 84 * 8000 ns from now
        assert self.sched.next(0) == (None, 672_000)
        state = (self.pacer._units, self.pacer._last_ns)
        for t in (1, 1000, 671_999):
            assert self.sched.next(t) == (None, 672_000)
            assert (self.pacer._units, self.pacer._last_ns) == state
        # ... and the memo told the truth
        assert self.pacer.eligible_at(671_999, 168) == 672_000
        pkt, _ = self.sched.next(672_000)
        assert pkt.size == 168

    def test_pop_resets_the_memo(self):
        self.sched.next(0)
        assert self.sched.next(0) == (None, 672_000)
        # Someone else removes the starved head: the 84 tokens in the
        # bucket cover the new one, which must not wait for the old wake.
        assert self.q.pop().size == 168
        pkt, wake = self.sched.next(1000)
        assert pkt is not None and pkt.size == 84 and wake is None

    def test_head_larger_than_the_bucket_is_not_memoized(self):
        """It can never be covered, so there is no true wake to remember;
        the scheduler keeps answering what ``eligible_at`` answers."""
        q = PacketQueue(QueueConfig("big"))
        pacer = TokenBucket(rate_bps=1_000_000, bucket_bytes=84)
        twin = TokenBucket(rate_bps=1_000_000, bucket_bytes=84)
        sched = PortScheduler([QueueSchedule(q, priority=0, pacer=pacer)])
        q.push(Packet(PacketKind.CREDIT, 1, 0, 1, 300, dscp=Dscp.CREDIT))
        for t in (0, 5, 2_000_000, 2_000_001):
            assert sched.next(t) == (None, twin.eligible_at(t, 300))
