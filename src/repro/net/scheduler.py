"""Two-level egress scheduling: strict priority across classes, DWRR within.

This matches the paper's switch configuration (§4.1): the credit queue (Q0)
gets strict high priority plus a token-bucket rate limit; the FlexPass data
queue (Q1) and the legacy queue (Q2) share the residual bandwidth via
Deficit Weighted Round Robin [42].

The scheduler is pull-based: the egress port calls :meth:`PortScheduler.next`
whenever the wire goes idle. The call returns either a packet, or the
earliest future time at which one *could* become eligible (a paced queue
waiting for tokens), or neither (everything empty).

``next`` runs once per transmitted packet and is one flat function on every
common port shape: it reads backlog straight off the queues' FIFO lists,
dequeues inline (the same field updates as :meth:`PacketQueue.pop`), and
pays one fused :meth:`TokenBucket.take` per paced serve. Only a DWRR class
whose members are all backlogged (or that has more than two members) leaves
it, for the round loop of :meth:`_serve_dwrr`, which catches a starved
small-weight queue up in O(1) bulk steps instead of one quantum per pass.

**A queue is one object.** The scheduler keeps no per-queue row: the
:class:`QueueSchedule` rows a port is built from hand their priority,
weight and pacer to their :class:`PacketQueue`, which also carries its DWRR
quantum and deficit, and the scheduler holds only the queues grouped by
priority class. :attr:`PortScheduler.schedules` rebuilds the rows for
instrumentation. (A queue therefore belongs to one scheduler.)

**Pacer memo.** When a paced queue's head lacks tokens, ``take`` reports the
instant ``T`` at which the bucket will cover it, and the scheduler records
``T`` on the queue. Until ``T`` a serve that meets that head costs one
comparison. The memo is exact, not a heuristic: the bucket is integer and
path-independent, so with nobody spending from it the answer at any instant
before ``T`` is still ``T``; and the only events that spend its tokens or
change the queue's head are pops of that queue, each of which clears the
memo. A pacer therefore belongs to exactly one queue. (A head larger than
the bucket depth can never be covered; it is not memoized, so such a
misconfigured port keeps its old re-probing behaviour.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.net.packet import MSS, DATA_HEADER_BYTES, Color, Packet
from repro.net.queues import PacketQueue
from repro.net.ratelimit import TokenBucket

#: DWRR quantum granted per round at weight 1.0 — one full-size data packet,
#: so weighted shares converge within a few rounds.
_BASE_QUANTUM = MSS + DATA_HEADER_BYTES

_RED = int(Color.RED)


@dataclass
class QueueSchedule:
    """How one queue participates in scheduling."""

    queue: PacketQueue
    #: Lower number = served first. Queues with equal priority form a DWRR set.
    priority: int = 1
    #: Relative DWRR weight within the priority class. Must be positive.
    weight: float = 1.0
    #: Optional pacer (the ExpressPass credit-queue rate limiter).
    pacer: Optional[TokenBucket] = None


class PortScheduler:
    """Strict-priority + DWRR scheduler over a fixed set of queues.

    The ``QueueSchedule`` rows it is built from are not kept: each row's
    priority, weight and pacer move onto its queue, which also holds the
    queue's DWRR quantum and deficit.
    """

    __slots__ = ("_queues", "_classes", "fifos", "rr_pos", "cut_through_rr")

    def __init__(self, schedules: List[QueueSchedule]) -> None:
        if not schedules:
            raise ValueError("a port needs at least one queue")
        for s in schedules:
            if s.weight <= 0:
                raise ValueError(
                    f"queue weight must be positive, got {s.weight} "
                    f"(a zero-weight queue would never accumulate deficit)"
                )
            q = s.queue
            q.priority = s.priority
            q.weight = s.weight
            q.quantum = _BASE_QUANTUM * s.weight
            q.pacer = s.pacer
            q.deficit = 0.0
        queues = tuple(s.queue for s in schedules)
        self._queues = queues
        #: every queue's FIFO, for the backlog test (the port reads it too)
        self.fifos = tuple(q._fifo for q in queues)
        #: per priority class, best first: (class index, its sole queue or
        #: None, all its queues)
        self._classes = []
        #: per class: the member position the next DWRR round starts at
        self.rr_pos = []
        #: per queue index: ``(class index, rr position)`` to store into
        #: ``rr_pos`` when a packet cuts through that queue on an otherwise
        #: empty port — the state a one-packet serve would leave, the DWRR
        #: position advanced past the served queue — or ``None`` for a class
        #: of one. (Deficits need no touch-up: every queue was empty, so
        #: every deficit was already forfeited to zero, and a serve that
        #: immediately drains its queue resets its own deficit as well.)
        self.cut_through_rr: List[Optional[Tuple[int, int]]] = [None] * len(queues)
        for ci, prio in enumerate(sorted({q.priority for q in queues})):
            idxs = [i for i, q in enumerate(queues) if q.priority == prio]
            members = tuple(queues[i] for i in idxs)
            self._classes.append(
                (ci, members[0] if len(members) == 1 else None, members))
            self.rr_pos.append(0)
            if len(idxs) > 1:
                for pos, i in enumerate(idxs):
                    self.cut_through_rr[i] = (ci, (pos + 1) % len(idxs))

    @property
    def queues(self) -> Tuple[PacketQueue, ...]:
        return self._queues

    @property
    def schedules(self) -> Tuple[QueueSchedule, ...]:
        """The queue/priority/weight/pacer rows, in queue-index order,
        rebuilt from the queues (read-only view for instrumentation such
        as telemetry)."""
        return tuple(QueueSchedule(q, q.priority, q.weight, q.pacer)
                     for q in self._queues)

    def has_backlog(self) -> bool:
        """True when any queue holds at least one packet."""
        for fifo in self.fifos:
            if fifo:
                return True
        return False

    def next(self, now_ns: int) -> Tuple[Optional[Packet], Optional[int]]:
        """Pick the next packet to transmit.

        Returns ``(packet, None)`` when a packet is ready, ``(None, t)`` when
        the only backlogged queues are paced and become eligible at ``t``
        (always later than ``now_ns``), and ``(None, None)`` when all queues
        are empty.
        """
        wake: Optional[int] = None
        for ci, q, members in self._classes:
            if q is not None:
                # ---- a class of one: strict priority, optionally paced
                fifo = q._fifo
                if not fifo:
                    continue
                pacer = q.pacer
                if pacer is not None:
                    t = q._starved_until
                    if now_ns >= t:
                        size = fifo[0].size
                        t = pacer.take(now_ns, size)
                        if t and size <= pacer.bucket_bytes:
                            q._starved_until = t
                    if t:
                        # Backlogged-but-paced does NOT block lower classes:
                        # the port stays work-conserving (§4.1 — data may
                        # use the wire while credits wait for tokens).
                        if wake is None or t < wake:
                            wake = t
                        continue
                    q._starved_until = 0
            else:
                # ---- a DWRR class
                if len(members) == 2:
                    q, idle = members
                    pos = 0
                    if not q._fifo:
                        if not idle._fifo:
                            continue
                        q, idle = idle, q
                        pos = 1
                    elif idle._fifo:
                        q = None  # both backlogged
                if q is None or q.pacer is not None:
                    pkt, t = self._serve_dwrr(ci, members, now_ns)
                    if pkt is not None:
                        return pkt, None
                    if t is not None and (wake is None or t < wake):
                        wake = t
                    continue
                # Solo backlog: with one member empty, the round loop
                # degenerates — the empty queue forfeits its deficit every
                # round while the survivor accumulates quanta until its head
                # is covered. Both effects have closed forms; the resulting
                # deficits and rr position are bit-identical to running the
                # rounds one by one.
                idle.deficit = 0.0
                fifo = q._fifo
                size = fifo[0].size
                d = q.deficit
                if d < size:
                    quantum = q.quantum
                    d += math.ceil((size - d) / quantum) * quantum
                if len(fifo) == 1:
                    q.deficit = 0.0
                    self.rr_pos[ci] = 1 - pos
                else:
                    q.deficit = d - size
                    self.rr_pos[ci] = pos
            # ---- dequeue: the field updates of ``PacketQueue.pop``
            pkt = fifo.pop(0)
            size = pkt.size
            q.byte_count -= size
            if pkt.color == _RED:
                q.red_bytes -= size
            q.stats.dequeued += 1
            return pkt, None
        return None, wake

    def _serve_dwrr(
        self, class_idx: int, members: Tuple[PacketQueue, ...], now_ns: int
    ) -> Tuple[Optional[Packet], Optional[int]]:
        """One-packet-at-a-time Deficit Round Robin, the general case.

        Empty queues forfeit their deficit (classic DRR), so an idle
        transport cannot bank credit and later burst past its weight.

        Each full round over the members adds one ``quantum × weight`` to
        every backlogged queue still short of its head packet. Rather than
        iterating those rounds one by one — a weight-0.01 queue needs ~100
        of them per MTU, which used to overrun a fixed pass budget and
        wedge the port — a round that serves nothing is followed by a bulk
        catch-up that advances every backlogged queue's deficit by the
        number of empty rounds still needed, computed in closed form. The
        loop therefore terminates in O(1) rounds regardless of weights:
        either some queue's head becomes serveable, or every backlogged
        queue is paced-and-short-of-tokens and a wake time is returned.
        """
        pos = self.rr_pos[class_idx]
        n = len(members)
        wake: Optional[int] = None
        while True:
            progressed = False  # any deficit grew this round
            for _ in range(n):
                q = members[pos % n]
                fifo = q._fifo
                if not fifo:
                    q.deficit = 0.0
                    pos += 1
                    continue
                size = fifo[0].size
                if q.deficit < size:
                    q.deficit += q.quantum
                    progressed = True
                    pos += 1
                    continue
                pacer = q.pacer
                if pacer is not None:
                    t = q._starved_until
                    if now_ns >= t:
                        t = pacer.take(now_ns, size)
                        if t and size <= pacer.bucket_bytes:
                            q._starved_until = t
                    if t:
                        if wake is None or t < wake:
                            wake = t
                        pos += 1
                        continue
                q.deficit -= size
                pkt = q.pop()
                if not fifo:
                    q.deficit = 0.0
                    pos += 1
                self.rr_pos[class_idx] = pos % n
                return pkt, None
            if not progressed:
                # Every backlogged queue already holds enough deficit but is
                # paced and short of tokens: report the earliest wake time.
                self.rr_pos[class_idx] = pos % n
                return None, wake
            # Bulk catch-up: the smallest number of further whole rounds any
            # backlogged queue needs before its deficit covers its head.
            rounds: Optional[int] = None
            for q in members:
                if not q._fifo:
                    continue
                need = q._fifo[0].size - q.deficit
                if need <= 0:
                    if q.pacer is None:
                        # An unpaced queue that crossed its head size after
                        # its visit this round serves on the very next one:
                        # there are no empty rounds to skip.
                        rounds = 1
                        break
                    # Paced and short of tokens: it cannot serve at this
                    # instant no matter how many rounds pass — it does not
                    # bound the jump.
                    continue
                r = math.ceil(need / q.quantum)
                if rounds is None or r < rounds:
                    rounds = r
            if rounds is not None and rounds > 1:
                # Only queues still short of their head accumulate in the
                # skipped rounds (a paced queue with sufficient deficit does
                # not bank further quanta round over round), and by choice of
                # ``rounds`` none of them crosses its head size early, so the
                # jump is exactly equivalent to running the rounds one by one.
                extra = rounds - 1
                for q in members:
                    if q._fifo and q.deficit < q._fifo[0].size:
                        q.deficit += extra * _BASE_QUANTUM * q.weight
