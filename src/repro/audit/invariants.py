"""Conservation invariants over a live simulation.

The :class:`InvariantAuditor` machine-checks the bookkeeping every figure
rests on:

* **Packet-pool conservation** — every ``alloc_packet`` is freed exactly
  once; at the horizon the pool's outstanding count equals the pooled
  packets still sitting in queues, in flight on the heap, or retained by
  a ``keep_dropped`` fault ledger. A surplus is a leak; a deficit is a
  double free.
* **Per-link packet conservation** — for every egress port,
  ``dequeued == delivered + in-flight`` (plus fault drops for spliced
  links, whose counters may be shared and are therefore reconciled
  globally).
* **Shared-buffer accounting** — ``buffer.used`` equals the queued bytes
  of the queues charging it at every checkpoint (so it drains to 0 when
  the queues do), never goes negative, and ``buffer.drops`` reconciles
  with the per-queue ``dropped_buffer`` counters.
* **Queue accounting** — ``enqueued == dequeued + backlog`` and the byte
  gauge matches the actual FIFO contents.
* **Flow/credit conservation** — completed flows delivered exactly
  ``size_bytes`` distinct bytes; ``proactive + reactive == delivered``;
  for credit-based senders ``credits_received == credited_sends +
  credits_wasted`` and no sender received more credits than its receiver
  sent (Homa never increments ``credits_received``, so its GRANT-based
  ``credits_sent`` is exempt by construction).
* **Segment-state sanity** — a FlexPass send buffer holds every segment
  in exactly one state and its ACKED population matches ``n_acked``.

Checkpoint checks are instantaneous-consistency checks (cheap, counter
reads only); the heap scan and flow checks run once at the horizon.
When auditing is disabled nothing is imported or constructed — zero
per-packet and zero per-event cost, like telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.audit.config import AuditConfig
from repro.audit.digest import DigestRecorder, EventDigest, install_digest_taps
from repro.core.segments import SegmentState
from repro.metrics.tracing import TracedLink
from repro.net.link import Link
from repro.net.packet import Packet, packet_pool

#: schemes whose senders consume CREDIT packets (credit identity applies)
_CREDIT_SCHEMES = frozenset(
    {"naive", "ly", "flexpass", "flexpass_rc3", "flexpass_altq"})

#: event-callback names that mean "a link owns this pending delivery"
_LINK_EVENT_NAMES = frozenset({"_deliver", "carry", "_deliver_corrupted"})


class AuditError(RuntimeError):
    """Raised on the first violation when ``AuditConfig.fail_fast`` is set."""


@dataclass
class AuditReport:
    """Picklable outcome of one audited run."""

    violations: List[str] = field(default_factory=list)
    checks: int = 0
    checkpoints: int = 0
    digest: Optional[EventDigest] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_failed(self) -> None:
        if self.violations:
            raise AuditError(
                f"{len(self.violations)} invariant violation(s):\n  "
                + "\n  ".join(self.violations))


class InvariantAuditor:
    """Checks conservation invariants against a running simulation.

    Construct after the topology is built and faults are spliced, before
    traffic starts (the packet-pool baseline is snapshotted here). Call
    :meth:`install` to arm periodic checkpoints, and :meth:`finalize`
    after ``sim.run`` for the full horizon audit.
    """

    def __init__(self, sim, topo, live: Optional[Dict] = None,
                 config: Optional[AuditConfig] = None, pool=None) -> None:
        self.sim = sim
        self.topo = topo
        self.live = live if live is not None else {}
        self.config = config if config is not None else AuditConfig()
        self.pool = pool if pool is not None else packet_pool()
        self.violations: List[str] = []
        self.checks = 0
        self.checkpoints = 0
        self._baseline_outstanding = self.pool.acquired - self.pool.released
        self.recorder: Optional[DigestRecorder] = None
        if self.config.digest:
            self.recorder = DigestRecorder(
                self.config.digest_epoch_ns,
                capture_epoch=self.config.capture_epoch,
                capture_limit=self.config.capture_limit,
            )
            install_digest_taps(sim, topo, self.recorder)

    def install(self, horizon_ns: int) -> None:
        """Arm the periodic checkpoint (no-op when interval is None)."""
        interval = self.config.checkpoint_interval_ns
        if interval is not None:
            self.sim.every(interval, self.checkpoint, until=horizon_ns)

    # ------------------------------------------------------------ plumbing

    def _expect(self, ok: bool, msg: str) -> None:
        self.checks += 1
        if ok:
            return
        if len(self.violations) < self.config.max_violations:
            self.violations.append(f"t={self.sim.now}ns: {msg}")
        if self.config.fail_fast:
            raise AuditError(f"t={self.sim.now}ns: {msg}")

    # ------------------------------------------------------- checkpointing

    def checkpoint(self) -> None:
        """Instantaneous-consistency checks, safe to run at any event
        boundary (buffer charges and queue membership change atomically
        within an event)."""
        self.checkpoints += 1
        self._check_buffers()
        self._check_queues()

    def _check_buffers(self) -> None:
        # Group ports by the buffer they charge: switch ports share their
        # switch's SharedBuffer, host NICs each have an UnlimitedBuffer.
        groups: Dict[int, Tuple[object, List]] = {}
        for port in self.topo.all_ports():
            entry = groups.setdefault(id(port.buffer), (port.buffer, []))
            entry[1].append(port)
        for buf, ports in groups.values():
            queued = sum(q.byte_count for p in ports for q in p._queues)
            drops = sum(q.stats.dropped_buffer
                        for p in ports for q in p._queues)
            names = ports[0].name
            self._expect(
                buf.used >= 0,
                f"buffer at {names}: used={buf.used} is negative")
            self._expect(
                buf.used == queued,
                f"buffer at {names}: used={buf.used} != queued bytes "
                f"{queued} (charge/release imbalance)")
            self._expect(
                buf.drops == drops,
                f"buffer at {names}: drops={buf.drops} != per-queue "
                f"dropped_buffer sum {drops}")

    def _check_queues(self) -> None:
        for port in self.topo.all_ports():
            for q in port._queues:
                st = q.stats
                backlog = len(q._fifo)
                self._expect(
                    st.enqueued == st.dequeued + backlog,
                    f"queue {port.name}/{q.config.name}: enqueued="
                    f"{st.enqueued} != dequeued={st.dequeued} + "
                    f"backlog={backlog}")
                fifo_bytes = sum(p.size for p in q._fifo)
                self._expect(
                    q.byte_count == fifo_bytes,
                    f"queue {port.name}/{q.config.name}: byte_count="
                    f"{q.byte_count} != FIFO bytes {fifo_bytes}")

    # ------------------------------------------------------------- horizon

    def finalize(self) -> AuditReport:
        """Full audit at the horizon; returns the picklable report."""
        self._check_buffers()
        self._check_queues()
        link_inflight, pooled_in_heap = self._scan_heap()
        self._check_links(link_inflight)
        self._check_pool(pooled_in_heap)
        self._check_flows()
        return AuditReport(
            violations=list(self.violations),
            checks=self.checks,
            checkpoints=self.checkpoints,
            digest=self.recorder.freeze() if self.recorder else None,
        )

    def _scan_heap(self) -> Tuple[Dict[int, int], Set[int]]:
        """One pass over pending events: per-link in-flight deliveries and
        the identities of pooled packets referenced by any event."""
        link_inflight: Dict[int, int] = {}
        pooled: Set[int] = set()
        for entry in self.sim.iter_pending():
            ev = entry[2]
            if type(ev) is tuple:
                fn, args = ev
            else:
                fn = ev.fn
                if fn is None:  # cancelled
                    continue
                args = ev.args
            for a in args:
                if isinstance(a, Packet) and a._pooled:
                    pooled.add(id(a))
            owner = getattr(fn, "__self__", None)
            if owner is None:
                continue
            name = fn.__name__
            if name in _LINK_EVENT_NAMES:
                key = id(owner)
                link_inflight[key] = link_inflight.get(key, 0) + 1
        return link_inflight, pooled

    def _check_links(self, link_inflight: Dict[int, int]) -> None:
        """Per-port packet conservation: dequeued = delivered + in-flight.

        Links count a delivery at arrival, so a packet between dequeue and
        arrival is one pending delivery event of its link (the heap scan
        tallies those). A traced link is read through to the link it wraps.
        Spliced links may share one FaultCounters, so fault drops reconcile
        as one global identity across all wrapped links.
        """
        wrapped_deq = wrapped_delivered = wrapped_inflight = 0
        wrapped_retained = 0
        counter_objs: Dict[int, object] = {}
        any_wrapped = False
        for port in self.topo.all_ports():
            link = port.link
            if type(link) is TracedLink:
                link = link.link
            dequeued = sum(q.stats.dequeued for q in port._queues)
            inflight = link_inflight.get(id(link), 0)
            if type(link) is Link:
                self._expect(
                    dequeued == link.packets_delivered + inflight,
                    f"link at {port.name}: dequeued={dequeued} != "
                    f"delivered={link.packets_delivered} + "
                    f"in-flight={inflight}")
            else:
                any_wrapped = True
                wrapped_deq += dequeued
                wrapped_delivered += link.packets_delivered
                wrapped_inflight += inflight
                wrapped_retained += len(getattr(link, "dropped", ()))
                counters = getattr(link, "counters", None)
                if counters is not None:
                    counter_objs[id(counters)] = counters
        if any_wrapped:
            drops = sum(
                c.injected_drops + c.dropped_link_down + c.corrupted
                + c.discarded_in_flight
                for c in counter_objs.values())
            self._expect(
                wrapped_deq == wrapped_delivered + wrapped_inflight + drops,
                f"fault-wrapped links: dequeued={wrapped_deq} != "
                f"delivered={wrapped_delivered} + in-flight="
                f"{wrapped_inflight} + fault drops={drops}")

    def _check_pool(self, pooled_in_heap: Set[int]) -> None:
        """Packet-pool conservation relative to the install-time baseline."""
        outstanding = (self.pool.acquired - self.pool.released
                       - self._baseline_outstanding)
        reachable = set(pooled_in_heap)
        for port in self.topo.all_ports():
            for q in port._queues:
                for p in q._fifo:
                    if p._pooled:
                        reachable.add(id(p))
            for p in getattr(port.link, "dropped", ()):
                if p._pooled:
                    reachable.add(id(p))
        expected = len(reachable)
        self._expect(
            outstanding >= 0,
            f"packet pool: outstanding={outstanding} is negative "
            f"(double free)")
        self._expect(
            outstanding == expected,
            f"packet pool: outstanding={outstanding} != reachable pooled "
            f"packets {expected} (queues + in-flight + retained); "
            f"{'leak' if outstanding > expected else 'double free'}")

    def _check_flows(self) -> None:
        for spec, stats in self.live.values():
            fid = spec.flow_id
            self._expect(
                stats.delivered_bytes <= spec.size_bytes,
                f"flow {fid}: delivered {stats.delivered_bytes} bytes > "
                f"size {spec.size_bytes}")
            if stats.completed:
                self._expect(
                    stats.delivered_bytes == spec.size_bytes,
                    f"flow {fid}: completed with delivered="
                    f"{stats.delivered_bytes} != size {spec.size_bytes}")
            self._expect(
                stats.proactive_bytes + stats.reactive_bytes
                == stats.delivered_bytes,
                f"flow {fid}: proactive {stats.proactive_bytes} + reactive "
                f"{stats.reactive_bytes} != delivered "
                f"{stats.delivered_bytes}")
            self._expect(
                stats.credits_received
                == stats.credited_sends + stats.credits_wasted,
                f"flow {fid}: credits_received={stats.credits_received} != "
                f"credited_sends={stats.credited_sends} + credits_wasted="
                f"{stats.credits_wasted}")
            self._expect(
                stats.credits_received <= stats.credits_sent,
                f"flow {fid}: received {stats.credits_received} credits > "
                f"{stats.credits_sent} sent (credits cannot duplicate)")
            if spec.scheme in _CREDIT_SCHEMES:
                self._expect(
                    stats.credited_sends + stats.credits_wasted
                    <= stats.credits_sent,
                    f"flow {fid}: consumed more credits than sent "
                    f"({stats.credited_sends}+{stats.credits_wasted} > "
                    f"{stats.credits_sent})")
            self._check_segments(spec, stats)

    def _check_segments(self, spec, stats) -> None:
        sender = getattr(spec.src, "_senders", {}).get(spec.flow_id)
        buffer = getattr(sender, "buffer", None)
        if buffer is None or not hasattr(buffer, "state_counts"):
            return
        counts = buffer.state_counts()
        total = sum(counts.values())
        self._expect(
            total == len(buffer),
            f"flow {spec.flow_id}: segment states sum to {total} != "
            f"{len(buffer)} segments (segment in two states)")
        self._expect(
            counts[SegmentState.ACKED] == buffer.n_acked,
            f"flow {spec.flow_id}: {counts[SegmentState.ACKED]} ACKED "
            f"segments != n_acked={buffer.n_acked}")
