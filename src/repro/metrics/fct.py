"""Flow-completion-time records and summaries.

The paper's two headline metrics (§6.2): overall *average* FCT (bandwidth
utilization) and *99th-percentile FCT of small flows* (<100 kB — tail
latency), broken out by traffic group (legacy vs upgraded) for the
coexistence figures (12, 13).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.transports.base import FlowSpec, FlowStats


@dataclass(slots=True)
class FlowRecord:
    """One completed (or censored) flow."""

    flow_id: int
    scheme: str
    group: str      # "legacy" | "new"
    role: str       # "bg" | "fg"
    size_bytes: int
    start_ns: int
    fct_ns: int     # -1 when the flow did not finish before the horizon
    timeouts: int = 0
    retransmissions: int = 0
    proactive_retransmissions: int = 0
    credits_sent: int = 0
    credits_wasted: int = 0
    duplicate_bytes: int = 0
    max_reorder_bytes: int = 0
    proactive_bytes: int = 0
    reactive_bytes: int = 0

    @property
    def completed(self) -> bool:
        return self.fct_ns >= 0

    @classmethod
    def from_flow(cls, spec: FlowSpec, stats: FlowStats) -> "FlowRecord":
        return cls(
            flow_id=spec.flow_id,
            scheme=spec.scheme,
            group=spec.group,
            role=spec.role,
            size_bytes=spec.size_bytes,
            start_ns=stats.start_ns,
            fct_ns=stats.fct_ns() if stats.completed else -1,
            timeouts=stats.timeouts,
            retransmissions=stats.retransmissions,
            proactive_retransmissions=stats.proactive_retransmissions,
            credits_sent=stats.credits_sent,
            credits_wasted=stats.credits_wasted,
            duplicate_bytes=stats.duplicate_bytes,
            max_reorder_bytes=stats.max_reorder_bytes,
            proactive_bytes=stats.proactive_bytes,
            reactive_bytes=stats.reactive_bytes,
        )


@dataclass
class FctSummary:
    """Aggregate FCT statistics over a set of records."""

    count: int
    avg_ms: float
    p50_ms: float
    p99_ms: float
    stddev_ms: float
    max_ms: float
    timeouts: int
    #: flows matching the filters that never finished inside the horizon —
    #: they contribute nothing to the statistics above, so a non-zero
    #: count flags the percentiles as censoring-biased (a scheme that
    #: strands its slow flows looks faster exactly because of them)
    censored: int = 0

    @classmethod
    def empty(cls, censored: int = 0) -> "FctSummary":
        return cls(0, float("nan"), float("nan"), float("nan"),
                   float("nan"), float("nan"), 0, censored)


def mean_std_percentiles(values: Sequence[float],
                         percentiles: Sequence[float],
                         ) -> Tuple[float, float, List[float]]:
    """Mean, population standard deviation and percentiles of ``values``.

    The statistics of ``np.mean``, ``np.std`` and ``np.percentile`` at
    their defaults: a percentile ``q`` interpolates linearly between the
    sorted values around rank ``(n - 1) * q / 100``. Sums are exactly
    rounded (``math.fsum``), so results agree with numpy's pairwise sums
    to rounding. ``values`` must not be empty.
    """
    n = len(values)
    mean = math.fsum(values) / n
    std = math.sqrt(math.fsum([(v - mean) ** 2 for v in values]) / n)
    ranked = sorted(values)
    out = []
    for q in percentiles:
        pos = (n - 1) * (q / 100.0)
        lo = int(pos)
        a, b = ranked[lo], ranked[min(lo + 1, n - 1)]
        t = pos - lo
        # numpy's lerp works from the nearer end; so does its rounding
        out.append(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t)
    return mean, std, out


def summarize(records: Iterable[FlowRecord],
              small_cutoff_bytes: Optional[int] = None,
              group: Optional[str] = None,
              role: Optional[str] = None) -> FctSummary:
    """Summarize completed flows matching the filters.

    Unfinished flows matching the same filters are counted in
    ``censored`` rather than silently dropped.
    """
    sel: List[FlowRecord] = []
    censored = 0
    for r in records:
        if small_cutoff_bytes is not None and r.size_bytes >= small_cutoff_bytes:
            continue
        if group is not None and r.group != group:
            continue
        if role is not None and r.role != role:
            continue
        if not r.completed:
            censored += 1
            continue
        sel.append(r)
    if not sel:
        return FctSummary.empty(censored=censored)
    mean, std, (p50, p99, top) = mean_std_percentiles(
        [r.fct_ns / 1e6 for r in sel], (50, 99, 100))
    return FctSummary(
        count=len(sel),
        avg_ms=mean,
        p50_ms=p50,
        p99_ms=p99,
        stddev_ms=std,
        max_ms=top,
        timeouts=sum(r.timeouts for r in sel),
        censored=censored,
    )


def completion_ratio(records: Iterable[FlowRecord]) -> float:
    records = list(records)
    if not records:
        return float("nan")
    return sum(1 for r in records if r.completed) / len(records)


# ------------------------------------------------------------------ packing

#: FlowRecord integer fields, in declaration order.
_PACK_INT_FIELDS = (
    "flow_id", "size_bytes", "start_ns", "fct_ns", "timeouts",
    "retransmissions", "proactive_retransmissions", "credits_sent",
    "credits_wasted", "duplicate_bytes", "max_reorder_bytes",
    "proactive_bytes", "reactive_bytes",
)

#: FlowRecord label (string) fields; low-cardinality, vocab-encoded.
_PACK_LABEL_FIELDS = ("scheme", "group", "role")


class PackedFlowRecords:
    """A list of :class:`FlowRecord` as typed columns.

    A sweep worker returns tens of thousands of records per config; as a
    list of dataclasses they pickle as one object graph per record. Packed,
    the same data is 13 ``array('q')`` columns plus three small
    vocab-encoded label columns — a single contiguous buffer each, which
    both the worker→parent pickle hop and the on-disk experiment cache
    move at a fraction of the cost. ``unpack`` reproduces the records
    exactly (all fields are ints or interned label strings).
    """

    __slots__ = ("count", "columns", "label_vocabs", "label_codes")

    def __init__(self, count, columns, label_vocabs, label_codes) -> None:
        self.count = count
        #: field name -> array('q') of per-record values
        self.columns = columns
        #: field name -> list of distinct label strings
        self.label_vocabs = label_vocabs
        #: field name -> array('H') of indices into the field's vocab
        self.label_codes = label_codes

    def __len__(self) -> int:
        return self.count

    @classmethod
    def pack(cls, records: List[FlowRecord]) -> "PackedFlowRecords":
        columns = {
            name: array("q", (getattr(r, name) for r in records))
            for name in _PACK_INT_FIELDS
        }
        label_vocabs = {}
        label_codes = {}
        for name in _PACK_LABEL_FIELDS:
            vocab: List[str] = []
            index = {}
            codes = array("H")
            for r in records:
                label = getattr(r, name)
                code = index.get(label)
                if code is None:
                    code = index[label] = len(vocab)
                    vocab.append(label)
                codes.append(code)
            label_vocabs[name] = vocab
            label_codes[name] = codes
        return cls(len(records), columns, label_vocabs, label_codes)

    def unpack(self) -> List[FlowRecord]:
        cols = [self.columns[name] for name in _PACK_INT_FIELDS]
        schemes = [self.label_vocabs["scheme"][c]
                   for c in self.label_codes["scheme"]]
        groups = [self.label_vocabs["group"][c]
                  for c in self.label_codes["group"]]
        roles = [self.label_vocabs["role"][c] for c in self.label_codes["role"]]
        return [
            FlowRecord(
                flow_id=fid, scheme=scheme, group=group, role=role,
                size_bytes=size, start_ns=start, fct_ns=fct,
                timeouts=to, retransmissions=rtx,
                proactive_retransmissions=prtx, credits_sent=cs,
                credits_wasted=cw, duplicate_bytes=dup,
                max_reorder_bytes=reo, proactive_bytes=pb, reactive_bytes=rb,
            )
            for (fid, size, start, fct, to, rtx, prtx, cs, cw, dup, reo,
                 pb, rb), scheme, group, role
            in zip(zip(*cols), schemes, groups, roles)
        ]
