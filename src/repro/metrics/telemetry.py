"""Time-series telemetry: periodic sampling, ring buffers, structured export.

The paper's evaluation hinges on time-resolved behavior — per-scheme
throughput timelines (Figs 1, 7, 9), queue occupancy (Fig 11), credit-loop
dynamics — but end-of-run aggregates can't show a DWRR share converging or
a queue draining after a link flap. This module provides the one sampling
path everything time-resolved goes through:

* :class:`TelemetrySampler` — a periodic probe pump driven by the event
  engine (:meth:`repro.sim.engine.Simulator.every`). Probes only *read*
  counters the simulator already maintains (queue byte counts, drop/mark
  stats, link delivery counters, per-flow goodput), so the packet hot path
  gains zero work and the coalesced-TX / cut-through fast paths stay
  enabled.
* :class:`RingBuffer` — bounded storage per series; a sampler left running
  for a long simulation overwrites its oldest samples instead of growing.
* :class:`TelemetrySeries` — the frozen, picklable result: packed typed
  columns (``array('q')`` times + ``array('d')`` values, the
  :class:`~repro.metrics.fct.PackedFlowRecords` idiom), with JSON/CSV
  export and ASCII sparklines for terminal summaries.
* :class:`~repro.metrics.telemetry_config.TelemetryConfig` — the knob
  block embedded in :class:`~repro.experiments.config.ExperimentConfig`,
  in its own small module so that a config loads without this one.

Sampling is *cadenced*, not event-driven: a probe reads the instantaneous
or cumulative value every ``interval_ns``, which coalesces arbitrarily many
packet events into one sample. Gauges store the instantaneous reading;
counters store the per-interval delta times ``scale`` (so a byte counter
becomes bits/s or a utilization fraction at declaration time, not at
analysis time).
"""

from __future__ import annotations

import json
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

# Kept importable here: results stored before the config moved to its own
# module pickled it under this name.
from repro.metrics.telemetry_config import TelemetryConfig  # noqa: F401
from repro.net.packet import CREDIT_WIRE_BYTES, packet_pool

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.port import EgressPort
    from repro.sim.engine import RepeatingEvent, Simulator

#: Unicode block ramp for terminal sparklines.
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

GAUGE = "gauge"
COUNTER = "counter"


def sparkline(values: Iterable[float], width: int = 60) -> str:
    """Render values as a one-line unicode sparkline (max-pooled to width)."""
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if len(vals) > width:
        step = len(vals) / width
        vals = [
            max(vals[int(i * step):max(int(i * step) + 1, int((i + 1) * step))])
            for i in range(width)
        ]
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0:
        return _SPARK_BLOCKS[0] * len(vals)
    top = len(_SPARK_BLOCKS) - 1
    return "".join(_SPARK_BLOCKS[int((v - lo) / span * top)] for v in vals)


class RingBuffer:
    """Bounded (time, value) storage: overwrites the oldest when full.

    Backed by two typed arrays (``q`` times, ``d`` values), so a series
    costs 16 bytes per sample regardless of Python object overhead, and the
    frozen copy is a cheap slice instead of a per-element conversion.
    """

    __slots__ = ("capacity", "_times", "_values", "_start", "overwritten")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._times = array("q")
        self._values = array("d")
        self._start = 0  # index of the oldest sample once the ring is full
        self.overwritten = 0

    def __len__(self) -> int:
        return len(self._times)

    def append(self, t: int, v: float) -> None:
        if len(self._times) < self.capacity:
            self._times.append(t)
            self._values.append(v)
            return
        i = self._start
        self._times[i] = t
        self._values[i] = v
        self._start = (i + 1) % self.capacity
        self.overwritten += 1

    def unrolled(self) -> Tuple[array, array]:
        """Samples in time order as fresh ``(times, values)`` arrays."""
        s = self._start
        if s == 0:
            return array("q", self._times), array("d", self._values)
        return (self._times[s:] + self._times[:s],
                self._values[s:] + self._values[:s])


class TelemetrySeries:
    """Frozen sampler output: named, typed, packed time-series columns.

    Plain data end to end — two typed arrays per series — so it pickles
    compactly across the ``run_many`` worker boundary and in result-store
    entries, exactly like ``PackedFlowRecords``.
    """

    __slots__ = ("interval_ns", "_kinds", "_times", "_values", "overwritten")

    def __init__(self, interval_ns: int, kinds: Dict[str, str],
                 times: Dict[str, array], values: Dict[str, array],
                 overwritten: Dict[str, int]) -> None:
        self.interval_ns = interval_ns
        self._kinds = kinds
        self._times = times
        self._values = values
        self.overwritten = overwritten

    # --------------------------------------------------------------- pickle

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for key, value in state.items():
            setattr(self, key, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TelemetrySeries):
            return NotImplemented
        return (self.interval_ns == other.interval_ns
                and self._kinds == other._kinds
                and self._times == other._times
                and self._values == other._values)

    # -------------------------------------------------------------- queries

    def names(self) -> List[str]:
        return list(self._times)

    def __contains__(self, name: str) -> bool:
        return name in self._times

    def __len__(self) -> int:
        return len(self._times)

    def kind(self, name: str) -> str:
        return self._kinds[name]

    def times(self, name: str) -> List[int]:
        return list(self._times[name])

    def values(self, name: str) -> List[float]:
        return list(self._values[name])

    def num_samples(self, name: str) -> int:
        return len(self._times[name])

    def aligned_values(self, name: str, until_ns: int) -> List[float]:
        """Values on the fixed tick grid ``interval, 2*interval, ... until``,
        with 0.0 where no sample exists (a series that started late, or
        whose oldest ticks were overwritten)."""
        bins = max(1, until_ns // self.interval_ns)
        out = [0.0] * bins
        for t, v in zip(self._times[name], self._values[name]):
            idx = (t - 1) // self.interval_ns
            if 0 <= idx < bins:
                out[idx] = v
        return out

    def sparkline(self, name: str, width: int = 60) -> str:
        return sparkline(self._values[name], width)

    # -------------------------------------------------------------- export

    def summary_rows(self, names: Optional[Iterable[str]] = None,
                     width: int = 40) -> List[Tuple[str, str, str, str, str]]:
        """(name, kind, mean, max, sparkline) per series, for tables."""
        rows = []
        for name in (names if names is not None else self.names()):
            vals = self._values[name]
            if len(vals):
                mean = sum(vals) / len(vals)
                peak = max(vals)
            else:
                mean = peak = 0.0
            rows.append((name, self._kinds[name], f"{mean:,.3g}",
                         f"{peak:,.3g}", sparkline(vals, width)))
        return rows

    def to_json_obj(self) -> dict:
        return {
            "interval_ns": self.interval_ns,
            "series": {
                name: {
                    "kind": self._kinds[name],
                    "overwritten": self.overwritten.get(name, 0),
                    "times_ns": list(self._times[name]),
                    "values": list(self._values[name]),
                }
                for name in self._times
            },
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_obj(), fh)
            fh.write("\n")

    def write_csv(self, path) -> None:
        """Long format — ``series,kind,time_ns,value`` — one row per sample,
        so a spreadsheet or pandas pivot regenerates any timeline."""
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["series", "kind", "time_ns", "value"])
            for name in self._times:
                kind = self._kinds[name]
                for t, v in zip(self._times[name], self._values[name]):
                    w.writerow([name, kind, t, repr(v)])


class _Probe:
    """One named scalar probe: a gauge reading or a scaled counter delta."""

    __slots__ = ("name", "kind", "fn", "last", "scale")

    def __init__(self, name: str, kind: str, fn: Callable[[], float],
                 last: Optional[list], scale: float) -> None:
        self.name = name
        self.kind = kind
        self.fn = fn
        self.last = last  # 1-element mutable cell for counters, None for gauges
        self.scale = scale


class _MapProbe:
    """A dynamic probe family: ``fn() -> {name: value}``; series appear as
    names do (e.g. one goodput series per scheme seen in the run)."""

    __slots__ = ("kind", "fn", "scale", "last", "max_series",
                 "dropped_series")

    def __init__(self, kind: str, fn: Callable[[], Dict[str, float]],
                 scale: float, max_series: Optional[int]) -> None:
        self.kind = kind
        self.fn = fn
        self.scale = scale
        self.last: Dict[str, float] = {}
        self.max_series = max_series
        self.dropped_series = 0


class TelemetrySampler:
    """Periodic, engine-driven sampler over counter/gauge probes.

    Attach probes (directly or via the ``watch_*`` helpers), call
    :meth:`start`, run the simulation, then :meth:`freeze` the recorded
    series. The sampler installs no per-packet hooks: each tick is a
    handful of attribute reads, so the telemetry-on cost is proportional to
    probes x ticks, not packets (the
    ``telemetry_overhead`` benchmark gates it below 5% on the forwarding
    bench).
    """

    def __init__(self, sim: "Simulator", interval_ns: int = 100_000,
                 max_samples: int = 4096,
                 until_ns: Optional[int] = None) -> None:
        if interval_ns <= 0:
            raise ValueError("telemetry interval must be positive")
        self.sim = sim
        self.interval_ns = interval_ns
        self.max_samples = max_samples
        self.until_ns = until_ns
        self._probes: List[_Probe] = []
        self._maps: List[_MapProbe] = []
        self._bufs: Dict[str, RingBuffer] = {}
        self._kinds: Dict[str, str] = {}
        self._event: Optional["RepeatingEvent"] = None
        # (fn, last, scale, buf.append) per scalar probe, built at start():
        # the tick loop runs thousands of times, so lookups are pre-bound.
        self._compiled: List[tuple] = []
        self.ticks = 0

    # ------------------------------------------------------------ plumbing

    def _buffer(self, name: str, kind: str) -> RingBuffer:
        if name in self._bufs:
            raise ValueError(f"duplicate telemetry series {name!r}")
        buf = RingBuffer(self.max_samples)
        self._bufs[name] = buf
        self._kinds[name] = kind
        return buf

    def _add_probe(self, probe: _Probe) -> None:
        self._probes.append(probe)
        if self._event is not None:  # added after start(): tick it too
            if probe.last is not None:
                probe.last[0] = probe.fn()
            self._compiled.append((probe.fn, probe.last, probe.scale,
                                   self._bufs[probe.name].append))

    def add_gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Sample ``fn()`` as an instantaneous value every tick."""
        self._buffer(name, GAUGE)
        self._add_probe(_Probe(name, GAUGE, fn, None, 1.0))

    def add_counter(self, name: str, fn: Callable[[], float],
                    scale: float = 1.0) -> None:
        """Sample ``fn()`` as a cumulative counter: each tick stores the
        delta since the previous tick times ``scale``."""
        self._buffer(name, COUNTER)
        self._add_probe(_Probe(name, COUNTER, fn, [0.0], scale))

    def add_gauge_map(self, fn: Callable[[], Dict[str, float]],
                      max_series: Optional[int] = None) -> None:
        """Gauge family: ``fn()`` returns ``{name: value}``; each name
        becomes a series on first sight."""
        self._maps.append(_MapProbe(GAUGE, fn, 1.0, max_series))

    def add_counter_map(self, fn: Callable[[], Dict[str, float]],
                        scale: float = 1.0,
                        max_series: Optional[int] = None) -> None:
        """Counter family: per-name cumulative values, stored as scaled
        per-tick deltas (names start from an implicit 0 baseline)."""
        self._maps.append(_MapProbe(COUNTER, fn, scale, max_series))

    # ------------------------------------------------------- watch helpers

    def watch_port(self, port: "EgressPort") -> None:
        """Per-queue depth gauges plus drop/ECN-mark rate counters; a paced
        (credit) queue additionally gets a served-credit-rate series."""
        base = f"port.{port.name}"
        per_sec = 1e9 / self.interval_ns
        for idx, sched in enumerate(port.scheduler.schedules):
            q = sched.queue
            st = q.stats
            qb = f"{base}.q{idx}"
            self.add_gauge(f"{qb}.depth_bytes", lambda q=q: q.byte_count)
            if q.config.selective_drop_bytes is not None:
                self.add_gauge(f"{qb}.red_bytes", lambda q=q: q.red_bytes)
            self.add_counter(
                f"{qb}.drops_per_s",
                lambda st=st: (st.dropped_cap + st.dropped_selective
                               + st.dropped_buffer),
                scale=per_sec,
            )
            self.add_counter(f"{qb}.ecn_marks_per_s",
                             lambda st=st: st.ecn_marked, scale=per_sec)
            if sched.pacer is not None:
                self.add_counter(f"{base}.credit_bps",
                                 lambda st=st: st.dequeued,
                                 scale=CREDIT_WIRE_BYTES * 8 * per_sec)

    def watch_link(self, port: "EgressPort") -> None:
        """Utilization (fraction of capacity) of the port's outgoing link,
        from the link's existing delivered-bytes counter."""
        link = port.link
        scale = 8e9 / (self.interval_ns * port.rate_bps)
        self.add_counter(f"link.{port.name}.util",
                         lambda link=link: link.bytes_delivered, scale=scale)

    def watch_pool(self) -> None:
        """Packets this run holds out of the global pool, as ``pool.in_use``.

        It counts from the packets outstanding when this is called, as the
        invariant auditor's pool check does: the pool is process-global,
        and what earlier runs in the process left unreleased is not this
        run's. The length of the pool's free list is not sampled: earlier
        runs set it, so it says nothing about this one."""
        pool = packet_pool()
        baseline = pool.acquired - pool.released
        self.add_gauge("pool.in_use",
                       lambda: pool.acquired - pool.released - baseline)

    def watch_flows(self, flows_fn: Callable[[], Iterable[tuple]],
                    mode: str = "scheme", max_series: int = 64,
                    credit: bool = True) -> None:
        """Goodput (and allocated credit rate) series over live flows.

        ``flows_fn`` returns the current ``(FlowSpec, FlowStats)`` pairs —
        typically the runner's live-flow table. ``mode`` aggregates by
        scheme label, per flow (bounded by ``max_series``), or not at all
        ("none": only the credit-rate gauges, if enabled). Per scheme,
        ``.proactive_bps`` + ``.reactive_bps`` split ``.goodput_bps``.
        """
        if mode not in ("scheme", "flow", "none"):
            raise ValueError(f"unknown flows mode {mode!r}")
        bps = 8e9 / self.interval_ns

        if mode == "flow":
            def goodput() -> Dict[str, float]:
                return {f"flow.{spec.flow_id}.goodput_bps":
                        stats.delivered_bytes for spec, stats in flows_fn()}
        elif mode == "scheme":
            def goodput() -> Dict[str, float]:
                sums: Dict[str, List[int]] = {}
                for spec, stats in flows_fn():
                    acc = sums.setdefault(spec.scheme, [0, 0, 0])
                    acc[0] += stats.delivered_bytes
                    acc[1] += stats.proactive_bytes
                    acc[2] += stats.reactive_bytes
                return {f"scheme.{scheme}.{part}_bps": value
                        for scheme, acc in sums.items() for part, value in
                        zip(("goodput", "proactive", "reactive"), acc)}

        if mode != "none":
            self.add_counter_map(goodput, scale=bps, max_series=max_series)

        if credit:
            def credit_rate() -> Dict[str, float]:
                out: Dict[str, float] = {}
                for spec, stats in flows_fn():
                    if stats.completed or stats.credit_rate_bps <= 0:
                        continue
                    name = (f"flow.{spec.flow_id}.credit_rate_bps"
                            if mode == "flow"
                            else f"scheme.{spec.scheme}.credit_rate_bps")
                    out[name] = out.get(name, 0.0) + stats.credit_rate_bps
                return out

            self.add_gauge_map(credit_rate, max_series=max_series)

    # ------------------------------------------------------------- running

    def start(self) -> None:
        """Prime counter baselines and begin ticking every ``interval_ns``."""
        if self._event is not None:
            raise RuntimeError("sampler already started")
        for probe in self._probes:
            if probe.last is not None:
                probe.last[0] = probe.fn()
        self._compiled = [
            (p.fn, p.last, p.scale, self._bufs[p.name].append)
            for p in self._probes
        ]
        self._event = self.sim.every(self.interval_ns, self._tick,
                                     until=self.until_ns)

    def stop(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        now = self.sim.now
        bufs = self._bufs
        self.ticks += 1
        for fn, last, scale, append in self._compiled:
            value = fn()
            if last is not None:
                value, last[0] = (value - last[0]) * scale, value
            append(now, value)
        for mp in self._maps:
            current = mp.fn()
            for name, value in current.items():
                buf = bufs.get(name)
                if buf is None:
                    if (mp.max_series is not None
                            and len(mp.last) >= mp.max_series):
                        mp.dropped_series += 1
                        continue
                    buf = self._buffer(name, mp.kind)
                if mp.kind == COUNTER:
                    prev = mp.last.get(name, 0.0)
                    mp.last[name] = value
                    value = (value - prev) * mp.scale
                else:
                    mp.last.setdefault(name, 0.0)
                buf.append(now, value)

    def freeze(self) -> TelemetrySeries:
        """Stop sampling and pack every series into a TelemetrySeries."""
        self.stop()
        times: Dict[str, array] = {}
        values: Dict[str, array] = {}
        overwritten: Dict[str, int] = {}
        for name, buf in self._bufs.items():
            t, v = buf.unrolled()
            times[name] = t
            values[name] = v
            if buf.overwritten:
                overwritten[name] = buf.overwritten
        return TelemetrySeries(self.interval_ns, dict(self._kinds),
                               times, values, overwritten)
