"""Telemetry subsystem: ring buffers, the periodic sampler, frozen series,
export formats, and the run_experiment / run_many / cache integration.

The contract under test: sampling is deterministic (same config + seed ⇒
bit-identical series), bounded (rings overwrite, never grow), cache-safe
(TelemetryConfig is part of the content key; packed series survive the
worker pickle hop and cache round-trips), and zero-cost when disabled.
"""

import json
import pickle

import pytest

from repro.experiments.cache import config_key
from repro.experiments.config import ExperimentConfig, SchemeName
from repro.experiments.parallel import FailedResult, run_many
from repro.experiments.runner import run_experiment
from repro.metrics.telemetry import (
    COUNTER,
    GAUGE,
    RingBuffer,
    TelemetryConfig,
    TelemetrySampler,
    TelemetrySeries,
    sparkline,
)
from repro.net import DumbbellSpec, build_dumbbell
from repro.net.packet import PacketKind, alloc_packet, free_packet
from repro.sim.engine import Simulator
from repro.sim.units import MILLIS
from tests.test_net_port_topology import Recorder, mk_data, single_queue_factory
from tests.util import cell, tiny_cfg


class TestRingBuffer:
    def test_append_below_capacity(self):
        ring = RingBuffer(8)
        for i in range(5):
            ring.append(i * 10, float(i))
        t, v = ring.unrolled()
        assert list(t) == [0, 10, 20, 30, 40]
        assert list(v) == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert ring.overwritten == 0

    def test_overwrites_oldest_when_full(self):
        ring = RingBuffer(4)
        for i in range(10):
            ring.append(i, float(i))
        assert len(ring) == 4
        assert ring.overwritten == 6
        t, v = ring.unrolled()
        assert list(t) == [6, 7, 8, 9]
        assert list(v) == [6.0, 7.0, 8.0, 9.0]

    def test_unrolled_is_a_copy(self):
        ring = RingBuffer(4)
        ring.append(1, 1.0)
        t, _ = ring.unrolled()
        t[0] = 999
        assert ring.unrolled()[0][0] == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingBuffer(0)


class TestRepeatingEvent:
    def test_first_tick_at_now_plus_period(self):
        sim = Simulator()
        hits = []
        sim.every(100, lambda: hits.append(sim.now), until=450)
        sim.run()
        assert hits == [100, 200, 300, 400]

    def test_until_is_inclusive(self):
        sim = Simulator()
        hits = []
        sim.every(100, lambda: hits.append(sim.now), until=300)
        sim.run()
        assert hits == [100, 200, 300]

    def test_cancel_stops_future_ticks(self):
        sim = Simulator()
        hits = []
        ev = sim.every(10, lambda: hits.append(sim.now))
        sim.at(35, ev.cancel)
        sim.at(100, lambda: None)
        sim.run()
        assert hits == [10, 20, 30]

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        ev = sim.every(10, lambda: None, until=30)
        ev.cancel()
        ev.cancel()
        sim.run()

    def test_unbounded_runs_until_calendar_drains(self):
        # No until: the repeating event keeps the calendar non-empty, so a
        # bounded run() is required; it must tick exactly horizon/period
        # times.
        sim = Simulator()
        hits = []
        sim.every(7, lambda: hits.append(sim.now))
        sim.run(until=70)
        assert hits == list(range(7, 71, 7))


class TestSampler:
    def test_gauge_samples_instantaneous_value(self):
        sim = Simulator()
        state = {"v": 0.0}
        sampler = TelemetrySampler(sim, interval_ns=100, until_ns=300)
        sampler.add_gauge("g", lambda: state["v"])
        sampler.start()
        sim.at(150, lambda: state.update(v=5.0))
        sim.run()
        series = sampler.freeze()
        assert series.times("g") == [100, 200, 300]
        assert series.values("g") == [0.0, 5.0, 5.0]
        assert series.kind("g") == GAUGE

    def test_counter_stores_scaled_deltas(self):
        sim = Simulator()
        state = {"v": 0}
        sampler = TelemetrySampler(sim, interval_ns=100, until_ns=300)
        sampler.add_counter("c", lambda: state["v"], scale=0.5)
        sampler.start()
        sim.at(50, lambda: state.update(v=10))
        sim.at(250, lambda: state.update(v=16))
        sim.run()
        series = sampler.freeze()
        assert series.values("c") == [5.0, 0.0, 3.0]
        assert series.kind("c") == COUNTER

    def test_counter_baseline_primed_at_start(self):
        """A counter that is already non-zero when start() runs must not
        report its whole history as the first tick's delta."""
        sim = Simulator()
        state = {"v": 1_000_000}
        sampler = TelemetrySampler(sim, interval_ns=100, until_ns=100)
        sampler.add_counter("c", lambda: state["v"])
        sampler.start()
        sim.run()
        assert sampler.freeze().values("c") == [0.0]

    def test_counter_map_labels_appear_dynamically(self):
        sim = Simulator()
        state = {"a": 0}
        sampler = TelemetrySampler(sim, interval_ns=100, until_ns=300)

        def fn():
            out = {"a.rate": float(state["a"])}
            if sim.now >= 200:
                out["b.rate"] = 7.0
            return out

        sampler.add_counter_map(fn, scale=2.0)
        sampler.start()
        sim.at(150, lambda: state.update(a=3))
        sim.run()
        series = sampler.freeze()
        assert series.values("a.rate") == [0.0, 6.0, 0.0]
        # series "b.rate" starts from an implicit 0 baseline when it appears
        assert series.times("b.rate") == [200, 300]
        assert series.values("b.rate") == [14.0, 0.0]

    def test_map_respects_max_series_cap(self):
        sim = Simulator()
        sampler = TelemetrySampler(sim, interval_ns=100, until_ns=100)
        sampler.add_gauge_map(
            lambda: {f"s{i}": 1.0 for i in range(10)}, max_series=3)
        sampler.start()
        sim.run()
        series = sampler.freeze()
        assert len(series) == 3
        assert sampler._maps[0].dropped_series == 7

    def test_duplicate_series_name_rejected(self):
        sampler = TelemetrySampler(Simulator())
        sampler.add_gauge("x", lambda: 0.0)
        with pytest.raises(ValueError):
            sampler.add_counter("x", lambda: 0.0)

    def test_probe_added_after_start_still_ticks(self):
        sim = Simulator()
        sampler = TelemetrySampler(sim, interval_ns=100, until_ns=300)
        sampler.start()
        sim.at(150, lambda: sampler.add_gauge("late", lambda: 2.0))
        sim.run()
        assert sampler.freeze().values("late") == [2.0, 2.0]

    def test_ring_bounds_long_runs(self):
        sim = Simulator()
        sampler = TelemetrySampler(sim, interval_ns=10, max_samples=16,
                                   until_ns=10_000)
        sampler.add_gauge("g", lambda: float(sim.now))
        sampler.start()
        sim.run()
        series = sampler.freeze()
        assert series.num_samples("g") == 16
        assert series.times("g") == list(range(9850, 10_001, 10))
        assert series.overwritten["g"] == 1000 - 16


def _forward(n, with_sampler):
    """Drain ``n`` packets across a 1-pair dumbbell, optionally under the
    watch surface the runner installs (switch ports + link util + pool
    gauges at the default 100 us cadence, for the whole ~1.27 us/packet
    drain plus a margin). Returns (events run, packets delivered, ticks)."""
    sim = Simulator()
    db = build_dumbbell(sim, single_queue_factory, DumbbellSpec(n_pairs=1))
    rec = Recorder()
    src, dst = db.senders[0], db.receivers[0]
    dst.register_receiver(1, rec)
    sampler = None
    if with_sampler:
        sampler = TelemetrySampler(sim, interval_ns=100_000,
                                   until_ns=n * 1584 * 8 // 10 + 2 * MILLIS)
        for sw in db.topo.switches:
            for port in sw.ports.values():
                sampler.watch_port(port)
                sampler.watch_link(port)
        sampler.watch_pool()
        sampler.start()
    for _ in range(n):
        src.send(mk_data(1, src.id, dst.id))
    sim.run()
    return sim.events_run, len(rec.packets), sampler.ticks if sampler else 0


class TestSamplerCost:
    @pytest.mark.parametrize("n", [2_000, 20_000])
    def test_sampler_adds_one_event_per_tick_not_per_packet(self, n):
        """Telemetry reads counters per tick: the events it adds to a run
        are exactly its ticks, however many packets cross the watched
        ports. A per-packet schedule, or a probe that turns a port's burst
        dequeue off, breaks the equality at once."""
        plain_events, plain_delivered, _ = _forward(n, with_sampler=False)
        events, delivered, ticks = _forward(n, with_sampler=True)
        assert plain_delivered == delivered == n
        assert ticks > 0
        assert events - plain_events == ticks


class TestSeries:
    def _make(self):
        sim = Simulator()
        sampler = TelemetrySampler(sim, interval_ns=100, until_ns=500)
        sampler.add_gauge("g", lambda: float(sim.now) / 100)
        sampler.add_counter("c", lambda: float(sim.now))
        sampler.start()
        sim.run()
        return sampler.freeze()

    def test_aligned_values_fills_missing_bins(self):
        series = TelemetrySeries(
            100, {"s": GAUGE},
            {"s": __import__("array").array("q", [200, 400])},
            {"s": __import__("array").array("d", [2.0, 4.0])}, {})
        assert series.aligned_values("s", 500) == [0.0, 2.0, 0.0, 4.0, 0.0]

    def test_pickle_roundtrip_exact(self):
        series = self._make()
        wired = pickle.loads(pickle.dumps(series,
                                          protocol=pickle.HIGHEST_PROTOCOL))
        assert wired == series
        assert wired.names() == series.names()
        assert wired.kind("c") == COUNTER

    def test_json_export_roundtrip(self, tmp_path):
        series = self._make()
        path = tmp_path / "t.json"
        series.write_json(path)
        obj = json.loads(path.read_text())
        assert obj["interval_ns"] == 100
        assert obj["series"]["g"]["values"] == series.values("g")
        assert obj["series"]["c"]["kind"] == COUNTER

    def test_csv_export_long_format(self, tmp_path):
        import csv

        series = self._make()
        path = tmp_path / "t.csv"
        series.write_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["series", "kind", "time_ns", "value"]
        data = [r for r in rows[1:] if r[0] == "g"]
        assert len(data) == series.num_samples("g")
        assert [int(r[2]) for r in data] == series.times("g")
        assert [float(r[3]) for r in data] == series.values("g")

    def test_summary_rows_and_sparkline(self):
        series = self._make()
        rows = series.summary_rows()
        assert [r[0] for r in rows] == ["g", "c"]
        assert all(len(r) == 5 for r in rows)
        assert len(series.sparkline("g", width=5)) == 5

    def test_sparkline_function(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0]) == "▁▁"
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁" and line[-1] == "█"
        assert len(sparkline(list(range(1000)), width=60)) == 60


class TestConfigValidation:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            TelemetryConfig(interval_ns=0)

    def test_rejects_bad_modes(self):
        with pytest.raises(ValueError):
            TelemetryConfig(ports="everything")
        with pytest.raises(ValueError):
            TelemetryConfig(flows="per-packet")


class TestExperimentIntegration:
    def test_run_experiment_ships_series(self):
        cfg = tiny_cfg(telemetry=TelemetryConfig(interval_ns=100_000))
        res = cell(cfg)
        series = res.telemetry
        assert series is not None
        names = series.names()
        assert any(n.startswith("port.") and n.endswith(".depth_bytes")
                   for n in names)
        assert any(n.startswith("link.") and n.endswith(".util")
                   for n in names)
        assert "pool.in_use" in series
        goodput = [n for n in names if n.endswith(".goodput_bps")]
        assert goodput, f"no goodput series in {names[:10]}..."
        assert any(sum(series.values(n)) > 0 for n in goodput)

    def test_no_telemetry_field_when_unconfigured(self):
        res = cell(tiny_cfg())
        assert res.telemetry is None

    def test_disabled_config_means_no_series(self):
        cfg = tiny_cfg(telemetry=TelemetryConfig(enabled=False))
        assert cell(cfg).telemetry is None

    def test_sampling_is_deterministic(self):
        cfg = tiny_cfg(telemetry=TelemetryConfig(interval_ns=100_000))
        # re-run: two simulations of one config must sample alike
        a = run_experiment(cfg).telemetry
        b = run_experiment(cfg).telemetry
        assert "pool.in_use" in a
        assert a == b

    def test_pool_gauge_ignores_what_ran_before(self):
        """The packet pool is process-global, but a run's ``pool.in_use``
        counts only its own packets: packets an earlier run left checked
        out, or returned to the free list, change no series."""
        cfg = tiny_cfg(telemetry=TelemetryConfig(interval_ns=100_000))
        # re-run: the second simulation follows the pool churn below
        first = run_experiment(cfg).telemetry
        churn = [alloc_packet(PacketKind.DATA, 1, 0, 1, 100)
                 for _ in range(500)]
        for pkt in churn[:400]:
            free_packet(pkt)
        second = run_experiment(cfg).telemetry
        assert max(first.values("pool.in_use")) > 0
        assert second == first
        for pkt in churn[400:]:
            free_packet(pkt)

    def test_telemetry_does_not_perturb_results(self):
        """Sampling must be an observer: flow records are bit-identical
        with and without it."""
        plain = cell(tiny_cfg())
        sampled = cell(tiny_cfg(telemetry=TelemetryConfig()))
        assert plain.records == sampled.records
        assert plain.completed == sampled.completed

    def test_config_key_includes_telemetry(self):
        base = tiny_cfg()
        keys = {
            config_key(base),
            config_key(tiny_cfg(telemetry=TelemetryConfig())),
            config_key(tiny_cfg(telemetry=TelemetryConfig(
                interval_ns=50_000))),
            config_key(tiny_cfg(telemetry=TelemetryConfig(ports="all"))),
        }
        assert len(keys) == 4

    def test_run_many_and_cache_roundtrip(self, tmp_path):
        cfg = tiny_cfg(telemetry=TelemetryConfig(interval_ns=100_000))
        fresh = run_many([cfg], processes=2, cache=str(tmp_path / "r.db"))
        assert not isinstance(fresh[0], FailedResult)
        assert fresh[0].telemetry is not None
        cached = run_many([cfg], processes=2, cache=str(tmp_path / "r.db"))
        assert cached[0].telemetry == fresh[0].telemetry
        assert cached[0].records == fresh[0].records

    def test_subflow_series_sum_to_goodput(self):
        """Per scheme, the proactive and reactive series split the goodput
        series bin by bin (Figure 7 reads the split)."""
        from repro.net import dumbbell_to_topology_spec
        from repro.workloads import SourceConfig, TrafficConfig

        cfg = ExperimentConfig(
            scheme=SchemeName.FLEXPASS, sim_time_ns=3 * MILLIS,
            topology_spec=dumbbell_to_topology_spec(DumbbellSpec(n_pairs=2)),
            traffic=TrafficConfig(sources=(
                SourceConfig(name="fp", kind="bulk", hosts=("r0", "s0"),
                             request_bytes=10_000_000, flows_per_sender=1),
                SourceConfig(name="dc", kind="bulk", hosts=("r1", "s1"),
                             request_bytes=10_000_000, flows_per_sender=1,
                             legacy=True))),
            telemetry=TelemetryConfig(ports="none", links=False, pool=False,
                                      credit=False))
        series = cell(cfg).telemetry
        for scheme in ("flexpass", "dctcp"):
            total = series.values(f"scheme.{scheme}.goodput_bps")
            proactive = series.values(f"scheme.{scheme}.proactive_bps")
            reactive = series.values(f"scheme.{scheme}.reactive_bps")
            assert len(total) == len(proactive) == len(reactive) == 30
            for t, p, r in zip(total, proactive, reactive):
                assert p + r == pytest.approx(t, rel=1e-12, abs=1e-6)
        assert sum(series.values("scheme.flexpass.proactive_bps")) > 0
        assert sum(series.values("scheme.flexpass.reactive_bps")) > 0
        assert sum(series.values("scheme.dctcp.proactive_bps")) == 0
