"""Unit tests for FCT summaries, the starvation metric and table formatting."""

import math

import numpy as np
import pytest

from repro.metrics.fct import (FctSummary, FlowRecord, completion_ratio,
                               mean_std_percentiles, summarize)
from repro.metrics.summary import format_table
from repro.metrics.throughput import starvation_fraction
from repro.net import DumbbellSpec, build_dumbbell
from repro.sim.engine import Simulator
from repro.sim.units import KB
from repro.transports.base import FlowSpec, FlowStats

from tests.test_net_port_topology import single_queue_factory


def rec(fid=1, size=10_000, fct_ms=1.0, group="legacy", role="bg", **kw):
    return FlowRecord(
        flow_id=fid, scheme="dctcp", group=group, role=role,
        size_bytes=size, start_ns=0,
        fct_ns=int(fct_ms * 1e6) if fct_ms is not None else -1, **kw,
    )


class TestSummarize:
    def test_basic_stats(self):
        records = [rec(i, fct_ms=float(i + 1)) for i in range(100)]
        s = summarize(records)
        assert s.count == 100
        assert s.avg_ms == pytest.approx(50.5)
        assert s.p99_ms == pytest.approx(99.01, rel=0.01)
        assert s.max_ms == 100.0

    def test_small_cutoff_filters(self):
        records = [rec(1, size=50 * KB, fct_ms=1.0),
                   rec(2, size=200 * KB, fct_ms=9.0)]
        s = summarize(records, small_cutoff_bytes=100 * KB)
        assert s.count == 1
        assert s.avg_ms == 1.0

    def test_group_and_role_filters(self):
        records = [rec(1, group="new", fct_ms=1.0),
                   rec(2, group="legacy", fct_ms=2.0),
                   rec(3, group="new", role="fg", fct_ms=3.0)]
        assert summarize(records, group="new").count == 2
        assert summarize(records, group="new", role="fg").count == 1
        assert summarize(records, group="legacy").avg_ms == 2.0

    def test_censored_flows_excluded(self):
        records = [rec(1, fct_ms=1.0), rec(2, fct_ms=None)]
        s = summarize(records)
        assert s.count == 1
        assert s.censored == 1
        assert completion_ratio(records) == 0.5

    def test_censoring_bias_is_visible(self):
        """Regression: a scheme that strands its slow flows used to *look*
        faster — the unfinished flows silently vanished from the average.
        The censored count is what exposes the comparison as invalid."""
        honest = [rec(i, fct_ms=1.0) for i in range(8)]
        honest += [rec(10 + i, fct_ms=9.0) for i in range(2)]
        stranding = [rec(i, fct_ms=1.0) for i in range(8)]
        stranding += [rec(10 + i, fct_ms=None) for i in range(2)]
        s_honest = summarize(honest)
        s_stranding = summarize(stranding)
        # The naive average favours the stranding scheme...
        assert s_stranding.avg_ms < s_honest.avg_ms
        # ...and the censored counts are the tell.
        assert s_honest.censored == 0
        assert s_stranding.censored == 2

    def test_censored_respects_filters(self):
        records = [rec(1, group="new", fct_ms=None),
                   rec(2, group="legacy", fct_ms=None),
                   rec(3, group="new", fct_ms=1.0),
                   rec(4, group="legacy", size=500 * KB, fct_ms=None)]
        assert summarize(records, group="new").censored == 1
        assert summarize(records, group="legacy").censored == 2
        # The big stranded flow is outside the small-flow cut.
        assert summarize(records, small_cutoff_bytes=100 * KB).censored == 2

    def test_empty_summary_censored_defaults_zero(self):
        assert summarize([]).censored == 0
        assert FctSummary.empty().censored == 0

    def test_empty_is_nan(self):
        s = summarize([])
        assert s.count == 0
        assert math.isnan(s.avg_ms)

    def test_from_flow_requires_stats(self):
        sim = Simulator()
        db = build_dumbbell(sim, single_queue_factory, DumbbellSpec(n_pairs=1))
        spec = FlowSpec(9, db.senders[0], db.receivers[0], 5000, 0,
                        scheme="x", group="new")
        stats = FlowStats(start_ns=10, complete_ns=1010, timeouts=2)
        r = FlowRecord.from_flow(spec, stats)
        assert r.fct_ns == 1000
        assert r.timeouts == 2
        assert r.completed
        censored = FlowRecord.from_flow(spec, FlowStats(start_ns=10))
        assert not censored.completed


class TestMeanStdPercentiles:
    """The pure-Python statistics behind ``summarize`` and the Q1 occupancy
    numbers, held to numpy's defaults."""

    QS = (0, 1, 10, 25, 50, 90, 99, 99.9, 100)

    @pytest.mark.parametrize("values", [
        [3.25],                                  # n = 1
        [2.0, 2.0],                              # n = 2, tied
        [1.0, 5.0, 5.0, 5.0, 9.0],               # ties across ranks
        [0.0] * 7 + [1e-9, 4e6],                 # ties at zero, wide span
        [0.123 * i ** 1.5 for i in range(1, 101)],
        [(i * 7919 % 1013) / 97.0 for i in range(1000)],  # unsorted, ties
    ])
    def test_matches_numpy(self, values):
        mean, std, ps = mean_std_percentiles(values, self.QS)
        arr = np.asarray(values)
        want = [np.mean(arr), np.std(arr)] + [np.percentile(arr, q)
                                              for q in self.QS]
        for got, ref in zip([mean, std] + ps, want):
            assert got == pytest.approx(float(ref), rel=1e-12, abs=1e-300)

    def test_percentiles_are_in_request_order(self):
        _, _, ps = mean_std_percentiles([4.0, 1.0, 3.0, 2.0], (100, 0, 50))
        assert ps == [4.0, 1.0, 2.5]


class TestStarvationFraction:
    def test_all_above_threshold(self):
        assert starvation_fraction([5.0] * 10, 10.0) == 0.0

    def test_all_below(self):
        assert starvation_fraction([1.0] * 10, 10.0) == 1.0

    def test_active_window_clipping(self):
        # idle head/tail bins are not starvation
        series = [0, 0, 5.0, 1.0, 5.0, 0, 0]
        assert starvation_fraction(series, 10.0) == pytest.approx(1 / 3)

    def test_without_clipping(self):
        series = [0, 0, 5.0, 1.0]
        assert starvation_fraction(series, 10.0, active_only=False) == 0.75

    def test_empty(self):
        assert starvation_fraction([], 10.0) == 0.0

    def test_all_zero_is_fully_starved(self):
        assert starvation_fraction([0.0] * 5, 10.0) == 1.0


class TestFormatTable:
    def test_alignment_and_floats(self):
        out = format_table(("name", "value"), [("a", 1.23456), ("long-name", 7)])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "1.235" in out
        assert "long-name" in out

    def test_empty_rows(self):
        out = format_table(("h1",), [])
        assert "h1" in out
