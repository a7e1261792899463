"""Fast smoke tests for the per-figure harness (tiny durations).

The benchmarks run these at meaningful scale; here each scenario builds,
runs, produces well-formed series, and prints exactly the rows the
hand-wired harness printed for the same parameters before the figures
became configs.
"""

import pytest

from repro.experiments.figures import (
    ThroughputFigure,
    failure_recovery,
    fig01a_expresspass_vs_dctcp,
    fig01b_homa_vs_dctcp,
    fig07_subflow_throughput,
    fig08_incast,
    fig09_coexistence,
)


class TestThroughputFigureMath:
    def test_share_sums_to_one(self):
        fig = ThroughputFigure("t", 1.0, {"a": [5.0, 5.0], "b": [5.0, 5.0]}, 10.0)
        assert fig.share("a") + fig.share("b") == pytest.approx(1.0)

    def test_empty_series_share_zero(self):
        fig = ThroughputFigure("t", 1.0, {"a": [0.0], "b": [0.0]}, 10.0)
        assert fig.share("a") == 0.0

    def test_rows_cover_all_categories(self):
        fig = ThroughputFigure("t", 1.0, {"x": [1.0], "y": [2.0]}, 10.0)
        assert [r[0] for r in fig.rows()] == ["x", "y"]


class TestFigureScenarios:
    def test_fig01a_runs(self):
        fig = fig01a_expresspass_vs_dctcp(duration_ms=5, flow_mb=10)
        assert set(fig.series) == {"dctcp", "expresspass"}
        assert all(len(s) == 5 for s in fig.series.values())
        assert fig.share("expresspass") > fig.share("dctcp")
        assert fig.rows() == [("dctcp", "9.9%", "80.0%"),
                              ("expresspass", "90.1%", "0.0%")]

    def test_fig01b_runs(self):
        fig = fig01b_homa_vs_dctcp(duration_ms=5, n_each=4, flow_mb=2)
        assert set(fig.series) == {"dctcp", "homa"}
        assert fig.rows() == [("dctcp", "32.2%", "20.0%"),
                              ("homa", "67.8%", "0.0%")]

    FIG07_ROWS = {
        "one_flexpass": [("proactive", "49.7%", "0.0%"),
                         ("reactive", "50.3%", "0.0%")],
        "two_flexpass": [("proactive", "91.7%", "0.0%"),
                         ("reactive", "8.3%", "80.0%")],
        "dctcp_vs_flexpass": [("dctcp", "50.0%", "0.0%"),
                              ("proactive", "45.1%", "0.0%"),
                              ("reactive", "4.9%", "100.0%")],
    }

    @pytest.mark.parametrize("scenario", ["one_flexpass", "two_flexpass",
                                          "dctcp_vs_flexpass"])
    def test_fig07_scenarios_run(self, scenario):
        fig = fig07_subflow_throughput(scenario, duration_ms=5)
        assert "proactive" in fig.series
        total_share = sum(fig.share(c) for c in fig.series)
        assert total_share == pytest.approx(1.0)
        assert fig.rows() == self.FIG07_ROWS[scenario]

    def test_fig07_rejects_unknown(self):
        with pytest.raises(ValueError):
            fig07_subflow_throughput("bogus")

    def test_fig08_structure(self):
        fig = fig08_incast(n_flows_list=(8,), response_kb=16)
        assert fig.n_flows == [8]
        for scheme in ("dctcp", "expresspass", "flexpass"):
            assert len(fig.tail_fct_ms[scheme]) == 1
            assert fig.tail_fct_ms[scheme][0] > 0
        assert fig.rows() == [(8, "dctcp", 0.121652, 0),
                              (8, "expresspass", 0.285367, 0),
                              (8, "flexpass", 0.171865, 0)]

    def test_fig08_rejects_uneven_degree(self):
        """Every one of the 8 senders sends the same number of responses."""
        with pytest.raises(ValueError, match="incast degree 12 .* 8 senders"):
            fig08_incast(n_flows_list=(8, 12))

    def test_failure_recovery_both_flows_complete(self):
        """Shortest horizon at which both 2 MB flows finish."""
        report = failure_recovery(flow_mb=2, horizon_ms=8)
        assert report.rows() == [
            ("flexpass", "yes", "2.0", "7.88", 139, 7, 1),
            ("dctcp", "yes", "2.0", "7.29", 23, 0, 1),
        ]
        c = report.counters
        assert (c.discarded_in_flight, c.dropped_link_down, c.reroutes,
                c.link_failures, c.link_restores) == (7, 143, 2, 1, 1)

    def test_fig09_rejects_unknown(self):
        with pytest.raises(ValueError):
            fig09_coexistence("bogus")
