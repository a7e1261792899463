#!/usr/bin/env python3
"""Analyze stored simulation results and emit figure data (Appendix B).

Mirrors the artifact's ``generate_figure.py``: parses the ``fct_*.csv``
files written by ``run_simulations.py``, computes the paper's metrics
(99th-percentile FCT of small flows, overall average FCT, per-group splits,
standard deviations, censored flows) with the same ``summarize`` every run
uses and the small-flow cutoff each run recorded in ``index.csv``, and
writes one ``figNN.csv`` per figure — the same series the paper plots —
plus a printed summary.

    python tools/generate_figure.py --results results/
"""

import argparse
import csv
import os
import sys
from typing import Dict, List

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.metrics.fct import FlowRecord, summarize  # noqa: E402
from repro.metrics.summary import format_table  # noqa: E402

#: ``fct_*.csv`` columns that are FlowRecord integer fields
_INT_COLUMNS = ("flow_id", "size_bytes", "start_ns", "fct_ns", "timeouts",
                "retransmissions")

#: the ``wall_s`` of an ``index.csv`` row whose cell raised: such a row has
#: no ``fct_<id>.csv``, and its metric columns print as this
FAILED = "FAILED"


def load_index(results_dir: str) -> List[dict]:
    with open(os.path.join(results_dir, "index.csv")) as f:
        return list(csv.DictReader(f))


def load_records(results_dir: str, experiment: str) -> List[FlowRecord]:
    with open(os.path.join(results_dir, f"fct_{experiment}.csv")) as f:
        return [FlowRecord(**{k: int(v) if k in _INT_COLUMNS else v
                              for k, v in row.items()})
                for row in csv.DictReader(f)]


def metrics(records: List[FlowRecord], small_cutoff: int) -> Dict[str, float]:
    """The paper's metrics, by the definition every run uses
    (:func:`repro.metrics.fct.summarize`): unfinished flows are counted in
    ``censored``, not in the statistics."""
    every = summarize(records)
    small = summarize(records, small_cutoff)
    legacy = summarize(records, small_cutoff, group="legacy")
    new = summarize(records, small_cutoff, group="new")
    return {
        "avg_ms": every.avg_ms,
        "censored": every.censored,
        "p99_small_ms": small.p99_ms,
        "p99_small_legacy_ms": legacy.p99_ms,
        "p99_small_new_ms": new.p99_ms,
        "std_small_legacy_ms": legacy.stddev_ms,
        "std_small_new_ms": new.stddev_ms,
        "timeouts": every.timeouts,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results", default="results")
    args = parser.parse_args()

    index = load_index(args.results)
    cells = {}
    for row in index:
        eid = row["experiment"]
        cells[eid] = dict(row)
        if row["wall_s"] == FAILED:
            continue
        cells[eid].update(metrics(load_records(args.results, eid),
                                  int(row["small_cutoff_bytes"])))

    figures = {
        "fig10": ("e1_", ["scheme", "deployment", "p99_small_ms", "avg_ms",
                          "censored"]),
        "fig11": ("e2_", ["scheme", "deployment", "p99_small_ms", "avg_ms",
                          "censored"]),
        "fig12": ("e1_", ["scheme", "deployment", "p99_small_legacy_ms",
                          "p99_small_new_ms"]),
        "fig13": ("e1_", ["scheme", "deployment", "std_small_legacy_ms",
                          "std_small_new_ms"]),
        "fig14": ("e3_", ["scheme", "load", "deployment", "p99_small_ms",
                          "timeouts", "censored"]),
    }
    for fig, (prefix, columns) in figures.items():
        rows = []
        for eid in sorted(cells):
            if not eid.startswith(prefix):
                continue
            cell = cells[eid]
            rows.append([cell.get(c, FAILED) for c in columns])
        if not rows:
            continue
        path = os.path.join(args.results, f"{fig}.csv")
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(columns)
            w.writerows(rows)
        print(f"\n== {fig} ({path}) ==")
        print(format_table(columns, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
