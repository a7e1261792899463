"""Starvation measurement over a binned throughput series.

:func:`starvation_fraction` computes the paper's starvation metric — the
fraction of time a transport's bandwidth sits below 20% of link capacity
(Figure 9c). The series themselves come from telemetry: the figures bin
goodput through the run's ``flows="scheme"`` goodput series.
"""

from __future__ import annotations

from typing import List


def starvation_fraction(series_gbps: List[float], capacity_gbps: float,
                        threshold: float = 0.2,
                        active_only: bool = True) -> float:
    """Fraction of bins where throughput < ``threshold`` * capacity.

    With ``active_only`` the window is clipped to [first, last] nonzero bin,
    so a flow that finished early is not counted as starved afterwards.
    """
    if not series_gbps:
        return 0.0
    lo, hi = 0, len(series_gbps)
    if active_only:
        nonzero = [i for i, v in enumerate(series_gbps) if v > 0]
        if not nonzero:
            return 1.0
        lo, hi = nonzero[0], nonzero[-1] + 1
    window = series_gbps[lo:hi]
    floor = threshold * capacity_gbps
    return sum(1 for v in window if v < floor) / len(window)
