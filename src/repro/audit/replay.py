"""Deterministic-replay harness: the same config must produce the same
event stream, bit for bit, through every execution path we ship.

``replay_config`` runs a config twice — once in-process, once the way a
pooled sweep runs it: pickled into a real worker process, run by the sweep
loop's own pool task, written to a result store by that worker and read
back out of the store — and compares the rolling event digests. On a
mismatch the first-divergence reporter re-runs both sides with raw-event
capture pinned to the earliest divergent epoch and returns both event
windows.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.audit.config import AuditConfig
from repro.audit.digest import EventDigest


@dataclass
class ReplayReport:
    """Outcome of one determinism cell."""

    match: bool
    total_events: int
    epochs: int
    #: earliest divergent epoch index (None when match)
    divergence_epoch: Optional[int] = None
    divergence_time_ns: Optional[int] = None
    #: (time, kind, node, flow, seq) windows from the divergent epoch
    events_a: List[Tuple[int, int, int, int, int]] = field(default_factory=list)
    events_b: List[Tuple[int, int, int, int, int]] = field(default_factory=list)


def _audited(cfg, capture_epoch: Optional[int] = None):
    """The config with digest-recording audit enabled (capture optional)."""
    base = cfg.audit if cfg.audit is not None else AuditConfig()
    return cfg.with_(audit=replace(base, enabled=True, digest=True,
                                   capture_epoch=capture_epoch))


def _run_local(cfg) -> "ExperimentResult":
    from repro.experiments.runner import run_experiment
    return run_experiment(cfg)


def _run_worker_and_cache(cfg) -> "ExperimentResult":
    """Run through the exact machinery a sweep uses: the loop's pool task
    in a worker subprocess, which stores the result; then read the store."""
    from repro.experiments.cache import config_key
    from repro.experiments.fabric import FailedResult, _pool_cell
    from repro.experiments.store import open_store

    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "replay.db")
        with multiprocessing.get_context().Pool(processes=1) as pool:
            outcome = pool.apply(
                _pool_cell, ((0, cfg, config_key(cfg), 1, spec, None, None),))
        if isinstance(outcome, FailedResult):
            raise RuntimeError(f"replay worker failed: {outcome.error}\n"
                               f"{outcome.traceback}")
        store = open_store(spec)
        stored = store.get(cfg)
        store.close()
    if stored is None:
        raise RuntimeError("store round-trip lost the result")
    return stored


def _digest_of(result) -> EventDigest:
    if result.audit is None or result.audit.digest is None:
        raise RuntimeError(
            "replay needs a digest-enabled audit on the result")
    return result.audit.digest


def replay_config(cfg, capture_on_divergence: bool = True) -> ReplayReport:
    """Run ``cfg`` through both execution paths and compare digests."""
    cfg = _audited(cfg)
    digest_a = _digest_of(_run_local(cfg))
    digest_b = _digest_of(_run_worker_and_cache(cfg))
    epoch = digest_a.first_divergence(digest_b)
    if epoch is None:
        return ReplayReport(match=True, total_events=digest_a.total,
                            epochs=len(digest_a.epochs))
    report = ReplayReport(
        match=False, total_events=digest_a.total,
        epochs=len(digest_a.epochs), divergence_epoch=epoch,
        divergence_time_ns=epoch * digest_a.epoch_ns,
    )
    if capture_on_divergence:
        captured = _audited(cfg, capture_epoch=epoch)
        report.events_a = _digest_of(_run_local(captured)).events
        report.events_b = _digest_of(_run_worker_and_cache(captured)).events
    return report


def format_replay_report(report: ReplayReport) -> str:
    """Human-readable replay verdict (CLI output)."""
    if report.match:
        return (f"replay OK: {report.total_events} deliveries across "
                f"{report.epochs} epochs, digests identical through "
                f"worker pickling and store round-trip")
    lines = [
        f"replay DIVERGED at epoch {report.divergence_epoch} "
        f"(t={report.divergence_time_ns}ns): "
        f"{report.total_events} deliveries recorded in run A",
        f"--- run A window ({len(report.events_a)} events) ---",
    ]
    lines += [f"  t={t} kind={k} node={n} flow={f} seq={s}"
              for t, k, n, f, s in report.events_a]
    lines.append(f"--- run B window ({len(report.events_b)} events) ---")
    lines += [f"  t={t} kind={k} node={n} flow={f} seq={s}"
              for t, k, n, f, s in report.events_b]
    return "\n".join(lines)
