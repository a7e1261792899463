"""What runs inside one fresh child process of the perf observatory.

``python child.py setup|body|probes ...`` does one measurement and prints
one JSON object as the last line of its standard output. ``run.py`` starts
these children one at a time and never imports ``repro`` itself, so every
sample pays (or, for ``body``, excludes) the same cold start.

Only the default-path public API is called: the names in
``repro.experiments.__all__``, ``ClosSpec``, ``SourceConfig`` /
``TrafficConfig``, ``AuditConfig`` and ``ExperimentResult.fct``.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import hashlib
import importlib
import json
import os
import pstats
import resource
import sys
import tempfile
import time
import traceback
from typing import List, Optional

import layers
import workloads


def _backend_names() -> dict:
    """Resolved engine / credit-plane backends, while those switches exist."""
    names = {}
    for key, module, func in (
            ("engine", "repro.sim.engine", "engine_backend"),
            ("credit_plane", "repro.sim.timerwheel", "credit_plane_backend")):
        try:
            names[key] = getattr(importlib.import_module(module), func)()
        except (ImportError, AttributeError):
            names[key] = "default"
    return names


def measure_setup(name: str, seed: int, smoke: bool) -> dict:
    """Everything a user pays before the first event: import, build the
    workload's configs, wire one scheme and build its fabric once."""
    from repro.experiments import build_topology, make_scheme_setup
    from repro.sim import Simulator

    configs = workloads.build_configs(name, seed, smoke)
    setup = make_scheme_setup(configs[0])
    build_topology(Simulator(), setup.queue_factory, configs[0])
    return {"done_at": time.time(), "cells": len(configs)}


def sim_digest(results: List) -> str:
    """sha256 over each cell's sorted flow outcomes and switch counters.

    ``events_run`` is left out on purpose, so event batching stays legal.
    """
    h = hashlib.sha256()
    for res in results:
        flows = sorted((r.flow_id, r.size_bytes, r.start_ns, r.fct_ns,
                        r.timeouts, r.retransmissions) for r in res.records)
        h.update(repr(flows).encode())
        h.update(repr(sorted(dataclasses.asdict(res.counters).items()))
                 .encode())
    return h.hexdigest()


def _raised(res) -> bool:
    """True for a ``FailedResult`` (the cell raised instead of returning)."""
    return getattr(res, "failed", False)


def _cell_failure(res) -> Optional[str]:
    if _raised(res):
        return f"FailedResult: {res.error}"
    if res.aborted:
        return f"aborted: {res.abort_reason}"
    if res.audit is not None and not res.audit.ok:
        return f"audit: {res.audit.violations[0]}"
    return None


def _counts(results: List) -> dict:
    """Simulated statistics that must repeat exactly for a fixed seed."""
    records = [r for res in results for r in res.records]
    counters = [res.counters for res in results]
    hops = sum(c.enqueued for c in counters)
    events = sum(res.events_run for res in results)
    credits = sum(r.credits_sent for r in records)
    moved = sum(r.proactive_bytes + r.reactive_bytes for r in records)
    return {
        "sim.events": events,
        "sim.events_per_pkt_hop": events / hops if hops else 0.0,
        "net.port.pkt_hops": hops,
        "net.port.drops": sum(c.dropped_selective + c.dropped_buffer
                              + c.dropped_cap for c in counters),
        "net.port.ecn_marks": sum(c.ecn_marked for c in counters),
        "net.port.max_queue_bytes": max(c.max_queue_bytes for c in counters),
        "credit_plane.credits_sent": credits,
        "credit_plane.waste_ratio":
            sum(r.credits_wasted for r in records) / credits
            if credits else 0.0,
        "transports.timeouts": sum(r.timeouts for r in records),
        "transports.retransmissions":
            sum(r.retransmissions for r in records),
        "transports.censored_share":
            sum(1 for r in records if not r.completed) / len(records)
            if records else 0.0,
        "core.proactive_byte_share":
            sum(r.proactive_bytes for r in records) / moved if moved else 0.0,
        "workloads.flows": len(records),
        "metrics_audit.checks":
            sum(res.audit.checks for res in results if res.audit is not None),
        "metrics_audit.series":
            sum(len(res.telemetry) for res in results
                if res.telemetry is not None),
    }


def _run_cells(wl: workloads.Workload, configs: List, store: str) -> List:
    """The timed body: run every cell and summarise it."""
    from repro.experiments import FailedResult, run_experiment, run_many

    if wl.sweep:
        results = run_many(configs, processes=1, cache=store)
    else:
        results = []
        for cfg in configs:
            try:
                results.append(run_experiment(cfg))
            except Exception as exc:  # noqa: BLE001 - a raising cell is a failed cell
                results.append(FailedResult(
                    config=cfg, error=repr(exc),
                    traceback=traceback.format_exc()))
    for res in results:
        if not _raised(res):
            res.fct()
            res.fct(small=True)
    return results


def measure_body(name: str, configs: List, trace: bool = False) -> dict:
    """Run the workload body once; with ``trace`` under cProfile."""
    import repro

    wl = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix="perfobs-") as tmp:
        store = f"sqlite:{tmp}/r.db"
        profile = cProfile.Profile() if trace else None
        t0 = time.perf_counter()
        if profile is not None:
            profile.enable()
        results = _run_cells(wl, configs, store)
        if profile is not None:
            profile.disable()
        wall = time.perf_counter() - t0

        failures = [f for f in map(_cell_failure, results) if f]
        clean = [r for r in results if not _raised(r)]
        out = {
            "wall_raw_s": wall,
            "cells": len(configs),
            "failed_cells": len(failures),
            "failures": failures,
            "sim_digest": sim_digest(clean),
            "counts": _counts(clean) if clean else {},
            "backends": _backend_names(),
        }
        if wl.sweep:
            from repro.experiments import run_many

            # Reads beside writes: the same sweep again, served from the
            # store, must decode to the results that were put.
            t0 = time.perf_counter()
            warm = run_many(configs, processes=1, cache=store)
            out["counts"]["experiments.warm_sweep_s"] = \
                time.perf_counter() - t0
            out["counts"]["experiments.result_bytes"] = sum(
                os.path.getsize(os.path.join(tmp, f))
                for f in os.listdir(tmp) if not f.endswith("-shm"))
            out["warm_digest"] = sim_digest(
                [r for r in warm if not _raised(r)])
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if profile is not None:
        pkg_root = os.path.dirname(os.path.abspath(repro.__file__))
        out["trace"] = layers.budget(pstats.Stats(profile).stats, pkg_root)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "body", "probes"))
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "probes":
        import probes

        out = probes.run_probes(args.smoke)
    else:
        if args.workload is None:
            parser.error(f"{args.mode} needs --workload")
        if args.mode == "setup":
            out = measure_setup(args.workload, args.seed, args.smoke)
        else:
            configs = workloads.build_configs(args.workload, args.seed,
                                              args.smoke)
            out = measure_body(args.workload, configs, args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
