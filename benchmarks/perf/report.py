"""Printing and comparing perf-observatory results."""

from __future__ import annotations

import json
import sys
from typing import Optional

from layers import LAYERS


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def spread(stat: dict) -> float:
    """Run-to-run spread of one side: (max - min) / median."""
    return (stat["max"] - stat["min"]) / stat["median"] if stat["median"] else 0.0


def print_header(header: dict, file=None) -> None:
    print("perf observatory  " + "  ".join(
        f"{k}={header[k]}" for k in ("commit", "python", "nproc", "engine",
                                     "credit_plane", "seed", "repeats")),
        file=file)
    if header["smoke"]:
        print("SMOKE RUN: tiny horizons, numbers are not measurements",
              file=file)


def print_workload(name: str, record: dict, spec: dict, file=None) -> None:
    def out(line: str = "") -> None:
        print(line, file=file)

    out(f"\n== {name} ({record['cells']} cell(s)) ==")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for metric, st in record["end_to_end"].items():
        out(f"  {metric:<16} {_fmt(st['value']):>12} {st['unit']:<4} "
            f"median {_fmt(st['median'])} min {_fmt(st['min'])} "
            f"max {_fmt(st['max'])} n={st['n']} "
            f"spread {100 * spread(st):.1f}% (bound {100 * bounds[metric]:.0f}%)")
    if "wall_raw_s" in record:
        st = record["wall_raw_s"]
        out(f"  {'wall_raw_s':<16} {_fmt(st['value']):>12} s    "
            f"(unscaled body time; wall_s is at the reference packet-hops)")
    share = record["failed_share"]
    out(f"  failed_share     {share['failed']}/{share['attempted']} cells"
        f" = {share['value']:.4f}")
    for failure in record["failures"]:
        out(f"    ! {failure}")
    out(f"  sim_digest       {record['sim_digest']}  "
        f"({'stable' if record['digests_equal'] else 'DIFFERS BETWEEN RUNS'};"
        f" counts {'identical' if record['counts_identical'] else 'DIFFER'})")
    per_layer = record["per_layer"]
    if f"{LAYERS[0]}.share" in per_layer:
        out("  layer budget (traced self time):")
        rows = sorted(LAYERS, key=lambda l: -per_layer[f"{l}.share"])
        for layer in rows:
            out(f"    {layer:<14} {per_layer[f'{layer}.self_s']:>9.3f} s "
                f"{per_layer[f'{layer}.share']:>6.2f}% "
                f"{per_layer[f'{layer}.calls']:>10} calls")
        total = sum(per_layer[f"{l}.share"] for l in LAYERS)
        out(f"    {'sum':<14} {'':>11} {total:>6.2f}%")
        unmapped = record.get("unmapped") or {}
        out("    unmapped: " + (", ".join(
            f"{m} ({b['calls']} calls, {b['share']:.2f}%)"
            for m, b in sorted(unmapped.items())) or "none"))
        out("  phases: " + "  ".join(
            f"phase.{p}={_fmt(per_layer[f'phase.{p}'])} s"
            for p in ("build_s", "simulate_s", "other_s"))
            + f"  trace_overhead_ratio={_fmt(per_layer['trace_overhead_ratio'])}")
    out("  counts (simulated; exact for a seed):")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for key, value in sorted(record["counts"].items()):
        out(f"    {key:<32} {_fmt(value)} {units[key]}")


def print_probes(probes: dict, file=None) -> None:
    print("\n== isolated probes ==", file=file)
    for name, res in probes.items():
        tail = f"  ({res['error']})" if res["error"] else ""
        print(f"  {name:<42} {_fmt(res['value']):>12} {res['unit']}{tail}",
              file=file)


def _verdict(a: dict, b: dict, better: str, bound: float):
    """Relative worsening of B's value against A's, and its verdict."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    overlap = not (a["max"] < b["min"] or b["max"] < a["min"])
    if max(spread(a), spread(b)) > bound and overlap:
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if worse_by < -bound:
        return worse_by, "better"
    return worse_by, "within"


def compare(path_a: str, path_b: str, spec: dict, file=None) -> int:
    """One row per workload x end-to-end metric; exit code 1 on any
    ``worse`` or any ``failed_share`` increase, 2 on unusable input."""
    sides = []
    for path in (path_a, path_b):
        with open(path) as f:
            sides.append(json.load(f))
        if sides[-1]["header"]["smoke"]:
            print(f"error: {path} is a --smoke run, not a measurement",
                  file=sys.stderr)
            return 2
    a, b = sides
    print(f"A: {path_a} commit {a['header']['commit']} seed "
          f"{a['header']['seed']}\nB: {path_b} commit {b['header']['commit']}"
          f" seed {b['header']['seed']}", file=file)
    print(f"{'workload':<14} {'metric':<15} {'A value [min..max]':>34} "
          f"{'B value [min..max]':>34} {'regression':>10} {'bound':>6} verdict",
          file=file)
    bad = False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            sa: Optional[dict] = wa["end_to_end"].get(metric["name"])
            sb: Optional[dict] = wb["end_to_end"].get(metric["name"])
            if sa is None or sb is None:
                continue
            worse_by, verdict = _verdict(sa, sb, metric["better"],
                                         metric["bound"])
            bad |= verdict == "worse"
            cells = [f"{_fmt(s['value'])} [{_fmt(s['min'])}..{_fmt(s['max'])}]"
                     for s in (sa, sb)]
            print(f"{name:<14} {metric['name']:<15} {cells[0]:>34} "
                  f"{cells[1]:>34} {100 * worse_by:>+9.1f}% "
                  f"{100 * metric['bound']:>5.0f}% {verdict}", file=file)
        fa, fb = wa["failed_share"]["value"], wb["failed_share"]["value"]
        bad |= fb > fa
        same = wa["sim_digest"] == wb["sim_digest"]
        print(f"{name:<14} failed_share {fa:.4f} -> {fb:.4f}"
              f"{'  INCREASED' if fb > fa else ''}   sim_digest "
              f"{'equal' if same else 'DIFFERS'}", file=file)
    return 1 if bad else 0
