#!/usr/bin/env python3
"""Chaos smoke for the durable sweep fabric: start, kill -9, resume.

Starts a small ``repro sweep start`` grid in its own session, waits until
the store's ``cells`` table shows some cells done, SIGKILLs the whole
process group (coordinator and pool workers — the moral equivalent of the
host dying mid-sweep), then resumes the sweep and asserts it completes
without re-executing any cell that was done before the kill. Exits
non-zero otherwise.

    python tools/sweep_kill_smoke.py --journal /tmp/sweep-journal \
        --store sqlite:/tmp/sweep.db

Used by the ``sweep-resilience`` CI job; safe to run locally (the sweep
directory and store are wiped first).
"""

import argparse
import json
import os
import shutil
import signal
import sqlite3
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def cells(journal: str, store_path: str) -> dict:
    """``{idx: (state, executions)}`` of the sweep's rows; empty until the
    sweep has recorded them."""
    try:
        with open(os.path.join(journal, "sweep.json")) as fh:
            sweep_id = json.load(fh)["sweep_id"]
    except FileNotFoundError:
        return {}
    conn = sqlite3.connect(store_path)
    try:
        return {idx: (state, runs) for idx, state, runs in conn.execute(
            "SELECT idx, state, executions FROM cells WHERE sweep_id = ?",
            (sweep_id,))}
    finally:
        conn.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--journal", default="/tmp/sweep-journal")
    parser.add_argument("--store", default="sqlite:/tmp/sweep.db")
    parser.add_argument("--ms", type=int, default=1)
    parser.add_argument("--min-done", type=int, default=3,
                        help="kill once this many cells are done")
    parser.add_argument("--timeout-s", type=float, default=300.0)
    args = parser.parse_args()

    shutil.rmtree(args.journal, ignore_errors=True)
    store_path = args.store.split(":", 1)[-1]
    for suffix in ("", "-wal", "-shm"):
        try:
            os.unlink(store_path + suffix)
        except OSError:
            pass

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "sweep", "start",
         "--journal", args.journal, "--store", args.store,
         "--ms", str(args.ms), "--seeds", "2", "--loads", "0.3"],
        start_new_session=True, env=env)

    deadline = time.time() + args.timeout_s
    while time.time() < deadline and proc.poll() is None:
        done = [i for i, (state, _) in cells(args.journal, store_path).items()
                if state == "done"]
        if len(done) >= args.min_done:
            break
        time.sleep(0.05)
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        print(f"killed sweep mid-flight (pgid {proc.pid})")
    else:
        print("sweep finished before the kill; resume still checked")
    proc.wait()
    before = cells(args.journal, store_path)

    status = subprocess.run(
        [sys.executable, "-m", "repro.cli", "sweep", "status",
         "--journal", args.journal], env=env)
    if status.returncode != 0:
        print("sweep status failed", file=sys.stderr)
        return 1
    resume = subprocess.run(
        [sys.executable, "-m", "repro.cli", "sweep", "resume",
         "--journal", args.journal], env=env)
    if resume.returncode != 0:
        print("sweep resume exited non-zero (partial or failed sweep)",
              file=sys.stderr)
        return 1
    with open(os.path.join(args.journal, "report.json")) as fh:
        report = json.load(fh)
    if report["status"] != "complete":
        print(f"resumed sweep not complete: {report}", file=sys.stderr)
        return 1
    after = cells(args.journal, store_path)
    rerun = [i for i, (state, runs) in before.items()
             if state == "done" and after[i][1] != runs]
    if rerun:
        print(f"cells done before the kill were re-executed: {rerun}",
              file=sys.stderr)
        return 1
    print(f"resume OK: {report['completed']}/{report['total']} cells, "
          f"{report['executed']} simulated after resume, "
          f"{report['store_hits']} store hits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
