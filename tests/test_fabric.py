"""Durable sweep fabric: the cells table, stores, leases, retries,
crash-resume.

The acceptance scenario: kill -9 a ≥32-cell sweep mid-flight, resume it,
and get (a) zero re-execution of completed cells and (b) a merged result
set byte-identical to an uninterrupted run; a sweep with permanently
failing cells must still terminate with a partial-completion report
naming them. Cell state is inspected where it lives: the store's
``cells`` table.
"""

import collections
import json
import multiprocessing
import os
import pickle
import random
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.experiments.fabric as fabric_mod
import repro.experiments.store as store_mod
from repro.experiments.cache import config_key
from repro.experiments.fabric import (
    CompletionReport,
    FabricConfig,
    JournalError,
    SweepFabric,
    retry_delay_s,
    sweep_status,
)
from repro.experiments.parallel import FailedResult, run_many
from repro.experiments.runner import ExperimentResult, SwitchCounters
from repro.experiments.store import (
    DONE,
    EXHAUSTED,
    LEASED,
    PENDING,
    ResultStore,
    SweepCells,
    open_store,
)
from repro.metrics.fct import FlowRecord

from tests.util import cell, tiny_cfg

SRC = str(Path(__file__).resolve().parent.parent / "src")


def broken_config(**overrides):
    """A config that fails deterministically inside the worker."""
    return tiny_cfg(workload="no-such-workload", **overrides)


def synthetic_result(cfg, n_records=5, aborted=False):
    records = [
        FlowRecord(flow_id=i, scheme="dctcp", group="legacy", role="bg",
                   size_bytes=1000 + i, start_ns=i, fct_ns=10 * (i + 1),
                   timeouts=0, retransmissions=0)
        for i in range(n_records)
    ]
    return ExperimentResult(config=cfg, records=records,
                            counters=SwitchCounters(), events_run=99,
                            wall_seconds=0.01, aborted=aborted,
                            abort_reason="watchdog" if aborted else "")


Row = collections.namedtuple(
    "Row", "idx state attempt executions lease_until worker_pid error")


def cell_table(path, sweep_id=None):
    """The rows of the ``cells`` table at ``path`` (one sweep's if named),
    read over a connection of the test's own."""
    sql = f"SELECT {', '.join(Row._fields)} FROM cells"
    args = ()
    if sweep_id is not None:
        sql, args = sql + " WHERE sweep_id = ?", (sweep_id,)
    conn = sqlite3.connect(path)
    try:
        return [Row(*r) for r in conn.execute(sql + " ORDER BY idx", args)]
    finally:
        conn.close()


def sweep_table(journal_dir):
    """A durable sweep's rows, found through its directory's pointer."""
    pointer = json.loads((Path(journal_dir) / "sweep.json").read_text())
    return cell_table(pointer["store"].split(":", 1)[1], pointer["sweep_id"])


# ----------------------------------------------------------------- stores


class TestSqliteStore:
    def test_roundtrip_and_miss(self, tmp_path):
        store = ResultStore(tmp_path / "r.db")
        cfg = tiny_cfg()
        assert store.get(cfg) is None
        assert store.put(cfg, synthetic_result(cfg))
        loaded = store.get(cfg)
        assert loaded is not None
        assert loaded.records == synthetic_result(cfg).records
        assert loaded.events_run == 99
        assert store.get(cfg.with_(seed=2)) is None
        assert len(store) == 1

    def test_never_stores_failures_or_aborts(self, tmp_path):
        store = ResultStore(tmp_path / "r.db")
        cfg = tiny_cfg()
        failed = FailedResult(config=cfg, error="boom", traceback="tb")
        assert not store.put(cfg, failed)
        assert not store.put(cfg, synthetic_result(cfg, aborted=True))
        assert store.skipped == 2
        assert store.get(cfg) is None

    def test_salt_partitions_keys(self, tmp_path):
        cfg = tiny_cfg()
        old = ResultStore(tmp_path / "r.db", salt="code-v1")
        old.put(cfg, synthetic_result(cfg))
        assert old.get(cfg) is not None
        new = ResultStore(tmp_path / "r.db", salt="code-v2")
        assert new.get(cfg) is None

    def test_torn_payload_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path / "r.db")
        cfg = tiny_cfg()
        store.put(cfg, synthetic_result(cfg))
        with sqlite3.connect(store.path) as conn:
            conn.execute("UPDATE results SET payload = ?",
                         (b"\x80garbage",))
        assert store.get(cfg) is None

    def test_missing_module_payload_reads_as_miss(self, tmp_path):
        """A payload pickled against a since-moved module is a stale-schema
        entry: it must read as a miss, not raise out of get()."""
        store = ResultStore(tmp_path / "r.db")
        cfg = tiny_cfg()
        store.put(cfg, synthetic_result(cfg))
        # Protocol-0 GLOBAL opcode referencing a module that no longer
        # exists; unpickling raises ModuleNotFoundError.
        with sqlite3.connect(store.path) as conn:
            conn.execute("UPDATE results SET payload = ?",
                         (b"cno_such_module_xyz\nKlass\n.",))
        assert store.get(cfg) is None
        assert store.misses == 1

    def test_write_error_is_counted_not_raised(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "r.db")
        cfg = tiny_cfg()

        def locked():
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(store, "_conn", locked)
        assert store.put(cfg, synthetic_result(cfg)) is False
        assert store.write_errors == 1

    def test_open_store_spec_parsing(self, tmp_path):
        prefixed = open_store(f"sqlite:{tmp_path}/a.db")
        assert prefixed.path == tmp_path / "a.db"
        bare = open_store(tmp_path / "b.results")  # any file name will do
        assert bare.spec == f"sqlite:{tmp_path}/b.results"
        assert (tmp_path / "a.db").is_file()
        assert (tmp_path / "b.results").is_file()
        store = ResultStore(tmp_path / "d.db")
        assert open_store(store) is store

    @pytest.mark.parametrize("prefix", ["", "sqlite:"],
                             ids=["bare-path", "sqlite-prefix"])
    def test_open_store_rejects_a_directory(self, tmp_path, prefix):
        """The retired one-pickle-per-key layout was a directory; naming
        one must say so up front, not fail inside sqlite3."""
        (tmp_path / "old-cache" / "ab").mkdir(parents=True)
        with pytest.raises(ValueError,
                           match="directory store format was retired"):
            open_store(f"{prefix}{tmp_path}/old-cache")

    def test_spec_reopens_equivalent_store(self, tmp_path):
        store = ResultStore(tmp_path / "r.db")
        cfg = tiny_cfg()
        store.put(cfg, synthetic_result(cfg))
        again = open_store(store.spec)
        assert again.get(cfg) is not None


def _hammer(path, start, count, barrier):
    """Concurrent-writer worker: put `count` results, read some back."""
    store = ResultStore(path)
    barrier.wait()  # maximize write overlap across processes
    for i in range(start, start + count):
        cfg = tiny_cfg(seed=i % 24 + 1)  # overlapping keys across procs
        ok = store.put(cfg, synthetic_result(cfg, n_records=20))
        assert ok, "concurrent write failed"
        got = store.get(cfg)
        assert got is not None and len(got.records) == 20
    store.close()


class TestSqliteConcurrentWriters:
    def test_multiprocess_hammer(self, tmp_path):
        """Four processes writing overlapping keys into one WAL database:
        every write lands, every read decodes, no corruption."""
        path = str(tmp_path / "shared.db")
        ResultStore(path).close()  # create schema up front
        barrier = multiprocessing.Barrier(4)
        procs = [
            multiprocessing.Process(target=_hammer,
                                    args=(path, p * 24, 24, barrier))
            for p in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        store = ResultStore(path)
        assert len(store) == 24  # seeds collapse onto 24 distinct configs
        for seed in range(1, 25):
            got = store.get(tiny_cfg(seed=seed))
            assert got is not None
            assert got.records == synthetic_result(
                tiny_cfg(seed=seed), n_records=20).records
        integrity = sqlite3.connect(path).execute(
            "PRAGMA integrity_check").fetchone()[0]
        assert integrity == "ok"


# ------------------------------------------------------------ cells table


def new_cells(tmp_path, n, sweep_id="s1"):
    store = ResultStore(tmp_path / "r.db")
    configs = [tiny_cfg(seed=s) for s in range(1, n + 1)]
    cells = SweepCells(store, sweep_id)
    cells.create([store.key(c) for c in configs], configs)
    return store, cells, configs


class TestJournal:
    """The sweep's record: rows of the store's ``cells`` table, one SQL
    statement per transition."""

    def test_create_then_replay_all_pending(self, tmp_path):
        store, cells, configs = new_cells(tmp_path, 2)
        rows = cells.load()
        assert [r.state for r in rows] == [PENDING, PENDING]
        assert [r.key for r in rows] == [config_key(c, store.salt)
                                         for c in configs]
        assert [r.config for r in rows] == configs

    def test_create_twice_refuses(self, tmp_path):
        store, cells, configs = new_cells(tmp_path, 1)
        with pytest.raises(JournalError, match="already exists"):
            cells.create([store.key(configs[0])], configs)

    def test_replay_state_machine(self, tmp_path):
        store, cells, configs = new_cells(tmp_path, 4)
        assert cells.lease(0, 1, lease_s=30)
        assert cells.lease(1, 1, lease_s=30)
        cells.started(1, 1, pid=42, lease_s=30)
        assert store.put_by_key(store.key(configs[1]),
                                synthetic_result(configs[1]),
                                ("s1", 1, 1, 0.5))
        assert cells.lease(2, 1, lease_s=30)
        assert cells.fail(2, 1, FailedResult(configs[2], "E", "TB",
                                             worker_pid=7, wall_seconds=0.1),
                          max_retries=2)
        assert cells.lease(3, 3, lease_s=30)
        assert cells.fail(3, 3, FailedResult(configs[3], "E3", "",
                                             attempts=3), max_retries=2)
        rows = cell_table(store.path)
        assert rows[0].state == LEASED
        assert rows[1].state == DONE and rows[1].executions == 1
        assert rows[2].state == PENDING and rows[2].attempt == 1
        assert rows[2].error == "E" and rows[2].worker_pid == 7
        assert rows[3].state == EXHAUSTED and rows[3].attempt == 3

    def test_heartbeat_extends_lease(self, tmp_path):
        store, cells, _ = new_cells(tmp_path, 1)
        t = time.time()
        assert cells.lease(0, 1, lease_s=5)
        assert cells.heartbeat(0, 1, lease_s=100)
        (row,) = cell_table(store.path)
        assert row.lease_until == pytest.approx(t + 100, abs=5)

    def test_replay_ignores_stale_zombie_verdicts(self, tmp_path):
        """An expired attempt's worker cannot be cancelled; its late
        verdicts (landing after the cell is exhausted or after the
        retry's verdict) must not rewrite the cell's row."""
        store, cells, configs = new_cells(tmp_path, 2)
        keys = [store.key(c) for c in configs]
        # cell 0: attempt 1 expires and the cell is exhausted; the
        # zombie's late done must not flip the verdict.
        assert cells.lease(0, 1, lease_s=-1.0)
        assert cells.expire(max_retries=0, error="expired") == [(0, 1)]
        (exhausted, _) = cell_table(store.path)
        assert store.put_by_key(keys[0], synthetic_result(configs[0]),
                                ("s1", 0, 1, 0.1))
        assert cell_table(store.path)[0] == exhausted
        assert exhausted.state == EXHAUSTED
        # cell 1: attempt 1 expires, attempt 2 succeeds; the zombie's
        # late fail must not resurrect the failure.
        assert cells.lease(1, 1, lease_s=-1.0)
        assert cells.expire(max_retries=1, error="expired") == [(1, 1)]
        assert cells.lease(1, 2, lease_s=30)
        store.put_by_key(keys[1], synthetic_result(configs[1]),
                         ("s1", 1, 2, 0.1))
        assert not cells.fail(1, 1, FailedResult(configs[1], "zombie", ""),
                              max_retries=1)
        assert cell_table(store.path)[1].state == DONE

    def test_verify_grid_catches_keying_drift(self, tmp_path):
        SweepFabric(tmp_path / "j", store=tmp_path / "r.db",
                    config=FabricConfig(processes=1)).run([tiny_cfg()])
        conn = sqlite3.connect(tmp_path / "r.db")
        with conn:
            conn.execute("UPDATE cells SET key = ?", ("0" * 64,))
        conn.close()
        with pytest.raises(JournalError, match="no longer match"):
            SweepFabric(tmp_path / "j").run()


class TestCellsStateMachine:
    """Seeded random interleavings of every transition a sweep's rows
    see — lease, a worker's start / heartbeat / done / fail for the live
    or a superseded attempt, a result write that fails, the loop
    releasing a lease whose result was not stored, lease expiry, settling
    a key, and kill -9 of the coordinator followed by resume, some of
    whose workers survive it — with the table's invariants checked after
    every step."""

    MAX_RETRIES = 2
    SEEDS = 40
    STEPS = 60
    # Weighted so that expired attempts are often still running when
    # their cell is leased again.
    OPS = (("lease",) * 4 + ("expire",) * 3 + ("settle", "resume")
           + ("start", "heartbeat", "done", "fail", "release") * 2)

    def test_invariants_hold_in_every_interleaving(self, tmp_path):
        configs = [tiny_cfg(seed=s) for s in (1, 2, 3)]
        for seed in range(self.SEEDS):
            self._interleave(ResultStore(tmp_path / f"{seed}.db"), configs,
                             random.Random(seed), f"seed {seed}")

    def _interleave(self, store, configs, rng, label):
        cells = SweepCells(store, "s")
        keys = [store.key(c) for c in configs]
        cells.create(keys, configs)
        workers = set()  # (cell, attempt) still running, live or superseded
        for step in range(self.STEPS):
            rows = cell_table(store.path)
            op = rng.choice(self.OPS)
            where = f"{label} step {step} ({op})"
            lease_s = rng.choice([-1.0, 60.0])  # already expired, or not
            if op == "lease":
                pending = [r.idx for r in rows if r.state == PENDING]
                if pending:
                    i = rng.choice(pending)
                    attempt = rows[i].attempt + 1
                    assert cells.lease(i, attempt, lease_s), where
                    workers.add((i, attempt))
            elif op == "expire":
                cells.expire(self.MAX_RETRIES, "lease expired")
            elif op == "settle":
                cells.settle(rng.choice(keys), None)
            elif op == "resume":
                # Most of the pool died with the loop; a survivor may
                # share its attempt number with the cell's next lease.
                workers = {w for w in workers if rng.random() < 0.3}
                cells.load()
                for before, now in zip(rows, cell_table(store.path)):
                    if before.state == LEASED:  # re-queued, not charged
                        assert now.state == PENDING, where
                        assert now.attempt == before.attempt - 1, where
                    else:
                        assert now == before, where
            elif workers:
                live = {(r.idx, r.attempt) for r in rows if r.state == LEASED}
                stale = sorted(workers - live)
                # Superseded attempts get half the worker steps.
                i, attempt = rng.choice(stale if stale and rng.random() < 0.5
                                        else sorted(workers))
                self._worker_step(store, cells, keys, configs, op, i,
                                  attempt, lease_s, rng)
                if op in ("done", "fail", "release"):
                    workers.discard((i, attempt))
                if (i, attempt) not in live:
                    assert cell_table(store.path)[i] == rows[i], (
                        f"{where}: superseded attempt {attempt} changed "
                        f"cell {i}")
            self._check_invariants(store, where)

    def _worker_step(self, store, cells, keys, configs, op, i, attempt,
                     lease_s, rng):
        if op == "start":
            cells.started(i, attempt, 100 + attempt, lease_s)
        elif op == "heartbeat":
            cells.heartbeat(i, attempt, lease_s)
        elif op == "release":
            cells.release(i, attempt)
        elif op == "fail":
            cells.fail(i, attempt,
                       FailedResult(configs[i], "E", "TB", attempts=attempt,
                                    worker_pid=100 + attempt),
                       self.MAX_RETRIES)
        else:
            disk_full = rng.random() < 0.3
            conn = store._conn()
            if disk_full:
                with conn:
                    conn.execute(
                        "CREATE TRIGGER disk_full BEFORE INSERT ON results "
                        "BEGIN SELECT RAISE(ABORT, 'disk full'); END")
            stored = store.put_by_key(keys[i], synthetic_result(configs[i]),
                                      ("s", i, attempt, 0.1))
            assert stored != disk_full
            if disk_full:
                with conn:
                    conn.execute("DROP TRIGGER disk_full")

    def test_failed_attempt_yields_to_a_survivors_result(self, tmp_path,
                                                          monkeypatch):
        """Resume re-leases an interrupted cell under the killed attempt's
        number, so a worker that outlived the kill can commit ``done`` for
        it. If the resumed attempt then fails, its ``fail`` changes no
        row; the loop settles the cell with the survivor's stored result
        instead of re-queueing a done cell."""
        journal, cfg = tmp_path / "j", tiny_cfg()
        survivor_result = synthetic_result(cfg)

        def survivor_commits_then_raise(config):
            pointer = json.loads((journal / "sweep.json").read_text())
            survivor = open_store(pointer["store"], salt=pointer["salt"])
            assert survivor.put_by_key(survivor.key(config), survivor_result,
                                       (pointer["sweep_id"], 0, 1, 0.1))
            survivor.close()
            raise RuntimeError("resumed attempt fails")

        monkeypatch.setattr(fabric_mod, "run_experiment",
                            survivor_commits_then_raise)
        fabric = SweepFabric(journal, store=tmp_path / "r.db",
                             config=FabricConfig(processes=1, max_retries=2))
        (res,) = fabric.run([cfg])
        assert isinstance(res, ExperimentResult)
        assert res.records == survivor_result.records
        assert fabric.last_report.status == "complete"
        assert fabric.last_report.executed == 1
        assert fabric.last_report.retries == 0
        (row,) = sweep_table(journal)
        assert row.state == DONE and row.attempt == 1

    def _check_invariants(self, store, where):
        for state, attempt, stored in store._conn().execute(
                "SELECT state, attempt, EXISTS (SELECT 1 FROM results "
                "WHERE results.key = cells.key) FROM cells"):
            assert state != DONE or stored, f"{where}: done without result"
            assert attempt <= self.MAX_RETRIES + 1, where


# ----------------------------------------------------- retries & backoff


class TestRetryPolicy:
    def test_delay_is_deterministic_and_exponential(self):
        d1 = retry_delay_s(1, 0.5, seed=3, token="k")
        d2 = retry_delay_s(2, 0.5, seed=3, token="k")
        d3 = retry_delay_s(3, 0.5, seed=3, token="k")
        assert d1 == retry_delay_s(1, 0.5, seed=3, token="k")
        assert 0.5 <= d1 <= 0.75       # base * [1, 1.5)
        assert 1.0 <= d2 <= 1.5
        assert 2.0 <= d3 <= 3.0
        assert retry_delay_s(1, 0.5, seed=4, token="k") != d1
        assert retry_delay_s(1, 0.0, seed=3, token="k") == 0.0

    def test_run_many_max_retries_records_attempts(self):
        results = run_many([broken_config()], processes=1, max_retries=2)
        (res,) = results
        assert isinstance(res, FailedResult)
        assert res.attempts == 3           # 1 initial + 2 retries
        assert res.retried
        assert res.worker_pid == os.getpid()
        assert res.wall_seconds >= 0.0
        assert "no-such-workload" in res.error

    def test_run_many_retry_failed_compat(self):
        (res,) = run_many([broken_config()], processes=1, max_retries=1)
        assert isinstance(res, FailedResult)
        assert res.attempts == 2 and res.retried

    def test_run_many_backoff_sleeps_seeded(self, monkeypatch):
        napped = []
        monkeypatch.setattr(fabric_mod.time, "sleep", napped.append)
        run_many([broken_config()], processes=1, max_retries=2,
                 retry_base_s=0.25, retry_seed=11)
        assert napped == [retry_delay_s(1, 0.25, 11, 0),
                          retry_delay_s(2, 0.25, 11, 0)]

    def test_failed_result_stamps_pid_and_duration(self):
        (res,) = run_many([broken_config()], processes=1)
        assert isinstance(res, FailedResult)
        assert res.worker_pid == os.getpid()  # serial path runs in-process
        assert res.wall_seconds >= 0.0
        assert res.attempts == 1 and not res.retried


# -------------------------------------------------------------- the loop


class TestOneLoop:
    """``run_cells`` is the only loop: with or without a journal, in-process
    or pooled, a grid gets the same verdicts in the same slots."""

    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize("journaled", [False, True],
                             ids=["no-journal", "journal"])
    def test_same_verdicts_in_every_mode(self, tmp_path, journaled,
                                         processes):
        clean = tiny_cfg(seed=5)
        configs = [clean, broken_config(seed=2), tiny_cfg(seed=5)]
        store = open_store(tmp_path / "r.db")
        cells, grid = None, configs
        if journaled:
            cells = SweepCells(store, "s1")
            cells.create([store.key(c) for c in configs], configs)
            grid = cells.load()
        policy = FabricConfig(processes=processes, max_retries=2,
                              heartbeat_s=0.2)
        results, counts = fabric_mod.run_cells(grid, store, policy,
                                               cells=cells)
        direct = cell(clean)
        assert results[0].records == direct.records
        assert results[0].events_run == direct.events_run
        assert results[2] is results[0]  # the duplicate shares the verdict
        broken = results[1]
        assert isinstance(broken, FailedResult)
        assert broken.attempts == policy.max_retries + 1 and broken.retried
        assert "no-such-workload" in broken.error
        # One simulation for the two equal cells, three attempts at the
        # broken one; only the clean result reaches the store.
        assert counts["executed"] == 1 + 3
        assert counts["retries"] == 2
        assert len(store) == 1
        if journaled:
            rows = cell_table(store.path)
            assert [r.state for r in rows] == [DONE, EXHAUSTED, DONE]
            assert sum(r.executions for r in rows) == 1 + 3

    def test_run_many_hashes_each_config_once(self, tmp_path, monkeypatch):
        """The key the loop groups a cell by is the key its result is read
        and written under: one hash per config, cold and warm."""
        calls = []

        def counting_key(config, salt=None):
            calls.append(config)
            return config_key(config, salt)

        monkeypatch.setattr(fabric_mod, "config_key", counting_key)
        monkeypatch.setattr(store_mod, "config_key", counting_key)
        configs = [tiny_cfg(seed=1), tiny_cfg(seed=2),
                   tiny_cfg(seed=1)]
        for _ in ("cold", "warm"):
            calls.clear()
            results = run_many(configs, processes=1,
                               cache=tmp_path / "r.db")
            assert len(calls) == len(configs)
            assert results[0] is results[2]


# ------------------------------------------------------------ the fabric


def _stalled_cell(item):
    """Pool-task stand-in for a wedged worker: no heartbeat, no exit."""
    time.sleep(600)


class TestFabric:
    def fabric(self, tmp_path, **overrides):
        kw = dict(processes=1, max_retries=1, retry_base_s=0.0,
                  heartbeat_s=0.2)
        kw.update(overrides)
        return SweepFabric(tmp_path / "journal",
                           store=f"sqlite:{tmp_path}/results.db",
                           config=FabricConfig(**kw))

    def test_start_complete_and_report(self, tmp_path):
        configs = [tiny_cfg(seed=s) for s in (1, 2, 3)]
        fabric = self.fabric(tmp_path)
        results = fabric.run(configs)
        assert [r.config.seed for r in results] == [1, 2, 3]
        assert not any(isinstance(r, FailedResult) for r in results)
        report = fabric.last_report
        assert len(report.sweep_id) == 12
        assert report.status == "complete"
        assert report.total == 3 and report.completed == 3
        assert report.executed == 3 and report.failed == []
        on_disk = json.loads(
            (tmp_path / "journal" / "report.json").read_text())
        assert on_disk["sweep_id"] == report.sweep_id
        assert on_disk["status"] == "complete"

    def test_progress_reaches_total(self, tmp_path):
        calls = []
        fabric = self.fabric(tmp_path)
        fabric.run([tiny_cfg(seed=s) for s in (1, 2)],
                   progress=lambda d, t: calls.append((d, t)))
        assert calls[-1] == (2, 2)

    def test_resume_recomputes_nothing(self, tmp_path):
        configs = [tiny_cfg(seed=s) for s in (1, 2, 3)]
        first = self.fabric(tmp_path)
        res1 = first.run(configs)
        resumed = SweepFabric(tmp_path / "journal",
                              config=FabricConfig(processes=1))
        res2 = resumed.run()
        assert resumed.last_report.executed == 0
        assert resumed.last_report.store_hits == 3
        for a, b in zip(res1, res2):
            assert a.records == b.records
            assert pickle.dumps(a.fct()) == pickle.dumps(b.fct())

    def test_duplicate_configs_simulate_once(self, tmp_path):
        cfg = tiny_cfg(seed=5)
        fabric = self.fabric(tmp_path)
        results = fabric.run([cfg, tiny_cfg(seed=6), cfg])
        assert fabric.last_report.executed == 2
        assert results[0].records == results[2].records

    def test_partial_completion_lists_failed_cells(self, tmp_path):
        configs = [tiny_cfg(seed=1), broken_config(seed=2),
                   tiny_cfg(seed=3)]
        fabric = self.fabric(tmp_path, max_retries=1)
        results = fabric.run(configs)
        report = fabric.last_report
        assert report.status == "partial"
        assert report.completed == 2
        assert isinstance(results[1], FailedResult)
        assert results[1].attempts == 2
        assert results[1].worker_pid > 0
        (failed,) = report.failed
        assert failed["index"] == 1 and failed["attempts"] == 2
        assert "no-such-workload" in failed["error"]
        # Resume must keep the exhausted verdict without re-running it.
        resumed = SweepFabric(tmp_path / "journal")
        res2 = resumed.run()
        assert resumed.last_report.executed == 0
        assert isinstance(res2[1], FailedResult)
        assert res2[1].attempts == 2
        assert "no-such-workload" in res2[1].error

    def test_mismatched_grid_raises(self, tmp_path):
        fabric = self.fabric(tmp_path)
        fabric.run([tiny_cfg(seed=1)])
        with pytest.raises(JournalError, match="do not match"):
            SweepFabric(tmp_path / "journal").run([tiny_cfg(seed=99)])

    def test_resume_without_journal_raises(self, tmp_path):
        with pytest.raises(JournalError, match="no sweep to resume"):
            SweepFabric(tmp_path / "nope").run()

    def test_default_store_is_one_file_in_the_journal(self, tmp_path):
        fabric = SweepFabric(tmp_path / "journal",
                             config=FabricConfig(processes=1))
        fabric.run([tiny_cfg(seed=1)])
        assert fabric.last_report.store == f"sqlite:{tmp_path}/journal/store.db"
        assert len(open_store(tmp_path / "journal" / "store.db")) == 1
        # Nothing that changes during a sweep lives outside the store.
        assert {p.name for p in (tmp_path / "journal").iterdir()} <= {
            "sweep.json", "report.json", "store.db", "store.db-wal",
            "store.db-shm"}

    def test_resume_of_a_pre_change_journal_is_a_precise_error(
            self, tmp_path):
        """A journal of the retired format kept cell state in files beside
        the store; resuming one says how to reuse its results instead."""
        old = tmp_path / "journal"
        old.mkdir()
        (old / "grid.pkl").write_bytes(b"")
        (old / "journal.jsonl").write_text('{"op":"init"}\n')
        ResultStore(old / "store.db").close()
        for fabric in (SweepFabric(old), self.fabric(tmp_path)):
            with pytest.raises(JournalError) as err:
                fabric.run()
            assert "grid.pkl, journal.jsonl" in str(err.value)
            assert "`repro sweep start` the same grid" in str(err.value)
            assert f"{old / 'store.db'}" in str(err.value)
        with pytest.raises(JournalError, match="retired format"):
            sweep_status(old)

    def test_deleted_store_is_a_precise_error(self, tmp_path):
        """The store holds the sweep's cells: a sweep whose store file is
        gone cannot resume, and says so instead of starting over."""
        self.fabric(tmp_path).run([tiny_cfg(seed=1)])
        os.unlink(tmp_path / "results.db")
        for call in (lambda: SweepFabric(tmp_path / "journal").run(),
                     lambda: sweep_status(tmp_path / "journal")):
            with pytest.raises(JournalError, match="which is gone"):
                call()
        assert not (tmp_path / "results.db").exists()

    def test_mismatched_store_on_resume_is_a_precise_error(self, tmp_path):
        configs = [tiny_cfg(seed=1)]
        self.fabric(tmp_path).run(configs)
        elsewhere = SweepFabric(tmp_path / "journal",
                                store=f"sqlite:{tmp_path}/other.db")
        with pytest.raises(JournalError,
                           match="`repro sweep start` the grid with a fresh"):
            elsewhere.run(configs)
        assert not (tmp_path / "other.db").exists()
        # The recorded store, however spelled, resumes.
        same = SweepFabric(tmp_path / "journal", store=tmp_path / "results.db")
        same.run()
        assert same.last_report.store_hits == 1

    def test_two_starts_of_one_grid_keep_their_own_rows(self, tmp_path):
        """Two sweeps of one grid against one store: each has its own
        rows; the second is served from the first's results and leaves
        the first's rows as they were."""
        configs = [tiny_cfg(seed=s) for s in (1, 2, 3)]
        store = f"sqlite:{tmp_path}/results.db"
        first = SweepFabric(tmp_path / "a", store=store,
                            config=FabricConfig(processes=1))
        first.run(configs)
        rows_a = sweep_table(tmp_path / "a")
        second = SweepFabric(tmp_path / "b", store=store,
                             config=FabricConfig(processes=1))
        second.run(configs)
        assert second.last_report.sweep_id != first.last_report.sweep_id
        assert second.last_report.executed == 0
        assert second.last_report.store_hits == 3
        assert sweep_table(tmp_path / "a") == rows_a
        rows_b = sweep_table(tmp_path / "b")
        assert [r.state for r in rows_b] == [DONE] * 3
        assert [r.executions for r in rows_b] == [0] * 3
        assert len(cell_table(tmp_path / "results.db")) == 6

    def test_sweep_status_reflects_journal(self, tmp_path):
        configs = [tiny_cfg(seed=1), broken_config(seed=2)]
        fabric = self.fabric(tmp_path, max_retries=0)
        fabric.run(configs)
        status = sweep_status(tmp_path / "journal")
        assert status["cells"] == 2
        assert status["by_status"] == {DONE: 1, EXHAUSTED: 1}
        assert status["exhausted"][0]["index"] == 1
        assert status["last_report"]["status"] == "partial"

    def test_pool_path_matches_serial(self, tmp_path):
        configs = [tiny_cfg(seed=s) for s in (1, 2, 3, 4)]
        serial = self.fabric(tmp_path).run(configs)
        pooled_fabric = SweepFabric(
            tmp_path / "journal2", store=f"sqlite:{tmp_path}/r2.db",
            config=FabricConfig(processes=2, heartbeat_s=0.2))
        pooled = pooled_fabric.run(configs)
        assert pooled_fabric.last_report.status == "complete"
        for a, b in zip(serial, pooled):
            assert a.records == b.records
            assert pickle.dumps(a.fct()) == pickle.dumps(b.fct())

    def test_pool_dispatch_capped_at_pool_size(self, tmp_path, monkeypatch):
        """Leases are only taken when a worker slot is free. Dispatching
        the whole backlog at once would start every lease at submit time,
        so any cell whose pool-queue wait exceeded lease_s was falsely
        expired without ever running."""
        inflight = []
        lease = SweepCells.lease

        def counted_lease(cells, idx, attempt, lease_s):
            ok = lease(cells, idx, attempt, lease_s)
            inflight.append(sum(r.state == LEASED for r in cell_table(
                cells.store.path, cells.sweep_id)))
            return ok

        monkeypatch.setattr(SweepCells, "lease", counted_lease)
        configs = [tiny_cfg(seed=s) for s in range(1, 7)]
        fabric = SweepFabric(
            tmp_path / "journal", store=f"sqlite:{tmp_path}/r.db",
            config=FabricConfig(processes=2, heartbeat_s=0.2))
        fabric.run(configs)
        report = fabric.last_report
        assert report.status == "complete"
        assert report.expired_leases == 0
        assert report.duplicate_executions == 0
        # In-flight cells (leased, no verdict yet), counted in the table
        # as each lease is taken, never exceed the pool size.
        assert len(inflight) == len(configs)
        assert max(inflight) <= 2

    def test_resume_serves_exhausted_cell_from_store(self, tmp_path):
        """A cell written off as exhausted whose zombie attempt later
        stored a valid result is served from the store on resume instead
        of re-reporting the self-healed failure."""
        configs = [tiny_cfg(seed=1), broken_config(seed=2)]
        fabric = self.fabric(tmp_path, max_retries=0)
        results = fabric.run(configs)
        assert isinstance(results[1], FailedResult)
        store = open_store(f"sqlite:{tmp_path}/results.db")
        store.put(configs[1], synthetic_result(configs[1]))
        store.close()
        resumed = SweepFabric(tmp_path / "journal",
                              config=FabricConfig(processes=1))
        res2 = resumed.run()
        assert not isinstance(res2[1], FailedResult)
        report = resumed.last_report
        assert report.status == "complete"
        assert report.executed == 0
        assert report.store_hits == 2
        # The salvage is recorded: a further resume sees both cells DONE.
        status = sweep_status(tmp_path / "journal")
        assert status["by_status"] == {DONE: 2}

    def test_lease_expiry_requeues_and_terminates(self, tmp_path,
                                                  monkeypatch):
        """A stalled worker (sleeps forever, no heartbeat) is expired at
        its lease deadline; the retry stalls too, so the sweep terminates
        with an exhausted cell instead of hanging. The pool-task patch
        reaches the workers because Linux pools fork."""
        monkeypatch.setattr(fabric_mod, "_pool_cell", _stalled_cell)
        # Two cells: a single pending cell clamps the pool to one process
        # and takes the serial path, which has no leases to expire.
        configs = [tiny_cfg(seed=1), tiny_cfg(seed=2)]
        fabric = SweepFabric(
            tmp_path / "journal", store=f"sqlite:{tmp_path}/r.db",
            config=FabricConfig(processes=2, max_retries=1, lease_s=0.2,
                                retry_base_s=0.0, heartbeat_s=30.0,
                                poll_s=0.01))
        results = fabric.run(configs)
        report = fabric.last_report
        assert report.expired_leases == 4  # 2 cells x (initial + 1 retry)
        assert report.retries == 2
        for res in results:
            assert isinstance(res, FailedResult)
            assert "lease expired" in res.error
            assert res.attempts == 2
        assert report.status == "partial"

    def test_unstored_result_releases_its_lease(self, tmp_path,
                                                monkeypatch):
        """A result the store does not keep (a watchdog abort here; a
        failed write alike) leaves no ``done`` row, so the loop hands the
        lease back: it must not expire later, while another cell still
        runs, and the sweep completes. The patch reaches the workers
        because Linux pools fork."""
        real = fabric_mod.run_experiment

        def slow_seed_2(cfg):
            if cfg.seed == 2:
                time.sleep(1.0)  # heartbeats keep this lease alive
            return real(cfg)

        monkeypatch.setattr(fabric_mod, "run_experiment", slow_seed_2)
        configs = [tiny_cfg(seed=1, max_events=1), tiny_cfg(seed=2)]
        fabric = SweepFabric(
            tmp_path / "journal", store=f"sqlite:{tmp_path}/r.db",
            config=FabricConfig(processes=2, max_retries=1, lease_s=0.3,
                                heartbeat_s=0.05, poll_s=0.01))
        aborted, slow = fabric.run(configs)
        assert aborted.aborted and not slow.aborted
        report = fabric.last_report
        assert report.status == "complete" and report.completed == 2
        assert report.expired_leases == 0 and report.executed == 2
        # The aborted cell is pending again, uncharged: a resume re-runs it.
        rows = sweep_table(tmp_path / "journal")
        assert [(r.state, r.attempt) for r in rows] == [(PENDING, 0),
                                                        (DONE, 1)]


# ------------------------------------------------- kill -9 crash-resume


def _done_and_executions(journal_dir):
    """(cells done, executions per cell) from the sweep's rows."""
    rows = sweep_table(journal_dir)
    return ({r.idx for r in rows if r.state == DONE},
            {r.idx: r.executions for r in rows})


DRIVER = """
import pickle, sys
sys.path.insert(0, {src!r})
from repro.experiments.fabric import SweepFabric, FabricConfig

with open({grid!r}, "rb") as f:
    configs = pickle.load(f)
assert len(configs) == 32
fabric = SweepFabric({journal!r}, store={store!r},
                     config=FabricConfig(processes=2, heartbeat_s=0.2))
fabric.run(configs)
"""


@pytest.mark.slow
class TestCrashResume:
    """The kill -9 acceptance scenario, end to end."""

    def _configs(self):
        return [tiny_cfg(load=load, seed=seed)
                for seed in range(1, 17) for load in (0.3, 0.5)]

    def test_kill9_resume_no_recompute_byte_identical(self, tmp_path):
        """A 32-cell sweep killed mid-flight and resumed re-runs no
        finished cell and merges byte-identical to an uninterrupted run."""
        journal_dir = str(tmp_path / "journal")
        store_spec = f"sqlite:{tmp_path}/results.db"
        grid = tmp_path / "configs.pkl"
        grid.write_bytes(pickle.dumps(self._configs()))
        driver = DRIVER.format(src=SRC, journal=journal_dir,
                               store=store_spec, grid=str(grid))
        # Run the sweep in its own process group so SIGKILL takes the
        # pool workers down with the coordinator — a true host death.
        proc = subprocess.Popen([sys.executable, "-c", driver],
                                start_new_session=True,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        pointer = Path(journal_dir) / "sweep.json"
        deadline = time.time() + 120
        try:
            # Wait until the sweep is genuinely mid-flight: some cells
            # done, the rest pending or leased.
            while time.time() < deadline:
                if proc.poll() is not None:
                    break
                if pointer.exists():
                    dones, _ = _done_and_executions(journal_dir)
                    if len(dones) >= 4:
                        break
                time.sleep(0.02)
            assert pointer.exists(), "sweep never started"
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        dones_before, runs_before = _done_and_executions(journal_dir)
        assert dones_before, "nothing completed before the kill"
        interrupted_mid_flight = len(dones_before) < 32

        # Resume in this process and drive the sweep to completion.
        fabric = SweepFabric(journal_dir,
                             config=FabricConfig(processes=2,
                                                 heartbeat_s=0.2))
        results = fabric.run()
        report = fabric.last_report
        assert report.status == "complete"
        assert report.total == 32 and report.completed == 32
        assert not any(isinstance(r, FailedResult) for r in results)

        # (a) zero re-execution of completed cells: a cell done before
        # the kill never gains another execution.
        dones_after, runs_after = _done_and_executions(journal_dir)
        assert dones_after == set(range(32))
        for idx in dones_before:
            assert runs_after[idx] == runs_before[idx], (
                f"cell {idx} was re-executed after resume")
        if interrupted_mid_flight:
            assert report.executed > 0  # the kill left real work behind

        # (b) byte-identical merge vs an uninterrupted run of the same
        # grid into a fresh sweep directory + store.
        clean = SweepFabric(tmp_path / "journal-clean",
                            store=f"sqlite:{tmp_path}/clean.db",
                            config=FabricConfig(processes=2,
                                                heartbeat_s=0.2))
        expected = clean.run(self._configs())
        assert clean.last_report.status == "complete"
        for got, want in zip(results, expected):
            assert pickle.dumps(got.records) == pickle.dumps(want.records)
            assert pickle.dumps(got.fct()) == pickle.dumps(want.fct())
            assert pickle.dumps(got.fct(small=True)) == \
                pickle.dumps(want.fct(small=True))


# ----------------------------------------------------------- report API


class TestCompletionReport:
    def test_write_and_roundtrip(self, tmp_path):
        report = CompletionReport(
            sweep_id="abc", status="partial", total=3, completed=2,
            failed=[{"index": 1, "key": "k", "error": "E", "attempts": 2,
                     "worker_pid": 9, "wall_seconds": 0.5}],
            executed=4, store_hits=1, retries=1, expired_leases=0,
            wall_seconds=1.5, store="sqlite:x.db",
            store_stats={"stores": 2})
        path = tmp_path / "report.json"
        report.write(path)
        loaded = json.loads(path.read_text())
        assert loaded == report.to_dict()
        assert loaded["failed"][0]["index"] == 1
