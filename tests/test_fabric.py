"""Durable sweep fabric: journal, stores, leases, retries, crash-resume.

The acceptance scenario (ISSUE 6): kill -9 a ≥32-cell sweep mid-flight,
resume it, and get (a) zero re-execution of completed cells and (b) a
merged result set byte-identical to an uninterrupted run; a sweep with
permanently failing cells must still terminate with a partial-completion
report naming them.
"""

import json
import multiprocessing
import os
import pickle
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.experiments.fabric as fabric_mod
from repro.experiments.cache import config_key
from repro.experiments.config import ExperimentConfig, SchemeName
from repro.experiments.fabric import (
    DONE,
    EXHAUSTED,
    LEASED,
    PENDING,
    CompletionReport,
    FabricConfig,
    JournalError,
    SweepFabric,
    SweepJournal,
    append_line,
    retry_delay_s,
    sweep_status,
)
from repro.experiments.parallel import FailedResult, run_many
from repro.experiments.runner import (
    ExperimentResult,
    SwitchCounters,
    run_experiment,
)
from repro.experiments.store import ResultStore, open_store
from repro.metrics.fct import FlowRecord
from repro.sim.units import MILLIS

SRC = str(Path(__file__).resolve().parent.parent / "src")


def tiny_config(**overrides):
    base = dict(scheme=SchemeName.DCTCP, sim_time_ns=1 * MILLIS, load=0.3,
                seed=1)
    base.update(overrides)
    return ExperimentConfig(**base)


def broken_config(**overrides):
    """A config that fails deterministically inside the worker."""
    return tiny_config(workload="no-such-workload", **overrides)


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


# ----------------------------------------------------------------- stores


class TestSqliteStore:
    def test_roundtrip_and_miss(self, tmp_path):
        store = ResultStore(tmp_path / "r.db")
        cfg = tiny_config()
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
        cfg = tiny_config()
        failed = FailedResult(config=cfg, error="boom", traceback="tb")
        assert not store.put(cfg, failed)
        assert not store.put(cfg, synthetic_result(cfg, aborted=True))
        assert store.skipped == 2
        assert store.get(cfg) is None

    def test_salt_partitions_keys(self, tmp_path):
        cfg = tiny_config()
        old = ResultStore(tmp_path / "r.db", salt="code-v1")
        old.put(cfg, synthetic_result(cfg))
        assert old.get(cfg) is not None
        new = ResultStore(tmp_path / "r.db", salt="code-v2")
        assert new.get(cfg) is None

    def test_torn_payload_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path / "r.db")
        cfg = tiny_config()
        store.put(cfg, synthetic_result(cfg))
        with sqlite3.connect(store.path) as conn:
            conn.execute("UPDATE results SET payload = ?",
                         (b"\x80garbage",))
        assert store.get(cfg) is None

    def test_missing_module_payload_reads_as_miss(self, tmp_path):
        """A payload pickled against a since-moved module is a stale-schema
        entry: it must read as a miss, not raise out of get()."""
        store = ResultStore(tmp_path / "r.db")
        cfg = tiny_config()
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
        cfg = tiny_config()

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
        cfg = tiny_config()
        store.put(cfg, synthetic_result(cfg))
        again = open_store(store.spec)
        assert again.get(cfg) is not None


def _hammer(path, start, count, barrier):
    """Concurrent-writer worker: put `count` results, read some back."""
    store = ResultStore(path)
    barrier.wait()  # maximize write overlap across processes
    for i in range(start, start + count):
        cfg = tiny_config(seed=i % 24 + 1)  # overlapping keys across procs
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
            got = store.get(tiny_config(seed=seed))
            assert got is not None
            assert got.records == synthetic_result(
                tiny_config(seed=seed), n_records=20).records
        integrity = sqlite3.connect(path).execute(
            "PRAGMA integrity_check").fetchone()[0]
        assert integrity == "ok"


# ---------------------------------------------------------------- journal


class TestJournal:
    def test_create_then_replay_all_pending(self, tmp_path):
        journal = SweepJournal(tmp_path / "j")
        configs = [tiny_config(seed=s) for s in (1, 2)]
        sweep_id = journal.create(configs, "store-spec")
        assert journal.exists() and len(sweep_id) == 12
        states = journal.replay(2, lease_s=30)
        assert [s.status for s in states] == [PENDING, PENDING]
        grid = journal.load_grid()
        assert grid["store"] == "store-spec"
        assert grid["keys"] == [config_key(c, grid["salt"]) for c in configs]

    def test_create_twice_refuses(self, tmp_path):
        journal = SweepJournal(tmp_path / "j")
        journal.create([tiny_config()], "s")
        with pytest.raises(JournalError, match="already exists"):
            journal.create([tiny_config()], "s")

    def test_replay_state_machine(self, tmp_path):
        journal = SweepJournal(tmp_path / "j")
        journal.create([tiny_config(seed=s) for s in range(1, 5)], "s")
        t = time.time()
        for op in [
            {"op": "lease", "cell": 0, "attempt": 1, "deadline": t + 30},
            {"op": "lease", "cell": 1, "attempt": 1, "deadline": t + 30},
            {"op": "run", "cell": 1, "pid": 42, "attempt": 1, "t": t},
            {"op": "done", "cell": 1, "cached": False, "wall_s": 0.5},
            {"op": "lease", "cell": 2, "attempt": 1, "deadline": t + 30},
            {"op": "fail", "cell": 2, "attempt": 1, "error": "E",
             "tb": "TB", "pid": 7, "wall_s": 0.1},
            {"op": "requeue", "cell": 2, "attempt": 2},
            {"op": "lease", "cell": 3, "attempt": 3, "deadline": t + 30},
            {"op": "exhausted", "cell": 3, "attempts": 3},
        ]:
            journal.append(op)
        states = journal.replay(4, lease_s=30)
        assert states[0].status == LEASED
        assert states[1].status == DONE and states[1].executions == 1
        assert states[2].status == PENDING and states[2].attempts == 1
        assert states[2].error == "E" and states[2].worker_pid == 7
        assert states[3].status == EXHAUSTED and states[3].attempts == 3

    def test_torn_tail_line_is_skipped(self, tmp_path):
        journal = SweepJournal(tmp_path / "j")
        journal.create([tiny_config()], "s")
        journal.append({"op": "done", "cell": 0, "cached": False})
        with open(journal.journal_path, "ab") as fh:
            fh.write(b'{"op":"fail","cell":0,"err')  # crash mid-append
        states = journal.replay(1, lease_s=30)
        assert states[0].status == DONE

    def test_heartbeat_extends_lease(self, tmp_path):
        journal = SweepJournal(tmp_path / "j")
        journal.create([tiny_config()], "s")
        t = time.time()
        journal.append({"op": "lease", "cell": 0, "attempt": 1,
                        "deadline": t + 5, "t": t})
        journal.append({"op": "hb", "cell": 0, "pid": 1, "t": t + 100})
        states = journal.replay(1, lease_s=5)
        assert states[0].deadline == pytest.approx(t + 105)

    def test_replay_ignores_stale_zombie_verdicts(self, tmp_path):
        """An expired attempt's worker cannot be cancelled; its late
        `done`/`fail` lines (landing after `exhausted` or after the
        retry's verdict) must not rewrite the cell's state."""
        journal = SweepJournal(tmp_path / "j")
        journal.create([tiny_config(seed=s) for s in (1, 2)], "s")
        t = time.time()
        for op in [
            # cell 0: attempt 1 expires and the cell is exhausted; the
            # zombie's late `done` must not flip the verdict.
            {"op": "lease", "cell": 0, "attempt": 1, "deadline": t + 1},
            {"op": "expire", "cell": 0, "attempt": 1},
            {"op": "exhausted", "cell": 0, "attempts": 1},
            {"op": "done", "cell": 0, "attempt": 1, "cached": False},
            # cell 1: attempt 1 expires, attempt 2 succeeds; the zombie's
            # late `fail` must not resurrect the failure.
            {"op": "lease", "cell": 1, "attempt": 1, "deadline": t + 1},
            {"op": "expire", "cell": 1, "attempt": 1},
            {"op": "requeue", "cell": 1, "attempt": 2},
            {"op": "lease", "cell": 1, "attempt": 2, "deadline": t + 1},
            {"op": "done", "cell": 1, "attempt": 2, "cached": False},
            {"op": "fail", "cell": 1, "attempt": 1, "error": "zombie"},
        ]:
            journal.append(op)
        states = journal.replay(2, lease_s=30)
        assert states[0].status == EXHAUSTED
        assert states[0].stale_verdicts == 1
        assert states[1].status == DONE
        assert states[1].stale_verdicts == 1

    def test_verify_grid_catches_keying_drift(self, tmp_path):
        journal = SweepJournal(tmp_path / "j")
        journal.create([tiny_config()], "s")
        grid = journal.load_grid()
        grid["keys"] = ["0" * 64]
        with pytest.raises(JournalError, match="no longer match"):
            journal.verify_grid(grid)

    def test_append_line_is_one_json_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_line(path, {"op": "hb", "cell": 1})
        append_line(path, {"op": "hb", "cell": 2}, sync=True)
        lines = path.read_text().splitlines()
        assert [json.loads(ln)["cell"] for ln in lines] == [1, 2]


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
        clean = tiny_config(seed=5)
        configs = [clean, broken_config(seed=2), tiny_config(seed=5)]
        store = open_store(tmp_path / "r.db")
        journal = None
        if journaled:
            journal = SweepJournal(tmp_path / "journal")
            journal.create(configs, store.spec)
        policy = FabricConfig(processes=processes, max_retries=2,
                              heartbeat_s=0.2)
        results, counts = fabric_mod.run_cells(configs, store, policy,
                                               journal=journal)
        direct = run_experiment(clean)
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
            states = journal.replay(len(configs), policy.lease_s)
            assert [st.status for st in states] == [DONE, EXHAUSTED, DONE]
            assert sum(st.executions for st in states) == 1 + 3


# ------------------------------------------------------------ the fabric


def _stalled_cell(item):
    """Pool-task stand-in for a wedged worker: no journal lines, no exit."""
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
        configs = [tiny_config(seed=s) for s in (1, 2, 3)]
        fabric = self.fabric(tmp_path)
        results = fabric.run(configs)
        assert [r.config.seed for r in results] == [1, 2, 3]
        assert not any(isinstance(r, FailedResult) for r in results)
        report = fabric.last_report
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
        fabric.run([tiny_config(seed=s) for s in (1, 2)],
                   progress=lambda d, t: calls.append((d, t)))
        assert calls[-1] == (2, 2)

    def test_resume_recomputes_nothing(self, tmp_path):
        configs = [tiny_config(seed=s) for s in (1, 2, 3)]
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
        cfg = tiny_config(seed=5)
        fabric = self.fabric(tmp_path)
        results = fabric.run([cfg, tiny_config(seed=6), cfg])
        assert fabric.last_report.executed == 2
        assert results[0].records == results[2].records

    def test_partial_completion_lists_failed_cells(self, tmp_path):
        configs = [tiny_config(seed=1), broken_config(seed=2),
                   tiny_config(seed=3)]
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

    def test_store_loss_requeues_done_cells(self, tmp_path):
        configs = [tiny_config(seed=s) for s in (1, 2)]
        fabric = self.fabric(tmp_path)
        first = fabric.run(configs)
        os.unlink(tmp_path / "results.db")
        resumed = SweepFabric(tmp_path / "journal",
                              config=FabricConfig(processes=1))
        res2 = resumed.run()
        assert resumed.last_report.executed == 2
        for a, b in zip(first, res2):
            assert a.records == b.records

    def test_mismatched_grid_raises(self, tmp_path):
        fabric = self.fabric(tmp_path)
        fabric.run([tiny_config(seed=1)])
        with pytest.raises(JournalError, match="do not match"):
            SweepFabric(tmp_path / "journal").run([tiny_config(seed=99)])

    def test_resume_without_journal_raises(self, tmp_path):
        with pytest.raises(JournalError, match="no sweep to resume"):
            SweepFabric(tmp_path / "nope").run()

    def test_default_store_is_one_file_in_the_journal(self, tmp_path):
        fabric = SweepFabric(tmp_path / "journal",
                             config=FabricConfig(processes=1))
        fabric.run([tiny_config(seed=1)])
        assert fabric.last_report.store == f"sqlite:{tmp_path}/journal/store.db"
        assert len(open_store(tmp_path / "journal" / "store.db")) == 1

    def test_resume_rejects_a_recorded_directory_store(self, tmp_path):
        """A journal started before the directory format was retired names
        a directory in its grid.pkl: resuming it is a precise JournalError,
        and an explicit ``store=`` resumes it against a new file."""
        (tmp_path / "journal" / "store").mkdir(parents=True)
        configs = [tiny_config(seed=1)]
        SweepJournal(tmp_path / "journal").create(
            configs, str(tmp_path / "journal" / "store"))
        with pytest.raises(JournalError,
                           match="directory store format was retired"):
            SweepFabric(tmp_path / "journal").run()
        resumed = SweepFabric(tmp_path / "journal",
                              store=f"sqlite:{tmp_path}/fresh.db",
                              config=FabricConfig(processes=1))
        assert not isinstance(resumed.run()[0], FailedResult)

    def test_sweep_status_reflects_journal(self, tmp_path):
        configs = [tiny_config(seed=1), broken_config(seed=2)]
        fabric = self.fabric(tmp_path, max_retries=0)
        fabric.run(configs)
        status = sweep_status(tmp_path / "journal")
        assert status["cells"] == 2
        assert status["by_status"] == {DONE: 1, EXHAUSTED: 1}
        assert status["exhausted"][0]["index"] == 1
        assert status["last_report"]["status"] == "partial"

    def test_pool_path_matches_serial(self, tmp_path):
        configs = [tiny_config(seed=s) for s in (1, 2, 3, 4)]
        serial = self.fabric(tmp_path).run(configs)
        pooled_fabric = SweepFabric(
            tmp_path / "journal2", store=f"sqlite:{tmp_path}/r2.db",
            config=FabricConfig(processes=2, heartbeat_s=0.2))
        pooled = pooled_fabric.run(configs)
        assert pooled_fabric.last_report.status == "complete"
        for a, b in zip(serial, pooled):
            assert a.records == b.records
            assert pickle.dumps(a.fct()) == pickle.dumps(b.fct())

    def test_pool_dispatch_capped_at_pool_size(self, tmp_path):
        """Leases are only taken when a worker slot is free. Dispatching
        the whole backlog at once would start every lease at submit time,
        so any cell whose pool-queue wait exceeded lease_s was falsely
        expired without ever running."""
        configs = [tiny_config(seed=s) for s in range(1, 7)]
        fabric = SweepFabric(
            tmp_path / "journal", store=f"sqlite:{tmp_path}/r.db",
            config=FabricConfig(processes=2, heartbeat_s=0.2))
        fabric.run(configs)
        report = fabric.last_report
        assert report.status == "complete"
        assert report.expired_leases == 0
        assert report.duplicate_executions == 0
        # Replay lease/verdict ordering from the journal: in-flight
        # cells (leased, no verdict yet) never exceed the pool size.
        inflight = 0
        max_inflight = 0
        journal_path = tmp_path / "journal" / "journal.jsonl"
        for line in journal_path.read_bytes().splitlines():
            op = json.loads(line)
            if op.get("op") == "lease":
                inflight += 1
                max_inflight = max(max_inflight, inflight)
            elif op.get("op") in ("done", "fail", "expire"):
                inflight -= 1
        assert max_inflight <= 2

    def test_resume_serves_exhausted_cell_from_store(self, tmp_path):
        """A cell written off as exhausted whose zombie attempt later
        stored a valid result is served from the store on resume instead
        of re-reporting the self-healed failure."""
        configs = [tiny_config(seed=1), broken_config(seed=2)]
        fabric = self.fabric(tmp_path, max_retries=0)
        results = fabric.run(configs)
        assert isinstance(results[1], FailedResult)
        grid = SweepJournal(tmp_path / "journal").load_grid()
        store = open_store(grid["store"], salt=grid["salt"])
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
        # The salvage is journaled: a further resume sees both cells DONE.
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
        configs = [tiny_config(seed=1), tiny_config(seed=2)]
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


# ------------------------------------------------- kill -9 crash-resume


def _journal_cell_counts(journal_path):
    """(runs, dones) per cell from raw journal bytes."""
    runs, dones = {}, {}
    for line in Path(journal_path).read_bytes().splitlines():
        try:
            op = json.loads(line)
        except ValueError:
            continue
        if op.get("op") == "run":
            runs[op["cell"]] = runs.get(op["cell"], 0) + 1
        elif op.get("op") == "done":
            dones[op["cell"]] = dones.get(op["cell"], 0) + 1
    return runs, dones


DRIVER = """
import sys
sys.path.insert(0, {src!r})
from repro.experiments.config import ExperimentConfig, SchemeName
from repro.experiments.fabric import SweepFabric, FabricConfig
from repro.sim.units import MILLIS

configs = [
    ExperimentConfig(scheme=SchemeName.DCTCP, sim_time_ns=2 * MILLIS,
                     load=load, seed=seed)
    for seed in range(1, 17) for load in (0.3, 0.5)
]
assert len(configs) == 32
fabric = SweepFabric({journal!r}, store={store!r},
                     config=FabricConfig(processes=2, heartbeat_s=0.2))
fabric.run(configs)
"""


@pytest.mark.slow
class TestCrashResume:
    """The ISSUE 6 acceptance scenario, end to end."""

    def _configs(self):
        return [
            ExperimentConfig(scheme=SchemeName.DCTCP, sim_time_ns=2 * MILLIS,
                             load=load, seed=seed)
            for seed in range(1, 17) for load in (0.3, 0.5)
        ]

    def test_kill9_resume_no_recompute_byte_identical(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        store_spec = f"sqlite:{tmp_path}/results.db"
        driver = DRIVER.format(src=SRC, journal=journal_dir,
                               store=store_spec)
        # Run the sweep in its own process group so SIGKILL takes the
        # pool workers down with the coordinator — a true host death.
        proc = subprocess.Popen([sys.executable, "-c", driver],
                                start_new_session=True,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        journal_path = Path(journal_dir) / "journal.jsonl"
        deadline = time.time() + 120
        try:
            # Wait until the sweep is genuinely mid-flight: some cells
            # done, the rest pending or leased.
            while time.time() < deadline:
                if proc.poll() is not None:
                    break
                if journal_path.exists():
                    _, dones = _journal_cell_counts(journal_path)
                    if len(dones) >= 4:
                        break
                time.sleep(0.02)
            assert journal_path.exists(), "sweep never started"
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        runs_before, dones_before = _journal_cell_counts(journal_path)
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

        # (a) zero re-execution of completed cells: a cell that reached
        # `done` before the kill never gains another `run` line.
        runs_after, dones_after = _journal_cell_counts(journal_path)
        assert set(dones_after) == set(range(32))
        for cell in dones_before:
            assert runs_after.get(cell, 0) == runs_before.get(cell, 0), (
                f"cell {cell} was re-executed after resume")
        if interrupted_mid_flight:
            assert report.executed > 0  # the kill left real work behind

        # (b) byte-identical merge vs an uninterrupted run of the same
        # grid into a fresh journal + store.
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
