"""Result caching: keying, invalidation, and the run_many integration.

The store must never serve a wrong result (any config perturbation or code
salt change produces a different key), must never cache failures, and a
cached sweep must be indistinguishable from a fresh one — identical records
and identical summaries, in config order.
"""

import dataclasses
import pickle
import random
import sqlite3

import pytest

from repro.audit import AuditConfig
from repro.experiments.cache import DEFAULT_CODE_SALT, config_key
from repro.experiments.config import QueueSettings, SchemeName
import repro.experiments.fabric as fabric_mod
from repro.experiments.parallel import FailedResult, run_many
from repro.experiments.runner import (
    ExperimentResult,
    SwitchCounters,
    run_experiment,
)
from repro.experiments.store import open_store
from repro.faults.spec import FaultPlan, LinkLossSpec
from repro.metrics.fct import FlowRecord, PackedFlowRecords
from repro.metrics.telemetry import TelemetryConfig

from tests.util import cell, tiny_cfg


def make_records(n=100, seed=0):
    rng = random.Random(seed)
    return [
        FlowRecord(
            flow_id=i, scheme="flexpass", group=rng.choice(["legacy", "new"]),
            role=rng.choice(["bg", "fg"]), size_bytes=rng.randrange(1 << 20),
            start_ns=rng.randrange(1 << 40), fct_ns=rng.randrange(-1, 1 << 40),
            timeouts=rng.randrange(3), retransmissions=rng.randrange(5),
            credits_sent=rng.randrange(1000), credits_wasted=rng.randrange(100),
            duplicate_bytes=rng.randrange(1 << 16),
            max_reorder_bytes=rng.randrange(1 << 16),
            proactive_bytes=rng.randrange(1 << 20),
            reactive_bytes=rng.randrange(1 << 20),
        )
        for i in range(n)
    ]


class TestPackedRecords:
    def test_roundtrip_exact(self):
        records = make_records(137)
        packed = PackedFlowRecords.pack(records)
        assert len(packed) == 137
        assert packed.unpack() == records

    def test_empty(self):
        packed = PackedFlowRecords.pack([])
        assert len(packed) == 0
        assert packed.unpack() == []

    def test_pickle_roundtrip(self):
        """The worker→parent hop: packed columns must survive pickling."""
        records = make_records(2000)
        packed = PackedFlowRecords.pack(records)
        wired = pickle.loads(pickle.dumps(packed,
                                          protocol=pickle.HIGHEST_PROTOCOL))
        assert wired.unpack() == records


class TestConfigKey:
    def test_stable_across_equal_configs(self):
        assert config_key(tiny_cfg()) == config_key(tiny_cfg())

    def test_every_perturbation_changes_key(self):
        base = tiny_cfg()
        perturbed = [
            base.with_(seed=2),
            base.with_(load=0.31),
            base.with_(scheme=SchemeName.DCTCP),
            base.with_(sim_time_ns=base.sim_time_ns + 1),
            base.with_(queues=QueueSettings(wq=0.25)),
            base.with_(faults=FaultPlan(losses=(LinkLossSpec(rate=0.01),))),
            base.with_(clos=dataclasses.replace(base.clos,
                                                hosts_per_tor=base.clos.hosts_per_tor + 1)),
        ]
        keys = {config_key(c) for c in perturbed}
        assert config_key(base) not in keys
        assert len(keys) == len(perturbed)

    def test_salt_changes_key(self):
        cfg = tiny_cfg()
        assert (config_key(cfg, salt="code-v1")
                != config_key(cfg, salt="code-v2"))

    def test_env_salt_overrides_default(self, monkeypatch):
        cfg = tiny_cfg()
        default_key = config_key(cfg)
        monkeypatch.setenv("REPRO_CACHE_SALT", DEFAULT_CODE_SALT + "-bumped")
        assert config_key(cfg) != default_key


class _FullDisk(sqlite3.Connection):
    """A connection whose every INSERT hits a full disk."""

    def execute(self, sql, *args):
        if sql.lstrip().startswith("INSERT"):
            raise sqlite3.OperationalError("database or disk is full")
        return super().execute(sql, *args)


class TestExperimentCache:
    """The ``cache=`` contract, through ``open_store`` on a bare path."""

    def _result(self, cfg, aborted=False):
        return ExperimentResult(
            config=cfg, records=make_records(40), counters=SwitchCounters(),
            events_run=1234, wall_seconds=0.1, aborted=aborted,
            abort_reason="watchdog" if aborted else "",
        )

    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = open_store(tmp_path / "r.db")
        cfg = tiny_cfg()
        assert cache.get(cfg) is None
        result = self._result(cfg)
        assert cache.put(cfg, result)
        loaded = cache.get(cfg)
        assert loaded is not None
        assert loaded.records == result.records
        assert loaded.events_run == result.events_run
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1,
                                 "skipped": 0, "write_errors": 0}

    def test_perturbed_config_misses(self, tmp_path):
        cache = open_store(tmp_path / "r.db")
        cfg = tiny_cfg()
        cache.put(cfg, self._result(cfg))
        assert cache.get(cfg.with_(seed=99)) is None

    def test_salt_bump_invalidates(self, tmp_path):
        cfg = tiny_cfg()
        old = open_store(tmp_path / "r.db", salt="code-v1")
        old.put(cfg, self._result(cfg))
        assert old.get(cfg) is not None
        new = open_store(tmp_path / "r.db", salt="code-v2")
        assert new.get(cfg) is None

    def test_failed_result_never_cached(self, tmp_path):
        cache = open_store(tmp_path / "r.db")
        cfg = tiny_cfg()
        failed = FailedResult(config=cfg, error="boom", traceback="tb")
        assert not cache.put(cfg, failed)
        assert cache.get(cfg) is None
        assert cache.skipped == 1

    def test_aborted_result_never_cached(self, tmp_path):
        cache = open_store(tmp_path / "r.db")
        cfg = tiny_cfg()
        assert not cache.put(cfg, self._result(cfg, aborted=True))
        assert cache.get(cfg) is None

    def test_torn_entry_reads_as_miss(self, tmp_path):
        cache = open_store(tmp_path / "r.db")
        cfg = tiny_cfg()
        cache.put(cfg, self._result(cfg))
        with sqlite3.connect(tmp_path / "r.db") as conn:
            conn.execute("UPDATE results SET payload = ?", (b"\x80garbage",))
        assert cache.get(cfg) is None

    def test_write_failure_is_loud_but_nonfatal(self, tmp_path, monkeypatch,
                                                caplog):
        """A full or read-only disk must not crash the sweep *or* pass
        silently: put() returns False, counts the incident, and warns."""
        import logging

        real_connect = sqlite3.connect
        monkeypatch.setattr(
            sqlite3, "connect",
            lambda *a, **kw: real_connect(*a, factory=_FullDisk, **kw))
        cache = open_store(tmp_path / "r.db")
        cfg = tiny_cfg()
        with caplog.at_level(logging.WARNING, logger="repro.experiments.store"):
            assert cache.put(cfg, self._result(cfg)) is False
        assert cache.write_errors == 1
        assert cache.stores == 0
        assert "write failed" in caplog.text
        # The sweep-facing contract: run_many keeps going and still
        # returns the in-memory result.
        results = run_many([tiny_cfg(seed=7)], processes=1,
                           cache=str(tmp_path / "doomed.db"))
        assert not isinstance(results[0], FailedResult)


class TestRunManyStreaming:
    def test_order_contract_parallel(self):
        configs = [tiny_cfg(seed=s) for s in (5, 3, 8, 1)]
        results = run_many(configs, processes=2)
        assert len(results) == len(configs)
        for cfg, result in zip(configs, results):
            assert not isinstance(result, FailedResult)
            assert result.config.seed == cfg.seed

    def test_progress_called_for_every_config(self):
        configs = [tiny_cfg(seed=s) for s in (1, 2, 3)]
        calls = []
        run_many(configs, processes=1,
                 progress=lambda done, total: calls.append((done, total)))
        assert calls == [(1, 3), (2, 3), (3, 3)]

    def test_cached_rerun_skips_simulation(self, tmp_path, monkeypatch):
        """Second run over the same configs must not simulate at all."""
        configs = [tiny_cfg(seed=s) for s in (1, 2, 3)]
        cache = open_store(tmp_path / "r.db")
        first = run_many(configs, processes=1, cache=cache)
        assert cache.stores == len(configs)

        def explode(cfg):
            raise AssertionError("simulated despite cache hit")

        monkeypatch.setattr(fabric_mod, "run_experiment", explode)
        second = run_many(configs, processes=1, cache=cache)
        assert cache.hits == len(configs)
        for a, b in zip(first, second):
            assert a.records == b.records
            assert a.fct().avg_ms == b.fct().avg_ms

    def test_cache_accepts_bare_file_path(self, tmp_path):
        configs = [tiny_cfg(seed=1)]
        run_many(configs, processes=1, cache=str(tmp_path / "cache.db"))
        assert len(open_store(f"sqlite:{tmp_path}/cache.db")) == 1

    @pytest.mark.slow
    def test_32_config_sweep_cache_round(self, tmp_path):
        """The acceptance scenario: a 32-config Clos sweep, run twice with a
        cache; the second pass is all hits with byte-identical summaries."""
        configs = [
            tiny_cfg(seed=seed, load=load)
            for seed in range(1, 17) for load in (0.2, 0.4)
        ]
        assert len(configs) == 32
        cache = open_store(tmp_path / "r.db")
        first = run_many(configs, cache=cache)
        assert len(cache) == 32  # whichever process computed a cell stored it
        assert not any(isinstance(r, FailedResult) for r in first)
        second = run_many(configs, cache=cache)
        assert cache.hits == 32
        for a, b in zip(first, second):
            assert pickle.dumps(a.fct()) == pickle.dumps(b.fct())
            assert pickle.dumps(a.fct(small=True)) == pickle.dumps(b.fct(small=True))
            assert a.records == b.records


class TestCellPool:
    def test_cell_is_a_private_copy_of_the_run(self):
        """``tests.util.cell`` serves what ``run_experiment`` returns, through
        the store's own encoding, as a fresh copy on every call."""
        cfg = tiny_cfg(
            telemetry=TelemetryConfig(interval_ns=100_000),
            audit=AuditConfig(digest=True, checkpoint_interval_ns=None))
        # re-run: the pool's copy is checked against a fresh simulation
        fresh = run_experiment(cfg)
        assert fresh.records and fresh.audit.digest is not None
        a, b = cell(cfg), cell(cfg)
        for got in (a, b):
            assert pickle.dumps(got.records) == pickle.dumps(fresh.records)
            assert pickle.dumps(got.fct()) == pickle.dumps(fresh.fct())
            assert pickle.dumps(got.fct(small=True)) == \
                pickle.dumps(fresh.fct(small=True))
            assert got.events_run == fresh.events_run
            assert got.telemetry == fresh.telemetry
            assert got.audit.digest == fresh.audit.digest
        assert a is not b and a.records is not b.records
        a.records.clear()
        assert cell(cfg).records == fresh.records
