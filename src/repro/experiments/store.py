"""The store file: experiment results, and the state of every durable sweep.

Every sweep path — ``run_many(cache=...)``, :class:`SweepFabric`, ``repro
topo run --store`` — keeps its results in a :class:`ResultStore`, one
WAL-mode SQLite file that many worker processes (or hosts sharing a
filesystem) write concurrently and that ships as one artefact:

* ``results`` — one row per key, the salted content hash of a config
  (:func:`repro.experiments.cache.config_key`), holding the pickled
  ``(result-without-records, PackedFlowRecords)`` a worker also sends its
  parent. ``get``/``put`` hash a config; the sweep loop, which hashed it
  already, calls ``get_by_key``/``put_by_key``. Torn or stale payloads
  and locked reads are misses; failed and aborted results are never
  stored; a failed write (full disk, locked database) is a warning and a
  ``write_errors`` count, not a crash.
* ``cells`` — one row per cell of a durable sweep (:class:`SweepCells`):
  each transition is one SQL statement, and a cell's ``done`` verdict
  commits in its result row's transaction (DESIGN.md §6g).

``open_store`` takes ``sqlite:PATH``, a bare file path, or a store.
Workers receive the spec string and open their own handle; SQLite
connections never cross ``fork``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
import os
import pickle
import sqlite3
import threading
import time
from pathlib import Path
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from repro.experiments.cache import config_key
from repro.experiments.runner import ExperimentResult, FailedResult
from repro.metrics.fct import PackedFlowRecords

logger = logging.getLogger(__name__)

#: Optional spec prefix; ``sqlite:PATH`` and a bare ``PATH`` are the same store.
SQLITE_PREFIX = "sqlite:"


def encode_result(result: ExperimentResult) -> bytes:
    """Serialize a clean result to the canonical payload bytes.

    Flow records are packed into typed columns first: tens of thousands of
    dataclasses become a handful of contiguous buffers.
    """
    packed = PackedFlowRecords.pack(result.records)
    stripped = dataclasses.replace(result, records=[])
    return pickle.dumps((stripped, packed), protocol=pickle.HIGHEST_PROTOCOL)


def decode_result(payload: bytes) -> ExperimentResult:
    """Inverse of :func:`encode_result`. Raises on torn payloads — callers
    translate that into a cache miss."""
    stripped, packed = pickle.loads(payload)
    return dataclasses.replace(stripped, records=packed.unpack())


#: Exceptions that mean "this payload is torn or from an old schema" (a
#: renamed class, a moved module, a removed enum member): a miss.
DECODE_ERRORS = (pickle.UnpicklingError, ValueError, EOFError,
                 AttributeError, TypeError, IndexError, ImportError,
                 KeyError)


class ResultStore:
    """Single-file SQLite result store, safe for concurrent writers.

    WAL lets readers proceed while a writer commits; a generous busy
    timeout and one transaction per write make a worker pool's concurrent
    writes safe (the last writer of a key wins, and every writer of a key
    holds the same bytes — the key is the content hash of the config).
    Connections are opened lazily per ``(process, thread)``.
    """

    def __init__(self, path: Union[str, Path], salt: Optional[str] = None,
                 timeout_s: float = 30.0):
        self.path = Path(path)
        if self.path.is_dir():
            raise ValueError(
                f"result store {self.path} is a directory: the directory "
                f"store format was retired, results live in one SQLite "
                f"file — name a file (e.g. {self.path / 'store.db'})")
        self.salt = salt
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.skipped = 0       # puts refused (failed/aborted results)
        self.write_errors = 0  # puts that hit a media error (disk full, ...)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: spec string that reopens this store in another process
        self.spec = f"{SQLITE_PREFIX}{self.path}"
        self.timeout_s = timeout_s
        self._local = threading.local()
        self._pid = os.getpid()
        # Create the schema eagerly so a bad path fails at construction,
        # not mid-sweep.
        self._conn()

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS results (
        key        TEXT PRIMARY KEY,
        created_s  REAL NOT NULL,
        n_bytes    INTEGER NOT NULL,
        payload    BLOB NOT NULL
    )
    """

    def _conn(self) -> sqlite3.Connection:
        if os.getpid() != self._pid:
            # Forked child: drop inherited state; sqlite handles must not
            # cross fork.
            self._local = threading.local()
            self._pid = os.getpid()
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(self.path, timeout=self.timeout_s)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(self._SCHEMA)
            conn.commit()
            self._local.conn = conn
        return conn

    def key(self, config) -> str:
        return config_key(config, self.salt)

    # ----------------------------------------------------------- get/put

    def get(self, config) -> Optional[ExperimentResult]:
        """Return the stored result for ``config``, or None on a miss."""
        return self.get_by_key(self.key(config))

    def get_by_key(self, key: str) -> Optional[ExperimentResult]:
        """Return the result stored under ``key``, or None on a miss."""
        try:
            row = self._conn().execute(
                "SELECT payload FROM results WHERE key = ?", (key,)).fetchone()
            # A torn or stale-schema entry reads as a miss; the fresh run
            # will overwrite it. So does a locked or corrupted database:
            # writes will surface the problem.
            result = decode_result(row[0]) if row else None
        except DECODE_ERRORS + (sqlite3.Error,):
            result = None
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, config, result) -> bool:
        """Store a clean result for ``config``; see :meth:`put_by_key`."""
        return self.put_by_key(self.key(config), result)

    def put_by_key(self, key: str, result,
                   cell: Optional[Tuple[str, int, int, float]] = None) -> bool:
        """Store a clean result; returns True iff it was durably written.

        Failed and aborted results are never stored — they are exactly the
        runs a retry might fix. A media error (disk full, read-only mount,
        database locked past its timeout) is logged and counted, not
        raised: a dying disk degrades a sweep loudly, never kills it.

        ``cell=(sweep_id, idx, attempt, wall_s)`` commits that cell's
        ``done`` verdict in the result's transaction, only while
        ``attempt`` holds the lease: a done cell always has its result,
        and a superseded attempt stores its (equally valid) result
        without touching the row.
        """
        if not isinstance(result, ExperimentResult) or result.aborted:
            self.skipped += 1
            return False
        payload = encode_result(result)
        try:
            with self._conn() as conn:  # one transaction per result
                if cell is not None:
                    sweep_id, idx, attempt, wall_s = cell
                    conn.execute(
                        "UPDATE cells SET state = 'done', lease_until = NULL,"
                        " wall_s = ? WHERE sweep_id = ? AND idx = ?"
                        " AND attempt = ? AND state = 'leased'",
                        (wall_s, sweep_id, idx, attempt))
                conn.execute(
                    "INSERT OR REPLACE INTO results "
                    "(key, created_s, n_bytes, payload) VALUES (?, ?, ?, ?)",
                    (key, time.time(), len(payload), sqlite3.Binary(payload)))
        except (OSError, sqlite3.Error) as exc:
            self.write_errors += 1
            logger.warning(
                "result-store write failed (%d so far) for key %s on %s: %s "
                "— result kept in memory; this config will recompute next "
                "sweep", self.write_errors, key[:12], self.spec, exc)
            return False
        self.stores += 1
        return True

    def close(self) -> None:
        """Release this thread's handle; the store reopens on next use."""
        conn = getattr(self._local, "conn", None)
        if conn is not None and os.getpid() == self._pid:
            conn.close()
            self._local.conn = None

    # -------------------------------------------------------------- stats

    def stats(self) -> dict:
        return {name: getattr(self, name) for name in
                ("hits", "misses", "stores", "skipped", "write_errors")}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ResultStore {self.spec} hits={self.hits} "
                f"misses={self.misses} stores={self.stores} "
                f"write_errors={self.write_errors}>")

    def __len__(self) -> int:
        return self._conn().execute(
            "SELECT COUNT(*) FROM results").fetchone()[0]


StoreSpec = Union[str, os.PathLike, ResultStore]


def store_path(spec: StoreSpec) -> Path:
    """The file a store spec names."""
    if isinstance(spec, ResultStore):
        return spec.path
    return Path(os.fspath(spec).removeprefix(SQLITE_PREFIX))


def open_store(spec: StoreSpec, salt: Optional[str] = None) -> ResultStore:
    """Open ``sqlite:PATH``, a bare file path, or return a store as is. An
    existing directory (the retired one-pickle-per-key format) raises
    ``ValueError``."""
    if isinstance(spec, ResultStore):
        return spec
    return ResultStore(store_path(spec), salt=salt)


class JournalError(RuntimeError):
    """A durable sweep's record is missing, unreadable, or mismatched."""


#: States of a row of the ``cells`` table.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
EXHAUSTED = "exhausted"

#: A failed or expired attempt re-queues its cell until it has spent its
#: extra attempts (the ``?`` is ``max_retries``), then exhausts it.
_FAILED = ("state = CASE WHEN attempt > ? THEN 'exhausted' ELSE 'pending' "
           "END, lease_until = NULL")


class CellRow(NamedTuple):
    """One cell as a resumed sweep starts from it."""

    key: str
    config: object
    state: str
    attempt: int
    error: str
    traceback: str
    worker_pid: int
    wall_s: float


class SweepCells:
    """One durable sweep's rows of the store's ``cells`` table.

    A row goes ``pending`` → ``leased`` (by the loop, for one numbered
    attempt) → ``done`` (by the worker, in its result's transaction: see
    :meth:`ResultStore.put_by_key`), or back to ``pending`` / on to
    ``exhausted`` when the attempt fails or its lease expires. Every
    method is one SQL statement, and every statement a superseded attempt
    could issue is guarded by ``attempt = ?``, so such an attempt never
    changes a row.
    """

    #: Created by durable sweeps only: ``run_many`` writes ``results`` alone.
    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS cells (
        sweep_id    TEXT NOT NULL,
        idx         INTEGER NOT NULL,
        key         TEXT NOT NULL,
        config      BLOB NOT NULL,
        state       TEXT NOT NULL DEFAULT 'pending',
        attempt     INTEGER NOT NULL DEFAULT 0,
        executions  INTEGER NOT NULL DEFAULT 0,
        lease_until REAL,
        worker_pid  INTEGER NOT NULL DEFAULT 0,
        error       TEXT NOT NULL DEFAULT '',
        traceback   TEXT NOT NULL DEFAULT '',
        wall_s      REAL NOT NULL DEFAULT 0,
        PRIMARY KEY (sweep_id, idx)
    )
    """

    def __init__(self, store: ResultStore, sweep_id: str):
        self.store = store
        self.sweep_id = sweep_id
        store._conn().execute(self._SCHEMA)

    def _update(self, sql: str, *args) -> int:
        with self.store._conn() as conn:
            return conn.execute(sql, args).rowcount

    def create(self, keys: Sequence[str], configs: Sequence) -> None:
        """Insert one ``pending`` row per cell, in one transaction."""
        rows = [(self.sweep_id, i, key,
                 pickle.dumps(cfg, protocol=pickle.HIGHEST_PROTOCOL))
                for i, (key, cfg) in enumerate(zip(keys, configs))]
        try:
            with self.store._conn() as conn:
                conn.executemany("INSERT INTO cells (sweep_id, idx, key, "
                                 "config) VALUES (?, ?, ?, ?)", rows)
        except sqlite3.IntegrityError:
            raise JournalError(f"sweep {self.sweep_id} already exists in "
                               f"{self.store.spec}") from None

    def load(self) -> List[CellRow]:
        """Resume: re-queue every interrupted lease without charging its
        attempt (no verdict refuted it), then read the rows in grid order."""
        with self.store._conn() as conn:
            conn.execute(
                "UPDATE cells SET state = 'pending', attempt = attempt - 1, "
                "lease_until = NULL WHERE sweep_id = ? AND state = 'leased'",
                (self.sweep_id,))
            rows = conn.execute(
                "SELECT key, config, state, attempt, error, traceback, "
                "worker_pid, wall_s FROM cells WHERE sweep_id = ? "
                "ORDER BY idx", (self.sweep_id,)).fetchall()
        try:
            return [CellRow(key, pickle.loads(cfg), *rest)
                    for key, cfg, *rest in rows]
        except DECODE_ERRORS as exc:
            raise JournalError(f"sweep {self.sweep_id} in {self.store.spec} "
                               f"records configs this code cannot read "
                               f"({exc!r}); start a fresh sweep") from None

    def lease(self, idx: int, attempt: int, lease_s: float) -> bool:
        """Lease a pending cell to ``attempt``; False if it is not pending."""
        return self._update(
            "UPDATE cells SET state = 'leased', attempt = ?, lease_until = ?,"
            " worker_pid = 0 WHERE sweep_id = ? AND idx = ?"
            " AND state = 'pending'",
            attempt, time.time() + lease_s, self.sweep_id, idx) == 1

    def started(self, idx: int, attempt: int, pid: int,
                lease_s: float) -> None:
        """A worker began simulating ``attempt``: count the execution."""
        self._update(
            "UPDATE cells SET executions = executions + 1, worker_pid = ?,"
            " lease_until = ? WHERE sweep_id = ? AND idx = ? AND attempt = ?"
            " AND state = 'leased'",
            pid, time.time() + lease_s, self.sweep_id, idx, attempt)

    @contextlib.contextmanager
    def running(self, idx: int, attempt: int, lease_s: float,
                heartbeat_s: float) -> Iterator[None]:
        """Count an execution of ``attempt`` and keep renewing its lease
        every ``heartbeat_s`` until the block exits."""
        self.started(idx, attempt, os.getpid(), lease_s)
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(heartbeat_s):
                with contextlib.suppress(sqlite3.Error):  # costs a re-queue
                    self.heartbeat(idx, attempt, lease_s)
            self.store.close()  # this thread's connection

        thread = threading.Thread(target=beat, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join(timeout=heartbeat_s + 1.0)

    def heartbeat(self, idx: int, attempt: int, lease_s: float) -> bool:
        """Renew ``attempt``'s lease; False if it no longer holds one."""
        return self._update(
            "UPDATE cells SET lease_until = ? WHERE sweep_id = ? AND idx = ?"
            " AND attempt = ? AND state = 'leased'",
            time.time() + lease_s, self.sweep_id, idx, attempt) == 1

    def fail(self, idx: int, attempt: int, failed: FailedResult,
             max_retries: int) -> bool:
        """Record ``attempt``'s failure; False if it was superseded."""
        return self._update(
            f"UPDATE cells SET {_FAILED}, error = ?, traceback = ?,"
            " worker_pid = ?, wall_s = ? WHERE sweep_id = ? AND idx = ?"
            " AND attempt = ? AND state = 'leased'",
            max_retries, failed.error, failed.traceback, failed.worker_pid,
            failed.wall_seconds, self.sweep_id, idx, attempt) == 1

    def expire(self, max_retries: int, error: str) -> List[Tuple[int, int]]:
        """Fail every lease whose deadline has passed; returns their
        ``(idx, attempt)``."""
        with self.store._conn() as conn:
            return conn.execute(
                f"UPDATE cells SET {_FAILED}, error = ? WHERE sweep_id = ?"
                " AND state = 'leased' AND lease_until < ?"
                " RETURNING idx, attempt",
                (max_retries, error, self.sweep_id, time.time())).fetchall()

    def release(self, idx: int, attempt: int) -> None:
        """Re-queue ``attempt``'s cell, uncharged, if its row is still
        leased: its result was not stored (aborted, or the write failed)."""
        self._update(
            "UPDATE cells SET state = 'pending', attempt = attempt - 1,"
            " lease_until = NULL WHERE sweep_id = ? AND idx = ?"
            " AND attempt = ? AND state = 'leased'", self.sweep_id, idx, attempt)

    def requeue(self, idx: int) -> None:
        """Re-queue a done cell whose stored result no longer decodes."""
        self._update("UPDATE cells SET state = 'pending' WHERE sweep_id = ?"
                     " AND idx = ? AND state = 'done'", self.sweep_id, idx)

    def settle(self, key: str, failed: Optional[FailedResult]) -> None:
        """Give every unleased cell of ``key`` the key's verdict: done when
        the result row exists, else ``failed``'s exhaustion."""
        if failed is None:
            self._update(
                "UPDATE cells SET state = 'done' WHERE sweep_id = ?"
                " AND key = ? AND state IN ('pending', 'exhausted')"
                " AND EXISTS (SELECT 1 FROM results"
                " WHERE results.key = cells.key)", self.sweep_id, key)
        else:
            self._update(
                "UPDATE cells SET state = 'exhausted', attempt = ?,"
                " error = ?, traceback = ?, worker_pid = ?, wall_s = ?"
                " WHERE sweep_id = ? AND key = ? AND state = 'pending'",
                failed.attempts, failed.error, failed.traceback,
                failed.worker_pid, failed.wall_seconds, self.sweep_id, key)

    def exhausted(self) -> List[dict]:
        """The exhausted cells, as :class:`CompletionReport` lists them."""
        rows = self.store._conn().execute(
            "SELECT idx, key, error, attempt, worker_pid, wall_s FROM cells"
            " WHERE sweep_id = ? AND state = 'exhausted' ORDER BY idx",
            (self.sweep_id,))
        return [{"index": idx, "key": key, "error": error,
                 "attempts": attempt, "worker_pid": pid,
                 "wall_seconds": round(wall_s, 3)}
                for idx, key, error, attempt, pid, wall_s in rows]

    def counts(self) -> Tuple[Dict[str, int], int]:
        """``({state: cells}, executions)`` over the sweep."""
        rows = self.store._conn().execute(
            "SELECT state, COUNT(*), SUM(executions) FROM cells"
            " WHERE sweep_id = ? GROUP BY state", (self.sweep_id,)).fetchall()
        return ({state: n for state, n, _ in rows},
                sum(runs for _, _, runs in rows))
