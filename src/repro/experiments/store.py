"""The result store: one SQLite file of experiment results, keyed by config.

Every sweep path — ``run_many(cache=...)``, :class:`SweepFabric`, ``repro
topo run --store`` — keeps its results in a :class:`ResultStore`: a
single WAL-mode SQLite file that many worker *processes* (or hosts sharing
a filesystem) write concurrently and that ships as one artefact.

Contract:

* Keys come from :func:`repro.experiments.cache.config_key` — the salted
  content hash of the full config — so a result stored by any process on
  any host is valid for every other holder of the same config + salt.
* ``get`` returns a fully unpacked :class:`ExperimentResult` or ``None``;
  torn, stale-schema, or concurrently-written-then-lost entries read as
  misses, never as exceptions.
* ``put`` refuses failures and aborted results (they must re-run), and a
  *write* failure (full disk, read-only mount, locked database) degrades
  loudly-but-nonfatally: a warning log + ``write_errors`` counter, return
  ``False``, sweep continues.
* The payload is ``(result-with-records-stripped, PackedFlowRecords)``,
  pickled — the same bytes a worker sends its parent over the pipe.

``open_store`` parses user-facing specs::

    open_store("sqlite:results/sweep.db") -> ResultStore
    open_store("results/sweep.db")        -> ResultStore (a bare file path)
    open_store(existing_store)            -> unchanged

Worker processes receive the *spec string* (picklable, connection-free)
and open their own handle; SQLite connections never cross ``fork``.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import pickle
import sqlite3
import threading
import time
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.experiments.cache import config_key
from repro.experiments.runner import ExperimentResult
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


#: Exceptions that mean "this payload is torn or from an old schema" — a
#: miss, not an error. AttributeError covers renamed classes across PRs,
#: ImportError (and its ModuleNotFoundError subclass) covers pickles
#: referencing moved or deleted modules, KeyError covers removed enum
#: members looked up by value.
DECODE_ERRORS = (pickle.UnpicklingError, ValueError, EOFError,
                 AttributeError, TypeError, IndexError, ImportError,
                 KeyError)


class ResultStore:
    """Single-file SQLite result store, safe for concurrent writers.

    WAL journaling lets readers proceed while a writer commits; a generous
    ``busy_timeout`` plus one-row autocommit ``INSERT OR REPLACE`` writes
    make multi-process hammering from a sweep's worker pool safe (each
    write is atomic; last writer of a key wins, and all writers of a key
    hold byte-identical payloads by construction — the key is the content
    hash of the config that produced them).

    Connections are opened lazily per ``(process, thread)`` and never
    shared across ``fork`` — workers reconstruct the store from its
    ``spec`` string.
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
        key = self.key(config)
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
        """Store a clean result; returns True iff it was durably written.

        Failed and aborted results are never stored — they are exactly the
        runs a retry might fix. A media error (disk full, read-only mount,
        database locked past its timeout) is *not* raised: the sweep keeps
        its in-memory result and every incident is logged and counted, so
        a dying disk degrades loudly instead of silently recomputing
        forever.
        """
        if not isinstance(result, ExperimentResult) or result.aborted:
            self.skipped += 1
            return False
        key = self.key(config)
        payload = encode_result(result)
        try:
            with self._conn() as conn:  # one transaction per result
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
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "skipped": self.skipped,
            "write_errors": self.write_errors,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ResultStore {self.spec} hits={self.hits} "
                f"misses={self.misses} stores={self.stores} "
                f"write_errors={self.write_errors}>")

    def __len__(self) -> int:
        return self._conn().execute(
            "SELECT COUNT(*) FROM results").fetchone()[0]

    def keys(self) -> Tuple[str, ...]:
        return tuple(k for (k,) in self._conn().execute(
            "SELECT key FROM results ORDER BY key"))


StoreSpec = Union[str, os.PathLike, ResultStore]


def open_store(spec: StoreSpec, salt: Optional[str] = None) -> ResultStore:
    """Open a result store from a user-facing spec (idempotent on stores):
    ``sqlite:PATH`` or a bare file path. An existing directory — the
    retired one-pickle-per-key format — raises ``ValueError``."""
    if isinstance(spec, ResultStore):
        return spec
    text = os.fspath(spec)
    if text.startswith(SQLITE_PREFIX):
        text = text[len(SQLITE_PREFIX):]
    return ResultStore(text, salt=salt)
