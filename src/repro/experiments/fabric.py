"""The sweep loop, and the journal that makes it durable.

A sweep is a list of configs (a *grid*); a cell is one config. One loop —
:func:`run_cells` — runs every grid in the repo: it collapses cells with
equal content keys into one simulation, serves what the result store
already holds, dispatches at most ``processes`` cells at a time, harvests,
re-queues a failure after a seeded backoff and exhausts it after
``max_retries``. ``run_many`` is that loop with nothing else;
:class:`SweepFabric` hands it a :class:`SweepJournal`, which makes
thousand-cell sweeps — the paper's Figs 10–11 deployment grids and every
load × locality × burstiness study beyond them — survive ``kill -9``
(DESIGN.md §6g):

* **Persistent work queue.** Cell states (``pending → leased →
  done/failed``) live in an append-only JSONL journal beside a pickled
  copy of the grid. Every transition is one ``O_APPEND`` line (atomic on
  POSIX for our line sizes); verdict lines (``done``/``fail``) are
  fsynced. Replaying the journal reconstructs the queue exactly, so
  ``kill -9`` at any instant costs at most the cells that were in
  flight.
* **Leases + heartbeats.** A dispatched cell carries a wall-clock lease;
  the worker heartbeats while simulating. A dead or stalled worker's
  lease expires and the loop re-queues the cell (consuming one
  attempt, so a config that wedges every worker still terminates).
* **Bounded retries.** Failures re-queue with seeded exponential backoff
  + jitter (:func:`retry_delay_s`) up to ``max_retries`` extra attempts,
  then the cell is *exhausted*: the sweep still completes, returning a
  :class:`FailedResult` in that slot and listing the cell in the
  machine-readable :class:`CompletionReport`.
* **Results in the store.** A worker writes its clean result into the
  :class:`repro.experiments.store.ResultStore` before its ``done`` line,
  so a resumed sweep recomputes zero stored cells and multiple sweeps
  sharing a store reuse each other's cells.

The journal directory is the unit of resume::

    fabric = SweepFabric("sweeps/fig10", store="sqlite:results.db")
    results = fabric.run(configs)
    # ... kill -9 anywhere above, then later:
    results = SweepFabric("sweeps/fig10").run()   # picks up where it died

``repro sweep start/resume/status`` and ``tools/run_simulations.py
--store/--resume`` wrap exactly this.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import logging
import multiprocessing
import os
import pickle
import queue
import random
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.cache import DEFAULT_CODE_SALT, config_key
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.store import (
    ResultStore,
    StoreSpec,
    decode_result,
    encode_result,
    open_store,
)

logger = logging.getLogger(__name__)

JOURNAL_NAME = "journal.jsonl"
GRID_NAME = "grid.pkl"
REPORT_NAME = "report.json"

#: Tracebacks are truncated to this many characters in ``fail`` journal
#: lines, keeping every line comfortably under the POSIX atomic-append
#: size so concurrent writers cannot interleave mid-line.
MAX_JOURNAL_TB = 2000

# Cell states after journal replay.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
EXHAUSTED = "exhausted"


#: Pool workers are replaced after this many simulations, bounding the
#: damage a slow memory leak in any one config can do to a long sweep.
DEFAULT_MAX_TASKS_PER_CHILD = 16

#: Progress is logged at least this often (seconds) while cells complete.
PROGRESS_LOG_PERIOD_S = 10.0

#: Jitter fraction for retry backoff: each delay is stretched by up to
#: this much, seeded, so retrying cells never re-synchronize.
RETRY_JITTER = 0.5


class JournalError(RuntimeError):
    """The journal is missing, unreadable, or does not match the grid."""


@dataclass
class FailedResult:
    """A config that raised instead of producing an ExperimentResult.

    Sweeps receive one of these *in position* (the result list always has
    exactly ``len(configs)`` entries) so downstream tables can report the
    hole instead of the whole run crashing. The stamps identify *where*
    and *how long* the attempt ran: an OOM-killed or wedged worker shows
    a foreign pid and a long wall clock, a deterministic config bug fails
    fast in every attempt.
    """

    config: ExperimentConfig
    error: str       # repr of the exception
    traceback: str   # full formatted traceback from the worker
    retried: bool = False
    #: total executions attempted for this config (1 = never retried)
    attempts: int = 1
    #: pid of the worker process the *last* attempt ran in
    worker_pid: int = 0
    #: wall-clock seconds the last attempt ran before failing
    wall_seconds: float = 0.0

    @property
    def failed(self) -> bool:
        return True


def retry_delay_s(attempt: int, base_s: float, seed: int, token) -> float:
    """Deterministic exponential backoff with jitter for retry ``attempt``
    (1-based) of the cell identified by ``token``.

    ``base_s * 2**(attempt-1)``, stretched by up to :data:`RETRY_JITTER`
    from an rng seeded on ``(seed, token, attempt)`` — reproducible across
    runs and hosts, yet distinct per cell so a burst of failures does not
    retry in lockstep.
    """
    if base_s <= 0:
        return 0.0
    rng = random.Random(f"{seed}:{token}:{attempt}")
    return base_s * (2 ** (attempt - 1)) * (1.0 + RETRY_JITTER * rng.random())


def append_line(path: Union[str, Path], obj: dict, sync: bool = False) -> None:
    """Append one JSON line with a single ``O_APPEND`` write.

    Safe for concurrent writers (the loop + every worker heartbeat
    thread): each line is one ``write(2)`` call well under the atomic
    append size. ``sync`` fsyncs — used for verdict lines whose loss
    would cost a re-execution.
    """
    data = (json.dumps(obj, separators=(",", ":")) + "\n").encode()
    fd = os.open(os.fspath(path), os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                 0o644)
    try:
        os.write(fd, data)
        if sync:
            os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class FabricConfig:
    """Execution policy of the sweep loop (picklable). ``lease_s`` and
    ``heartbeat_s`` only act under a journal: heartbeats travel through it."""

    #: worker processes (None = one per CPU, capped by pending cells)
    processes: Optional[int] = None
    #: extra attempts after the first failure before a cell is exhausted
    max_retries: int = 2
    #: backoff base for retry N: ``base * 2**(N-1)`` + seeded jitter
    retry_base_s: float = 0.0
    #: seed for the backoff jitter (kept distinct from sim seeds)
    retry_seed: int = 0
    #: wall-clock lease per execution; expiry re-queues the cell
    lease_s: float = 300.0
    #: worker heartbeat period; each heartbeat renews the lease
    heartbeat_s: float = 5.0
    #: recycle pool workers after this many cells (leak containment)
    max_tasks_per_child: Optional[int] = DEFAULT_MAX_TASKS_PER_CHILD
    #: how often the loop looks at leases and backoffs while cells are in
    #: flight (a finished cell wakes it at once)
    poll_s: float = 0.05


@dataclass
class CellState:
    """One cell's reconstructed state after journal replay."""

    index: int
    status: str = PENDING
    attempts: int = 0       # verdict-producing executions consumed
    executions: int = 0     # times a worker actually started simulating
    deadline: float = 0.0   # wall-clock lease expiry while LEASED
    cached: bool = False    # last completion came from the store
    error: str = ""
    traceback: str = ""
    worker_pid: int = 0
    wall_seconds: float = 0.0
    stale_verdicts: int = 0  # verdicts from superseded (expired) attempts


@dataclass
class CompletionReport:
    """Machine-readable outcome of one :meth:`SweepFabric.run`."""

    sweep_id: str
    status: str                    # "complete" | "partial"
    total: int
    completed: int
    failed: List[dict]             # index, key, error, attempts, pid, wall_s
    executed: int                  # simulations actually run this invocation
    store_hits: int                # cells served from the result store
    retries: int
    expired_leases: int
    wall_seconds: float
    store: str
    #: expired attempts whose worker turned out to be alive and finished
    #: anyway — the verdict was discarded, but the cell may have simulated
    #: twice (its store write is still valid: same key, same bytes).
    duplicate_executions: int = 0
    store_stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def write(self, path: Union[str, Path]) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)


# --------------------------------------------------------------- journal


class SweepJournal:
    """The durable work queue: a grid snapshot + an append-only log.

    Layout under ``self.dir``::

        grid.pkl       pickled (version, salt, store spec, keys, configs)
        journal.jsonl  one JSON line per state transition
        report.json    CompletionReport of the latest invocation
    """

    GRID_VERSION = 1

    def __init__(self, directory: Union[str, Path]):
        self.dir = Path(directory)
        self.journal_path = self.dir / JOURNAL_NAME
        self.grid_path = self.dir / GRID_NAME
        self.report_path = self.dir / REPORT_NAME

    def exists(self) -> bool:
        return self.journal_path.exists() and self.grid_path.exists()

    # ------------------------------------------------------------ create

    def create(self, configs: Sequence[ExperimentConfig], store_spec: str,
               salt: Optional[str] = None) -> str:
        """Snapshot the grid and open the journal; returns the sweep id.

        The salt is resolved *now* (explicit > ``REPRO_CACHE_SALT`` >
        default) and pinned in the snapshot: a resume keys into the same
        store entries even if the surrounding code bumps the default
        salt mid-campaign.
        """
        if self.exists():
            raise JournalError(f"journal already exists at {self.dir}; "
                               f"resume it or choose a fresh directory")
        if not configs:
            raise JournalError("cannot create a sweep with zero cells")
        salt = salt or os.environ.get("REPRO_CACHE_SALT", DEFAULT_CODE_SALT)
        keys = [config_key(cfg, salt) for cfg in configs]
        sweep_id = hashlib.sha256(
            ("\n".join(keys) + store_spec).encode()).hexdigest()[:12]
        self.dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": self.GRID_VERSION,
            "sweep_id": sweep_id,
            "salt": salt,
            "store": store_spec,
            "keys": keys,
            "configs": list(configs),
        }
        tmp = self.grid_path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.grid_path)
        self.append({"op": "init", "sweep": sweep_id, "cells": len(configs),
                     "store": store_spec, "salt": salt, "t": time.time()},
                    sync=True)
        return sweep_id

    # -------------------------------------------------------------- load

    def load_grid(self) -> dict:
        if not self.exists():
            raise JournalError(f"no sweep journal at {self.dir} "
                               f"(expected {GRID_NAME} + {JOURNAL_NAME})")
        with open(self.grid_path, "rb") as fh:
            grid = pickle.load(fh)
        if grid.get("version") != self.GRID_VERSION:
            raise JournalError(
                f"grid snapshot version {grid.get('version')!r} != "
                f"{self.GRID_VERSION}; this journal was written by an "
                f"incompatible fabric")
        return grid

    def verify_grid(self, grid: dict) -> None:
        """Re-key the snapshot's configs and compare: catches config
        canonicalization drift that would silently mis-key the store."""
        keys = [config_key(cfg, grid["salt"]) for cfg in grid["configs"]]
        if keys != grid["keys"]:
            raise JournalError(
                "config keys no longer match the grid snapshot — the "
                "config schema or canonicalization changed since this "
                "sweep started; start a fresh sweep (results in the store "
                "remain valid under their original keys)")

    def append(self, obj: dict, sync: bool = False) -> None:
        append_line(self.journal_path, obj, sync=sync)

    def renew_leases(self, tail_pos: int,
                     outstanding: Dict[int, Tuple[float, int]],
                     lease_s: float) -> int:
        """Read the lines appended since byte ``tail_pos``; a worker's
        heartbeat (or ``run`` line) renews the ``(deadline, attempt)``
        lease of its cell in ``outstanding``. Returns the new position."""
        try:
            size = self.journal_path.stat().st_size
        except OSError:
            return tail_pos
        if size <= tail_pos:
            return tail_pos
        with open(self.journal_path, "rb") as fh:
            fh.seek(tail_pos)
            chunk = fh.read(size - tail_pos)
        # Only consume complete lines; a partially-flushed tail waits.
        end = chunk.rfind(b"\n")
        if end < 0:
            return tail_pos
        for line in chunk[:end].splitlines():
            try:
                op = json.loads(line)
            except ValueError:
                continue
            if op.get("op") in ("hb", "run") and op.get("cell") in outstanding:
                _, attempt = outstanding[op["cell"]]
                # A heartbeat of a superseded attempt is a zombie's.
                if op.get("attempt") in (None, attempt):
                    outstanding[op["cell"]] = (
                        op.get("t", time.time()) + lease_s, attempt)
        return tail_pos + end + 1

    def replay(self, n_cells: int, lease_s: float) -> List[CellState]:
        """Fold the journal into per-cell states.

        Torn tail lines (a crash mid-append) are skipped; unknown ops are
        ignored so newer fabrics can extend the format.

        An expired lease supersedes its attempt: a worker the coordinator
        gave up on may still be running (`expire` cannot cancel it), and
        its `done`/`fail` lines can land arbitrarily late — even after a
        `requeue` or `exhausted` for the same cell. Verdicts from
        attempts below the cell's lowest still-live attempt are therefore
        counted as stale and otherwise ignored, so a zombie can never
        flip an exhausted cell or double-charge an attempt. Lines with no
        ``attempt`` field (older journals) are always treated as live.
        """
        cells = [CellState(i) for i in range(n_cells)]
        min_live = [1] * n_cells  # lowest attempt whose verdict counts
        try:
            raw = self.journal_path.read_bytes()
        except FileNotFoundError:
            raise JournalError(f"no journal at {self.journal_path}")
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                op = json.loads(line)
            except ValueError:
                continue  # torn tail line from a crash mid-append
            kind = op.get("op")
            idx = op.get("cell")
            if idx is None or not (0 <= idx < n_cells):
                continue
            cell = cells[idx]
            attempt = op.get("attempt")
            stale = attempt is not None and attempt < min_live[idx]
            if kind == "lease":
                cell.status = LEASED
                cell.deadline = op.get("deadline",
                                       op.get("t", 0.0) + lease_s)
            elif kind == "hb":
                if cell.status == LEASED and not stale:
                    cell.deadline = op.get("t", 0.0) + lease_s
            elif kind == "run":
                cell.executions += 1
                if not stale:
                    cell.worker_pid = op.get("pid", 0)
            elif kind == "done":
                if stale:
                    cell.stale_verdicts += 1
                    continue
                cell.status = DONE
                cell.cached = bool(op.get("cached"))
                cell.wall_seconds = op.get("wall_s", 0.0)
            elif kind == "fail":
                if stale:
                    cell.stale_verdicts += 1
                    continue
                cell.status = PENDING
                cell.attempts = max(cell.attempts, op.get("attempt", 1))
                cell.error = op.get("error", "")
                cell.traceback = op.get("tb", "")
                cell.worker_pid = op.get("pid", 0)
                cell.wall_seconds = op.get("wall_s", 0.0)
            elif kind == "expire":
                expired_attempt = op.get("attempt", 1)
                min_live[idx] = max(min_live[idx], expired_attempt + 1)
                cell.status = PENDING
                cell.attempts = max(cell.attempts, expired_attempt)
                cell.error = cell.error or "lease expired (worker dead or stalled)"
            elif kind == "requeue":
                if attempt is not None:
                    min_live[idx] = max(min_live[idx], attempt)
                cell.status = PENDING
            elif kind == "exhausted":
                cell.status = EXHAUSTED
                cell.attempts = max(cell.attempts, op.get("attempts", 1))
        return cells


# ------------------------------------------------------------- the cell


def _heartbeat_loop(journal_path: str, index: int, pid: int, attempt: int,
                    period_s: float, stop: threading.Event) -> None:
    while not stop.wait(period_s):
        try:
            append_line(journal_path, {"op": "hb", "cell": index, "pid": pid,
                                       "attempt": attempt, "t": time.time()})
        except OSError:  # heartbeat loss is safe: worst case a re-queue
            pass


def run_cell(index: int, cfg: ExperimentConfig, attempt: int,
             store: Optional[ResultStore] = None,
             journal_path: Optional[str] = None, heartbeat_s: float = 5.0,
             ) -> Union[ExperimentResult, FailedResult]:
    """Execute one cell: simulate, contain and stamp a failure, put a
    clean result in the store. Under a journal it also writes the ``run``
    line, heartbeats while simulating, and fsyncs the verdict line — after
    the store write, so a ``done`` cell is a stored cell.

    Runs in the caller's process on the serial path and inside
    :func:`_pool_cell` in a pool worker.
    """
    pid = os.getpid()
    start = time.monotonic()
    stop = threading.Event()
    hb = None
    if journal_path is not None:
        append_line(journal_path, {"op": "run", "cell": index, "pid": pid,
                                   "attempt": attempt, "t": time.time()})
        hb = threading.Thread(
            target=_heartbeat_loop,
            args=(journal_path, index, pid, attempt, heartbeat_s, stop),
            daemon=True)
        hb.start()
    try:
        result = run_experiment(cfg)
    except Exception as exc:  # noqa: BLE001 - the whole point is containment
        result = FailedResult(
            config=cfg, error=repr(exc), traceback=traceback.format_exc(),
            retried=attempt > 1, attempts=attempt, worker_pid=pid,
            wall_seconds=time.monotonic() - start)
    finally:
        if hb is not None:
            stop.set()
            hb.join(timeout=heartbeat_s + 1.0)
    if isinstance(result, FailedResult):
        verdict = {"op": "fail", "error": result.error,
                   "tb": result.traceback[-MAX_JOURNAL_TB:]}
    else:
        verdict = {"op": "done", "cached": False,
                   "stored": store is not None and store.put(cfg, result)}
    if journal_path is not None:
        append_line(journal_path,
                    dict(verdict, cell=index, pid=pid, attempt=attempt,
                         wall_s=time.monotonic() - start, t=time.time()),
                    sync=True)
    return result


def _pool_cell(item: Tuple) -> Union[bytes, FailedResult]:
    """Pool task: :func:`run_cell` in a worker process, on the worker's own
    store handle (opened from the spec), its clean result packed for the
    pipe with the store's own encoding."""
    index, cfg, attempt, store_spec, salt, journal_path, heartbeat_s = item
    store = (open_store(store_spec, salt=salt) if store_spec is not None
             else None)
    try:
        result = run_cell(index, cfg, attempt, store, journal_path,
                          heartbeat_s)
    finally:
        if store is not None:
            store.close()
    return (encode_result(result) if isinstance(result, ExperimentResult)
            else result)


# ------------------------------------------------------------- the loop


def run_cells(configs: Sequence[ExperimentConfig],
              store: Optional[ResultStore], policy: FabricConfig,
              progress: Optional[Callable[[int, int], None]] = None,
              journal: Optional[SweepJournal] = None,
              ) -> Tuple[List[Union[ExperimentResult, FailedResult]], dict]:
    """Drive every cell of a grid to a verdict; returns ``(results,
    counts)`` with one result per config, in config order.

    Cells with equal content keys are one simulation: the first is the
    key's *leader*, the rest receive the leader's verdict (the same
    object). A key the store already holds is served from it; the others
    are dispatched — at most ``policy.processes`` at a time, in-process
    when that is one — and a failed or expired attempt re-queues after
    :func:`retry_delay_s` until ``policy.max_retries`` is spent.

    ``journal`` adds durability and nothing else: the loop starts from the
    journal's replayed state, appends a line per transition, and expires
    the lease of a cell whose worker stopped heartbeating. Without one
    the only file touched is the store's.
    """
    total = len(configs)
    salt = store.salt if store is not None else None
    keys = [config_key(cfg, salt) for cfg in configs]
    groups: Dict[str, List[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    states = (journal.replay(total, policy.lease_s) if journal is not None
              else [CellState(i) for i in range(total)])
    journal_path = (os.fspath(journal.journal_path) if journal is not None
                    else None)
    results: List[Optional[Union[ExperimentResult, FailedResult]]] = (
        [None] * total)
    counts = {"executed": 0, "store_hits": 0, "retries": 0,
              "expired_leases": 0, "duplicate_executions": 0}
    done = 0
    last_log = time.monotonic()

    def log(sync: bool = False, **line) -> None:
        if journal is not None:
            journal.append(dict(line, t=time.time()), sync=sync)

    def settle(lead: int, result, cached: bool = False) -> None:
        """Hand the leader's verdict to every cell of its key."""
        nonlocal done, last_log
        for i in groups[keys[lead]]:
            results[i] = result
            st = states[i]
            if isinstance(result, FailedResult):
                if st.status != EXHAUSTED:
                    log(True, op="exhausted", cell=i,
                        attempts=result.attempts)
            elif st.status != DONE and (cached or i != lead):
                # The leader's own ``done`` line is its worker's.
                log(True, op="done", cell=i, attempt=st.attempts + 1,
                    cached=True)
            done += 1
            if progress is not None:
                progress(done, total)
        now = time.monotonic()
        if done == total or now - last_log >= PROGRESS_LOG_PERIOD_S:
            last_log = now
            logger.info("sweep progress: %d/%d cells done (%d failed)",
                        done, total, sum(isinstance(r, FailedResult)
                                         for r in results))

    # What is already decided: stored keys, and (on resume) exhausted ones.
    ready: List[Tuple[float, int, int, float]] = []  # (at, cell, attempt, delay)
    for members in groups.values():
        lead = members[0]
        st = states[lead]
        hit = store.get(configs[lead]) if store is not None else None
        if hit is not None:
            counts["store_hits"] += len(members)
            settle(lead, hit, cached=True)
        elif st.status == EXHAUSTED:
            settle(lead, FailedResult(
                config=configs[lead], error=st.error or "exhausted retries",
                traceback=st.traceback, retried=st.attempts > 1,
                attempts=st.attempts, worker_pid=st.worker_pid,
                wall_seconds=st.wall_seconds))
        else:
            if st.status == DONE:  # the journal says done, the store lost it
                log(op="requeue", cell=lead, attempt=st.attempts + 1)
            # PENDING — and LEASED: a lease can only be live if another
            # loop is running this journal, which is unsupported; after
            # kill -9 every leased cell is dead. The interrupted attempt
            # produced no verdict, so it is not charged.
            ready.append((0.0, lead, st.attempts + 1, 0.0))
    heapq.heapify(ready)

    def harvest(i: int, attempt: int, outcome) -> None:
        """Fold one attempt's outcome into the results or the queue."""
        if isinstance(outcome, FailedResult) and attempt <= policy.max_retries:
            counts["retries"] += 1
            delay = retry_delay_s(attempt, policy.retry_base_s,
                                  policy.retry_seed, i)
            log(op="requeue", cell=i, attempt=attempt + 1,
                delay_s=round(delay, 3))
            heapq.heappush(
                ready, (time.monotonic() + delay, i, attempt + 1, delay))
        else:
            settle(i, outcome)

    def gave_up(i: int, attempt: int, error: str) -> FailedResult:
        return FailedResult(config=configs[i], error=error, traceback="",
                            retried=attempt > 1, attempts=attempt)

    processes = policy.processes or os.cpu_count() or 1
    processes = max(1, min(processes, len(ready)))
    pool = (multiprocessing.Pool(processes=processes,
                                 maxtasksperchild=policy.max_tasks_per_child)
            if processes > 1 else None)
    store_spec = store.spec if store is not None else None
    outstanding: Dict[int, Tuple[float, int]] = {}  # cell -> (deadline, attempt)
    finished: queue.SimpleQueue = queue.SimpleQueue()  # (cell, attempt, outcome)
    tail_pos = journal.journal_path.stat().st_size if journal is not None else 0

    def dispatch(i: int, attempt: int) -> None:
        pool.apply_async(
            _pool_cell, ((i, configs[i], attempt, store_spec, salt,
                          journal_path, policy.heartbeat_s),),
            callback=lambda out: finished.put((i, attempt, out)),
            error_callback=lambda exc: finished.put((i, attempt, exc)))

    try:
        while ready or outstanding:
            # Dispatch ready cells whose backoff has elapsed — but never
            # more than there are workers, so the lease clock starts when
            # a worker can actually pick the task up. Dispatching the
            # whole backlog at once would start every lease at submit
            # time and falsely expire any cell whose pool-queue wait
            # exceeded lease_s.
            while ready and len(outstanding) < processes:
                ready_at, i, attempt, delay = ready[0]
                if ready_at > time.monotonic():
                    if pool is not None:
                        break  # the wait below covers the backoff
                    time.sleep(delay)  # nothing else can run meanwhile
                heapq.heappop(ready)
                deadline = time.time() + policy.lease_s
                log(op="lease", cell=i, attempt=attempt, deadline=deadline)
                counts["executed"] += 1
                if pool is None:
                    # Lease expiry is moot (nothing can monitor the
                    # in-process cell), but the lease line keeps the
                    # journal format identical.
                    harvest(i, attempt, run_cell(
                        i, configs[i], attempt, store, journal_path,
                        policy.heartbeat_s))
                else:
                    outstanding[i] = (deadline, attempt)
                    dispatch(i, attempt)
            if pool is None:
                continue

            try:
                i, attempt, outcome = finished.get(timeout=policy.poll_s)
            except queue.Empty:
                pass
            else:
                if outstanding.get(i, (0.0, 0))[1] != attempt:
                    # An expired attempt cannot be cancelled and ran to
                    # completion anyway. Its verdict is superseded (the
                    # re-queued attempt owns the cell; replay skips it by
                    # attempt number), though the result it stored still
                    # serves a later sweep.
                    counts["duplicate_executions"] += 1
                    logger.info("expired attempt %d of cell %d completed "
                                "anyway; verdict discarded", attempt, i)
                else:
                    del outstanding[i]
                    if isinstance(outcome, bytes):
                        outcome = decode_result(outcome)
                    elif isinstance(outcome, BaseException):
                        # The task itself never raises; this is pool-level
                        # breakage (unpicklable payload, dead machinery).
                        outcome = gave_up(i, attempt,
                                          f"pool failure: {outcome!r}")
                    harvest(i, attempt, outcome)

            if journal is None:
                continue
            # Worker heartbeats renew their cell's lease; a lease that
            # runs out means the worker is dead or stalled.
            tail_pos = journal.renew_leases(tail_pos, outstanding,
                                            policy.lease_s)
            now_wall = time.time()
            for i in [i for i, (dl, _) in outstanding.items()
                      if dl < now_wall]:
                _, attempt = outstanding.pop(i)
                counts["expired_leases"] += 1
                log(True, op="expire", cell=i, attempt=attempt)
                logger.warning(
                    "lease expired for cell %d (attempt %d) — worker "
                    "dead or stalled; re-queueing", i, attempt)
                harvest(i, attempt, gave_up(
                    i, attempt, "lease expired (worker dead or stalled)"))
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
    return results, counts  # type: ignore[return-value]


# ----------------------------------------------------------- the fabric


class SweepFabric:
    """:func:`run_cells` over a journal directory: the durable sweep.

    First ``run(configs)`` creates the journal; any later ``run()`` —
    same process or a fresh one after ``kill -9`` — resumes it. The
    return contract matches :func:`repro.experiments.parallel.run_many`:
    one entry per cell in grid order, :class:`FailedResult` for cells
    that exhausted their retries. ``last_report`` holds the
    :class:`CompletionReport` (also written to ``report.json``).
    """

    def __init__(self, journal_dir: Union[str, Path],
                 store: Optional[StoreSpec] = None,
                 config: Optional[FabricConfig] = None,
                 salt: Optional[str] = None):
        self.journal = SweepJournal(journal_dir)
        self.config = config or FabricConfig()
        self._store_arg = store
        self._salt_arg = salt
        self.last_report: Optional[CompletionReport] = None

    # ------------------------------------------------------------- setup

    def _open_store(self, spec: StoreSpec, salt: Optional[str]) -> ResultStore:
        try:
            return open_store(spec, salt=salt)
        except ValueError as exc:
            # A journal started before the directory format was retired
            # records a directory store; say so instead of failing inside
            # sqlite3. Passing ``store=`` resumes against a new file.
            raise JournalError(f"sweep at {self.journal.dir}: {exc}") from exc

    def _open(self, configs: Optional[Sequence[ExperimentConfig]]):
        """Create or resume the journal; returns (grid, store)."""
        if self.journal.exists():
            grid = self.journal.load_grid()
            self.journal.verify_grid(grid)
            if configs is not None:
                salt = grid["salt"]
                if [config_key(c, salt) for c in configs] != grid["keys"]:
                    raise JournalError(
                        f"the {len(configs)} config(s) passed to run() do "
                        f"not match the grid recorded at "
                        f"{self.journal.dir}; resume with run() or start a "
                        f"fresh journal directory")
            if isinstance(self._store_arg, ResultStore):
                override = self._store_arg.spec
            elif self._store_arg is not None:
                override = os.fspath(self._store_arg)
            else:
                override = None
            if override is not None and override != grid["store"]:
                logger.warning(
                    "resuming sweep %s against store %s (journal recorded "
                    "%s); cells already in the new store are reused, the "
                    "rest re-run", grid["sweep_id"], override,
                    grid["store"])
                grid = dict(grid, store=override)
        else:
            if configs is None:
                raise JournalError(
                    f"no sweep to resume at {self.journal.dir}; pass "
                    f"configs to start one")
            seed_store = self._open_store(
                self._store_arg if self._store_arg is not None
                else self.journal.dir / "store.db", self._salt_arg)
            sweep_id = self.journal.create(configs, seed_store.spec,
                                           salt=self._salt_arg)
            seed_store.close()
            grid = self.journal.load_grid()
            logger.info("sweep %s created: %d cells -> %s",
                        sweep_id, len(configs), seed_store.spec)
        # Always reopen from the journal's spec with its pinned salt —
        # even when a live ResultStore was passed in — so the loop's
        # lookups key identically to the workers'.
        return grid, self._open_store(grid["store"], grid["salt"])

    # --------------------------------------------------------------- run

    def run(self, configs: Optional[Sequence[ExperimentConfig]] = None,
            progress: Optional[Callable[[int, int], None]] = None,
            ) -> List[Union[ExperimentResult, FailedResult]]:
        t_start = time.monotonic()
        grid, store = self._open(configs)
        keys: List[str] = grid["keys"]
        results, counts = run_cells(grid["configs"], store, self.config,
                                    progress, journal=self.journal)
        failed_cells = [
            {"index": i, "key": keys[i], "error": r.error,
             "attempts": r.attempts, "worker_pid": r.worker_pid,
             "wall_seconds": round(r.wall_seconds, 3)}
            for i, r in enumerate(results) if isinstance(r, FailedResult)
        ]
        report = CompletionReport(
            sweep_id=grid["sweep_id"],
            status="partial" if failed_cells else "complete",
            total=len(results),
            completed=len(results) - len(failed_cells),
            failed=failed_cells,
            wall_seconds=round(time.monotonic() - t_start, 3),
            store=grid["store"],
            store_stats=store.stats(),
            **counts,
        )
        report.write(self.journal.report_path)
        self.journal.append({"op": "complete", "status": report.status,
                             "completed": report.completed,
                             "failed": len(failed_cells),
                             "t": time.time()}, sync=True)
        self.last_report = report
        logger.info("sweep %s %s: %d/%d cells, %d executed, %d store hits, "
                    "%d retries, %d expired leases",
                    report.sweep_id, report.status, report.completed,
                    report.total, report.executed, report.store_hits,
                    report.retries, report.expired_leases)
        return results


# ------------------------------------------------------------ status API


def sweep_status(journal_dir: Union[str, Path],
                 lease_s: float = FabricConfig.lease_s) -> dict:
    """Summarize a journal directory without touching the store or pool."""
    journal = SweepJournal(journal_dir)
    grid = journal.load_grid()
    states = journal.replay(len(grid["configs"]), lease_s)
    by_status: Dict[str, int] = {}
    for st in states:
        by_status[st.status] = by_status.get(st.status, 0) + 1
    executed = sum(st.executions for st in states)
    failed = [
        {"index": st.index, "attempts": st.attempts, "error": st.error}
        for st in states if st.status == EXHAUSTED
    ]
    report = None
    if journal.report_path.exists():
        try:
            report = json.loads(journal.report_path.read_text())
        except ValueError:
            report = None
    return {
        "sweep_id": grid["sweep_id"],
        "store": grid["store"],
        "salt": grid["salt"],
        "cells": len(grid["configs"]),
        "by_status": by_status,
        "executions": executed,
        "stale_verdicts": sum(st.stale_verdicts for st in states),
        "exhausted": failed,
        "last_report": report,
    }
