"""The sweep loop, and the durable sweep that keeps its state in the store.

A sweep is a list of configs (a *grid*); a cell is one config. One loop,
:func:`run_cells`, runs every grid in the repo: it collapses cells with
equal content keys into one simulation, serves what the result store
holds, dispatches at most ``processes`` cells at a time, re-queues a
failure after a seeded backoff and, after ``max_retries``, puts a
:class:`FailedResult` in its slot. ``run_many`` is that loop and nothing
else. :class:`SweepFabric` also hands it the sweep's rows of the store's
``cells`` table (:class:`repro.experiments.store.SweepCells`), so that
the paper's hours-long grids survive ``kill -9`` (DESIGN.md §6g): every
cell's state, attempt, lease and executions is a row of the store file,
and a worker's ``done`` verdict commits with its result.

A sweep directory holds a write-once pointer (``sweep.json``: sweep id,
store spec, salt), the latest ``report.json`` and, unless ``store=``
names another file, the store itself::

    fabric = SweepFabric("sweeps/fig10", store="sqlite:results.db")
    results = fabric.run(configs)
    # ... kill -9 anywhere above, then later:
    results = SweepFabric("sweeps/fig10").run()   # picks up where it died
"""

from __future__ import annotations

import contextlib
import heapq
import json
import logging
import os
import queue
import random
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.cache import DEFAULT_CODE_SALT, config_key
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    ExperimentResult,
    FailedResult,
    run_experiment,
)
from repro.experiments.store import (
    DONE,
    EXHAUSTED,
    CellRow,
    JournalError,
    ResultStore,
    StoreSpec,
    SweepCells,
    decode_result,
    encode_result,
    open_store,
    store_path,
)

logger = logging.getLogger(__name__)

POINTER_NAME = "sweep.json"
REPORT_NAME = "report.json"
STORE_NAME = "store.db"

#: Pool workers are replaced after this many simulations, bounding the
#: damage a slow memory leak in any one config can do to a long sweep.
DEFAULT_MAX_TASKS_PER_CHILD = 16

#: Progress is logged at least this often (seconds) while cells complete.
PROGRESS_LOG_PERIOD_S = 10.0

#: Jitter fraction for retry backoff: each delay is stretched by up to
#: this much, seeded, so retrying cells never re-synchronize.
RETRY_JITTER = 0.5

LEASE_EXPIRED = "lease expired (worker dead or stalled)"


def retry_delay_s(attempt: int, base_s: float, seed: int, token) -> float:
    """Backoff before retry ``attempt`` (1-based) of cell ``token``:
    ``base_s * 2**(attempt-1)``, stretched by up to :data:`RETRY_JITTER`
    from an rng seeded on ``(seed, token, attempt)`` — reproducible, yet
    distinct per cell so a burst of failures does not retry in lockstep."""
    if base_s <= 0:
        return 0.0
    rng = random.Random(f"{seed}:{token}:{attempt}")
    return base_s * (2 ** (attempt - 1)) * (1.0 + RETRY_JITTER * rng.random())


@dataclass
class FabricConfig:
    """Execution policy of the sweep loop (picklable). ``lease_s`` and
    ``heartbeat_s`` only act in a durable sweep: a lease is a cell row's."""

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
    #: how often the loop looks at leases and backoffs (a finished cell
    #: wakes it at once)
    poll_s: float = 0.05


def _write_json(path: Path, obj: dict) -> None:
    """Replace ``path`` with ``obj`` atomically (temp file, fsync, rename)."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


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
    #: expired attempts whose worker finished anyway (verdict discarded)
    duplicate_executions: int = 0
    store_stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def write(self, path: Union[str, Path]) -> None:
        _write_json(Path(path), self.to_dict())


def run_cell(index: int, cfg: ExperimentConfig, key: str, attempt: int,
             store: Optional[ResultStore] = None,
             sweep_id: Optional[str] = None,
             policy: Optional[FabricConfig] = None,
             ) -> Union[ExperimentResult, FailedResult]:
    """Simulate one cell, contain and stamp a failure, and put a clean
    result in the store under ``key``; in a durable sweep, renew the
    cell's lease while simulating and commit its ``done`` verdict too."""
    start = time.monotonic()
    policy = policy or FabricConfig()
    cell = (None if sweep_id is None else
            SweepCells(store, sweep_id).running(index, attempt, policy.lease_s,
                                                policy.heartbeat_s))
    with cell or contextlib.nullcontext():
        try:
            result = run_experiment(cfg)
        except Exception as exc:  # noqa: BLE001 - the point is containment
            result = FailedResult(
                config=cfg, error=repr(exc), traceback=traceback.format_exc(),
                retried=attempt > 1, attempts=attempt, worker_pid=os.getpid(),
                wall_seconds=time.monotonic() - start)
    if store is not None and isinstance(result, ExperimentResult):
        store.put_by_key(key, result, None if sweep_id is None else
                         (sweep_id, index, attempt, time.monotonic() - start))
    return result


def _pool_cell(item: Tuple) -> Union[bytes, FailedResult]:
    """Pool task: :func:`run_cell` on the worker's own store handle, its
    clean result packed for the pipe with the store's encoding."""
    index, cfg, key, attempt, store_spec, sweep_id, policy = item
    store = open_store(store_spec) if store_spec is not None else None
    try:
        result = run_cell(index, cfg, key, attempt, store, sweep_id, policy)
    finally:
        if store is not None:
            store.close()
    return (encode_result(result) if isinstance(result, ExperimentResult)
            else result)


def run_cells(grid: Sequence[Union[ExperimentConfig, CellRow]],
              store: Optional[ResultStore], policy: FabricConfig,
              progress: Optional[Callable[[int, int], None]] = None,
              cells: Optional[SweepCells] = None,
              ) -> Tuple[List[Union[ExperimentResult, FailedResult]], dict]:
    """Drive every cell of a grid to a verdict; returns ``(results,
    counts)`` with one result per cell, in grid order.

    Cells with equal content keys are one simulation: the first is the
    key's *leader*, the rest get its verdict (the same object). Each
    config is hashed once, here. ``cells`` makes the run durable: the
    grid is then its loaded rows (config and key each), and the loop
    records each transition in them and expires stale leases."""
    total = len(grid)
    rows = grid if cells is not None else None
    configs = [row.config for row in rows] if rows is not None else grid
    keys = ([row.key for row in rows] if rows is not None else
            [config_key(cfg, store.salt if store is not None else None)
             for cfg in configs])
    groups: Dict[str, List[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    sweep_id = cells.sweep_id if cells is not None else None
    results: List[Union[ExperimentResult, FailedResult, None]] = [None] * total
    counts = {"executed": 0, "store_hits": 0, "retries": 0,
              "expired_leases": 0, "duplicate_executions": 0}
    done = 0
    last_log = time.monotonic()

    def settle(lead: int, result) -> None:
        """Hand the leader's verdict to every cell of its key."""
        nonlocal done, last_log
        if cells is not None:
            cells.settle(keys[lead], result
                         if isinstance(result, FailedResult) else None)
        for i in groups[keys[lead]]:
            results[i] = result
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
    for key, members in groups.items():
        lead = members[0]
        row = rows[lead] if rows is not None else None
        hit = store.get_by_key(key) if store is not None else None
        if hit is not None:
            counts["store_hits"] += len(members)
            settle(lead, hit)
        elif row is not None and row.state == EXHAUSTED:
            settle(lead, FailedResult(
                config=configs[lead], error=row.error or "exhausted retries",
                traceback=row.traceback, retried=row.attempt > 1,
                attempts=row.attempt, worker_pid=row.worker_pid,
                wall_seconds=row.wall_s))
        else:
            if row is not None and row.state == DONE:
                cells.requeue(lead)  # its stored result no longer decodes
            ready.append((0.0, lead, (row.attempt if row else 0) + 1, 0.0))
    heapq.heapify(ready)

    def harvest(i: int, attempt: int, outcome, expired=False) -> None:
        """Fold one attempt's outcome into its row (which an expired lease
        already shows), then into the results or the queue."""
        failed = isinstance(outcome, FailedResult)
        if cells is not None and not expired:
            if not failed:  # a no-op once the worker committed ``done``
                cells.release(i, attempt)
            elif not cells.fail(i, attempt, outcome, policy.max_retries):
                # A worker of the killed run that leased this attempt
                # number committed its result first (DESIGN.md §6g).
                outcome = store.get_by_key(keys[i]) or outcome
                failed = isinstance(outcome, FailedResult)
        if failed and attempt <= policy.max_retries:
            counts["retries"] += 1
            delay = retry_delay_s(attempt, policy.retry_base_s,
                                  policy.retry_seed, i)
            heapq.heappush(
                ready, (time.monotonic() + delay, i, attempt + 1, delay))
        else:
            settle(i, outcome)

    def gave_up(i: int, attempt: int, error: str) -> FailedResult:
        return FailedResult(config=configs[i], error=error, traceback="",
                            retried=attempt > 1, attempts=attempt)

    processes = policy.processes or os.cpu_count() or 1
    processes = max(1, min(processes, len(ready)))
    pool = None
    if processes > 1:
        import multiprocessing

        pool = multiprocessing.Pool(
            processes=processes, maxtasksperchild=policy.max_tasks_per_child)
    store_spec = store.spec if store is not None else None
    outstanding: Dict[int, int] = {}  # cell -> attempt
    finished: queue.SimpleQueue = queue.SimpleQueue()  # (cell, attempt, outcome)

    def dispatch(i: int, attempt: int) -> None:
        outstanding[i] = attempt
        if pool is None:  # in-process: nothing can expire the lease
            finished.put((i, attempt, run_cell(
                i, configs[i], keys[i], attempt, store, sweep_id, policy)))
            return
        pool.apply_async(
            _pool_cell, ((i, configs[i], keys[i], attempt, store_spec,
                          sweep_id, policy),),
            callback=lambda out: finished.put((i, attempt, out)),
            error_callback=lambda exc: finished.put((i, attempt, exc)))

    try:
        while ready or outstanding:
            # Never more leases than workers, or a pool-queue wait would
            # expire them.
            while ready and len(outstanding) < processes:
                ready_at, i, attempt, delay = ready[0]
                if ready_at > time.monotonic():
                    if pool is not None:
                        break  # the wait below covers the backoff
                    time.sleep(delay)  # nothing else can run meanwhile
                heapq.heappop(ready)
                if cells and not cells.lease(i, attempt, policy.lease_s):
                    raise JournalError(f"cell {i} of sweep {sweep_id} is not "
                                       f"pending: another process runs it")
                counts["executed"] += 1
                dispatch(i, attempt)
            try:
                i, attempt, outcome = finished.get(timeout=policy.poll_s)
            except queue.Empty:
                pass
            else:
                if outstanding.get(i) != attempt:  # expired, ran anyway
                    counts["duplicate_executions"] += 1
                    logger.info("expired attempt %d of cell %d completed "
                                "anyway; verdict discarded", attempt, i)
                else:
                    del outstanding[i]
                    if isinstance(outcome, bytes):
                        outcome = decode_result(outcome)
                    elif isinstance(outcome, BaseException):
                        # Pool breakage: the task itself never raises.
                        outcome = gave_up(i, attempt,
                                          f"pool failure: {outcome!r}")
                    harvest(i, attempt, outcome)

            if cells is None or pool is None:
                continue
            for i, attempt in cells.expire(policy.max_retries, LEASE_EXPIRED):
                if outstanding.get(i) != attempt:
                    continue  # not a lease this loop holds
                del outstanding[i]
                counts["expired_leases"] += 1
                logger.warning(
                    "lease expired for cell %d (attempt %d) — worker "
                    "dead or stalled; re-queueing", i, attempt)
                harvest(i, attempt, gave_up(i, attempt, LEASE_EXPIRED),
                        expired=True)
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
    return results, counts  # type: ignore[return-value]


def _recorded(directory: Path) -> Optional[Tuple[dict, ResultStore]]:
    """The sweep a directory points to and its open store, or None when
    the directory holds no sweep."""
    try:
        pointer = json.loads((directory / POINTER_NAME).read_text())
    except FileNotFoundError:
        stray = (sorted(p.name for p in directory.iterdir()
                        if not p.name.startswith(STORE_NAME))
                 if directory.is_dir() else [])
        if stray:
            raise JournalError(
                f"{directory} holds {', '.join(stray)} but no {POINTER_NAME}:"
                f" a journal of the retired format (cell state outside the "
                f"store), or no sweep. `repro sweep start` the same grid with "
                f"a fresh --journal against its store (by default "
                f"{directory / STORE_NAME}): its results are reused as store "
                f"hits, since keys are content hashes") from None
        return None
    if not store_path(pointer["store"]).is_file():
        raise JournalError(
            f"sweep {pointer['sweep_id']} kept its cells in "
            f"{pointer['store']}, which is gone; `repro sweep start` the "
            f"grid again with a fresh --journal")
    return pointer, open_store(pointer["store"], salt=pointer["salt"])


class SweepFabric:
    """:func:`run_cells` over a sweep directory: the durable sweep.

    ``run(configs)`` starts the sweep; a later ``run()`` — after ``kill
    -9`` too — resumes it. Results are as :func:`run_many` returns them;
    the :class:`CompletionReport` is ``last_report`` and ``report.json``.
    """

    def __init__(self, journal_dir: Union[str, Path],
                 store: Optional[StoreSpec] = None,
                 config: Optional[FabricConfig] = None,
                 salt: Optional[str] = None):
        self.dir = Path(journal_dir)
        self.report_path = self.dir / REPORT_NAME
        self.config = config or FabricConfig()
        self._store_arg = store
        self._salt_arg = salt
        self.last_report: Optional[CompletionReport] = None

    def _start(self, configs: Sequence[ExperimentConfig]):
        """Record a new sweep: its cells in the store, then the pointer.
        The salt (explicit > ``REPRO_CACHE_SALT`` > default) is pinned."""
        salt = self._salt_arg or os.environ.get("REPRO_CACHE_SALT",
                                                DEFAULT_CODE_SALT)
        self.dir.mkdir(parents=True, exist_ok=True)
        try:
            store = open_store(self._store_arg if self._store_arg is not None
                               else self.dir / STORE_NAME, salt=salt)
        except ValueError as exc:  # a directory
            raise JournalError(f"sweep at {self.dir}: {exc}") from exc
        pointer = {"sweep_id": os.urandom(6).hex(), "store": store.spec,
                   "salt": salt}
        SweepCells(store, pointer["sweep_id"]).create(
            [config_key(cfg, salt) for cfg in configs], configs)
        _write_json(self.dir / POINTER_NAME, pointer)
        return pointer, store

    def _open(self, configs: Optional[Sequence[ExperimentConfig]]):
        """Start or resume; returns (pointer, store, cells, rows)."""
        recorded = _recorded(self.dir)
        if recorded is None and not configs:
            raise JournalError(f"no sweep to resume at {self.dir}; pass "
                               f"configs to start one")
        pointer, store = recorded or self._start(configs)
        if recorded and self._store_arg is not None and (
                store_path(self._store_arg).resolve()
                != store.path.resolve()):
            raise JournalError(
                f"sweep {pointer['sweep_id']} keeps its cells in "
                f"{store.spec}, not {store_path(self._store_arg)}; `repro "
                f"sweep start` the grid with a fresh --journal to run it "
                f"against that store (its results are reused as store hits)")
        cells = SweepCells(store, pointer["sweep_id"])
        rows = cells.load()
        if not rows:
            raise JournalError(f"{store.spec} holds no cells of sweep "
                               f"{pointer['sweep_id']}")
        grid = [row.config for row in rows] if configs is None else configs
        if recorded and ([config_key(cfg, pointer["salt"]) for cfg in grid]
                         != [row.key for row in rows]):
            raise JournalError(
                f"the configs passed to run() do not match the sweep at "
                f"{self.dir}; resume with run()" if configs is not None else
                "config keys no longer match the sweep's cells (the config "
                "schema changed); start a fresh sweep")
        return pointer, store, cells, rows

    def run(self, configs: Optional[Sequence[ExperimentConfig]] = None,
            progress: Optional[Callable[[int, int], None]] = None,
            ) -> List[Union[ExperimentResult, FailedResult]]:
        t_start = time.monotonic()
        pointer, store, cells, rows = self._open(configs)
        try:
            results, counts = run_cells(rows, store, self.config, progress,
                                        cells)
            failed = cells.exhausted()  # the report's verdicts are the rows'
        finally:
            store.close()
        report = self.last_report = CompletionReport(
            sweep_id=pointer["sweep_id"],
            status="partial" if failed else "complete",
            total=len(results), completed=len(results) - len(failed),
            failed=failed, wall_seconds=round(time.monotonic() - t_start, 3),
            store=pointer["store"], store_stats=store.stats(), **counts)
        report.write(self.report_path)
        logger.info("sweep %s %s: %d/%d cells, %d executed, %d store hits",
                    report.sweep_id, report.status, report.completed,
                    report.total, report.executed, report.store_hits)
        return results


def sweep_status(journal_dir: Union[str, Path]) -> dict:
    """Summarize a durable sweep from its rows, without running anything."""
    directory = Path(journal_dir)
    recorded = _recorded(directory)
    if recorded is None:
        raise JournalError(f"no sweep at {directory}")
    pointer, store = recorded
    cells = SweepCells(store, pointer["sweep_id"])
    try:
        by_status, executions = cells.counts()
        exhausted = cells.exhausted()
    finally:
        store.close()
    report = directory / REPORT_NAME
    return dict(pointer, cells=sum(by_status.values()), by_status=by_status,
                executions=executions, exhausted=exhausted,
                last_report=(json.loads(report.read_text())
                             if report.exists() else None))
