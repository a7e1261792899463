"""Multi-process experiment execution, resilient to per-config failures.

The paper's artifact notes that "as each simulation runs in a single
thread, the given script automatically leverages multiple CPUs to
parallelize simulations" — same here: configurations are embarrassingly
parallel, and both :class:`ExperimentConfig` and :class:`ExperimentResult`
are plain picklable data, so a process pool maps over them directly.

Execution model (PR 3):

* Work streams through ``imap_unordered`` with explicit chunking — the
  parent consumes each result the moment its worker finishes instead of
  blocking on a full ``map``, so one slow config cannot stall progress
  reporting or cache writes for the rest of the sweep.
* Each worker keys its result by config index; the parent slots results
  back into a ``len(configs)``-sized list, so callers always see exactly
  one entry per config, in config order, regardless of completion order.
* Workers pack flow records into typed columns
  (:class:`repro.metrics.fct.PackedFlowRecords`) before pickling — tens of
  thousands of dataclasses become a handful of contiguous buffers on the
  worker→parent hop.
* An optional on-disk :class:`repro.experiments.cache.ExperimentCache`
  short-circuits configs whose results are already stored; fresh clean
  results are written back as they arrive.

A sweep of N configs must not die because one config is broken or one
worker leaks: exceptions are captured per config into a
:class:`FailedResult` (with the full traceback and the offending config
echoed back), and pool workers are recycled every few tasks so a leaking
simulation cannot poison a long sweep.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import random
import time
import traceback
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.store import ResultStore, open_store
from repro.metrics.fct import PackedFlowRecords

logger = logging.getLogger(__name__)

#: Pool workers are replaced after this many simulations, bounding the
#: damage a slow memory leak in any one config can do to a long sweep.
DEFAULT_MAX_TASKS_PER_CHILD = 16

#: Progress is logged at least this often (seconds) while results stream in.
PROGRESS_LOG_PERIOD_S = 10.0

#: Jitter fraction for retry backoff: each delay is stretched by up to
#: this much, seeded, so retrying cells never re-synchronize.
RETRY_JITTER = 0.5


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


def _worker(cfg: ExperimentConfig) -> Union[ExperimentResult, FailedResult]:
    start = time.monotonic()
    try:
        return run_experiment(cfg)
    except Exception as exc:  # noqa: BLE001 - the whole point is containment
        return FailedResult(config=cfg, error=repr(exc),
                            traceback=traceback.format_exc(),
                            worker_pid=os.getpid(),
                            wall_seconds=time.monotonic() - start)


def _indexed_worker(item: Tuple[int, ExperimentConfig]):
    """Pool task: run one config, return ``(index, packed result)``.

    The index key makes completion order irrelevant; packing shrinks the
    result's pickle before it crosses the process boundary.
    """
    index, cfg = item
    result = _worker(cfg)
    if isinstance(result, ExperimentResult):
        packed = PackedFlowRecords.pack(result.records)
        # ``replace`` keeps every other field — including ``telemetry``,
        # whose TelemetrySeries is already packed typed-array columns and
        # needs no special handling across the process boundary.
        return index, replace(result, records=[]), packed
    return index, result, None


def _unpack(result, packed) -> Union[ExperimentResult, FailedResult]:
    if packed is None:
        return result
    return replace(result, records=packed.unpack())


def default_chunksize(pending: int, processes: int) -> int:
    """Chunk so each worker sees ~4 batches (amortizes IPC without letting
    one chunk of slow configs serialize the tail), capped at 8."""
    return max(1, min(8, pending // (processes * 4) or 1))


def run_many(
    configs: Sequence[ExperimentConfig],
    processes: Optional[int] = None,
    max_tasks_per_child: Optional[int] = DEFAULT_MAX_TASKS_PER_CHILD,
    cache: Optional[Union[ResultStore, str, os.PathLike]] = None,
    chunksize: Optional[int] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    max_retries: Optional[int] = None,
    retry_base_s: float = 0.0,
    retry_seed: int = 0,
    coordinator=None,
) -> List[Union[ExperimentResult, FailedResult]]:
    """Run experiments, one process per CPU (serial when only one CPU or a
    single config — avoids pool overhead and keeps tracebacks simple).

    Always returns ``len(configs)`` entries in config order; a config that
    raises yields a :class:`FailedResult` instead of crashing the pool.

    ``max_retries`` re-runs each failed config up to that many extra times
    with seeded exponential backoff (``retry_base_s`` doubling per attempt,
    plus deterministic jitter from ``retry_seed`` — zero base means
    immediate retries). Transient failures — OOM kills, flaky I/O — often
    clear on retry; deterministic bugs fail every attempt and keep their
    :class:`FailedResult`, with ``attempts`` recording the total tries.

    ``cache`` — a :class:`~repro.experiments.store.ResultStore`, a
    directory path, or a ``sqlite:`` spec (see
    :func:`repro.experiments.store.open_store`) — serves already-stored
    configs without simulating them and stores fresh clean results.
    ``chunksize`` overrides the ``imap_unordered`` batching.
    ``progress(done, total)`` is called after every completed config, cache
    hits included.

    ``coordinator`` — a :class:`repro.experiments.fabric.SweepFabric` —
    delegates the whole sweep to the durable fabric (persistent work
    queue, leases, crash-resume; DESIGN.md §6g). The return contract is
    unchanged; every other execution knob is then read from the fabric's
    own config.
    """
    if coordinator is not None:
        return coordinator.run(configs, processes=processes,
                               progress=progress)
    total = len(configs)
    results: List[Optional[Union[ExperimentResult, FailedResult]]] = (
        [None] * total
    )
    if cache is not None:
        cache = open_store(cache)

    done = 0
    last_log = time.monotonic()

    def note_done(index: int) -> None:
        nonlocal done, last_log
        done += 1
        if progress is not None:
            progress(done, total)
        now = time.monotonic()
        if done == total or now - last_log >= PROGRESS_LOG_PERIOD_S:
            last_log = now
            failed = sum(1 for r in results if isinstance(r, FailedResult))
            logger.info("sweep progress: %d/%d configs done (%d failed)",
                        done, total, failed)

    # Cache pass: anything already stored never reaches the pool.
    pending: List[Tuple[int, ExperimentConfig]] = []
    for i, cfg in enumerate(configs):
        hit = cache.get(cfg) if cache is not None else None
        if hit is not None:
            results[i] = hit
            note_done(i)
        else:
            pending.append((i, cfg))
    if cache is not None and total and not pending:
        logger.info("sweep fully served from cache (%d configs)", total)

    if pending:
        if processes is None:
            processes = os.cpu_count() or 1
        processes = min(processes, len(pending))
        if processes <= 1:
            for i, cfg in pending:
                result = _worker(cfg)
                results[i] = result
                if cache is not None:
                    cache.put(cfg, result)
                note_done(i)
        else:
            if chunksize is None:
                chunksize = default_chunksize(len(pending), processes)
            with multiprocessing.Pool(
                processes=processes, maxtasksperchild=max_tasks_per_child
            ) as pool:
                for index, stripped, packed in pool.imap_unordered(
                    _indexed_worker, pending, chunksize=chunksize
                ):
                    result = _unpack(stripped, packed)
                    results[index] = result
                    if cache is not None:
                        cache.put(configs[index], result)
                    note_done(index)

    for rnd in range(1, (max_retries or 0) + 1):
        failed = [i for i, r in enumerate(results)
                  if isinstance(r, FailedResult)]
        if not failed:
            break
        logger.info("retry round %d/%d: %d failed config(s)",
                    rnd, max_retries, len(failed))
        for i in failed:
            delay = retry_delay_s(rnd, retry_base_s, retry_seed, i)
            if delay > 0:
                time.sleep(delay)
            fresh = _worker(configs[i])
            if isinstance(fresh, FailedResult):
                fresh.retried = True
                fresh.attempts = rnd + 1
            elif cache is not None:
                cache.put(configs[i], fresh)
            results[i] = fresh

    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]
