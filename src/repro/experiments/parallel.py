"""``run_many``: the sweep loop with no cell rows.

The paper's artifact notes that "as each simulation runs in a single
thread, the given script automatically leverages multiple CPUs to
parallelize simulations" — same here: configurations are embarrassingly
parallel, and both :class:`ExperimentConfig` and :class:`ExperimentResult`
are plain picklable data. ``run_many`` hands a list of configs to
:func:`repro.experiments.fabric.run_cells` — the one loop every sweep in
the repo runs through — and returns what it returns:

* exactly one entry per config, in config order, whatever the completion
  order; configs with equal content keys simulate once and share the
  result object;
* a config that raises yields a :class:`FailedResult` in its slot (full
  traceback, the config echoed back) instead of killing the sweep, after
  ``max_retries`` seeded-backoff retries; pool workers are recycled every
  few cells so a leaking simulation cannot poison a long sweep;
* with ``cache=``, stored configs are served from the result store
  without simulating and fresh clean results are written to it by the
  process that computed them.

It touches no table but the store's ``results``, and hashes each config
once. :class:`SweepFabric` is the same loop that also records every
cell's state in the store, for sweeps that must survive ``kill -9``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Union

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, FailedResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.store import StoreSpec


def run_many(
    configs: Sequence[ExperimentConfig],
    processes: Optional[int] = None,
    cache: Optional[StoreSpec] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    max_retries: Optional[int] = None,
    retry_base_s: float = 0.0,
    retry_seed: int = 0,
) -> List[Union[ExperimentResult, FailedResult]]:
    """Run experiments, one process per CPU (in-process when only one CPU
    or a single pending config — avoids pool overhead and keeps tracebacks
    simple).

    Always returns ``len(configs)`` entries in config order; a config that
    raises yields a :class:`FailedResult` instead of crashing the pool.

    ``max_retries`` re-runs each failed config up to that many extra times
    with seeded exponential backoff (``retry_base_s`` doubling per attempt,
    plus deterministic jitter from ``retry_seed`` — zero base means
    immediate retries). Transient failures — OOM kills, flaky I/O — often
    clear on retry; deterministic bugs fail every attempt and keep their
    :class:`FailedResult`, with ``attempts`` recording the total tries.

    ``cache`` — a :class:`~repro.experiments.store.ResultStore`, or a
    ``sqlite:PATH`` / bare file path spec (see
    :func:`repro.experiments.store.open_store`) — serves already-stored
    configs without simulating them and stores fresh clean results.
    ``progress(done, total)`` is called after every completed config, store
    hits included.
    """
    # The loop and the store load with the first sweep, not with the run
    # API (DESIGN.md §3).
    from repro.experiments.fabric import FabricConfig, run_cells
    from repro.experiments.store import open_store

    store = open_store(cache) if cache is not None else None
    policy = FabricConfig(processes=processes, max_retries=max_retries or 0,
                          retry_base_s=retry_base_s, retry_seed=retry_seed)
    return run_cells(configs, store, policy, progress)[0]
