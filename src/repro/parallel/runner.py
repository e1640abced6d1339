"""The parallel experiment engine: ``run_experiments(specs, config=SweepConfig(...))``.

:class:`SweepConfig` is the engine's one configuration value (workers,
backend, checkpoint, shard, timeouts, telemetry), validated when it is
built; :func:`run_experiments` reads every knob from it.

Execution model
---------------

The engine expands every spec into per-(topology, seed) :class:`~repro.parallel.sharding.RunTask`
units in the parent process (seeds fixed at expansion time), dispatches the
tasks to a ``multiprocessing`` pool, and *streams* every completed run into
per-cell :class:`~repro.analysis.streaming.CellAggregate` accumulators
(plus any caller-supplied sinks) the moment it arrives — no backend
retains the full run list, so memory is O(cells), not O(runs × nodes).

Pool dispatch goes through one engine,
:class:`~repro.parallel.scheduler.AdaptiveScheduler`: a bounded in-flight
window of ``apply_async`` batches whose size tracks measured task cost —
cheap tasks are batched to amortize the IPC round-trip, expensive tasks
ship alone for load balance — with fault-tolerant re-dispatch when a
worker dies or a task exceeds ``task_timeout``.  ``max_batch=1`` ships
one task per message.  Without a pool (one worker, or a single pending
task) tasks run in-process through the same per-task worker body.

Determinism guarantees
----------------------

* **Scheduling-independent results.**  Each task's seed is decided before
  the pool exists, and the cell aggregates use exact arithmetic (see
  :mod:`repro.analysis.streaming`), so the assembled cells are identical
  for any worker count, start method, batch size, or completion order — including completions duplicated by fault-recovery
  re-dispatch, which are deduplicated by task key.  Only wall-clock
  readings differ from a serial run.
* **Checkpoint-transparent results.**  Completed runs are persisted to a
  run store (:class:`~repro.parallel.store.RunStore`): the append-only
  :class:`~repro.parallel.store.JsonlCheckpointStore` for a checkpoint
  path, or any store object passed as ``checkpoint`` — the memoized
  query passes its :class:`~repro.archive.store.ResultArchive`.  A
  resumed sweep replays the stored runs and computes the same cells an
  uninterrupted sweep would (a restored run has no per-node diagnostic
  payload: records never store one).
* **Shard-transparent results.**  ``shard=(i, k)`` restricts execution to
  a deterministic round-robin slice of the grid and persists it to a
  per-shard checkpoint plus a shard manifest; merging the shard
  checkpoints (:func:`~repro.parallel.checkpoint.merge_shard_checkpoints`)
  and replaying yields cells bit-identical to an unsharded sweep.
* **Profile consistency.**  A cell's expansion profile is the one its
  topology instance memoizes (:meth:`~repro.graphs.topology.Topology.memoized`),
  as in the serial driver.  The parent measures the profiles of the cells
  it will assemble before the pool exists; the memo travels with the
  pickled topology, so a worker running such a cell's tasks reads ``t_mix``
  and Φ instead of measuring them.

Workers receive their tasks by pickling, so a registered protocol's
factory must be an importable module-level callable; lambdas and
closures only work with the in-process backend.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..analysis import experiments
from ..analysis.experiments import (
    ExperimentResult,
    ExperimentSpec,
    cell_from_aggregate,
)
from ..analysis.streaming import CellAggregatingSink, ResultSink, abort_sinks
from ..core.errors import ConfigurationError
from ..core.simulator import BACKENDS, backend_scope, set_default_backend
from ..election.base import LeaderElectionResult
from ..obs import (
    ProfileAggregate,
    Stopwatch,
    TelemetrySink,
    collect_spans,
    span,
    validate_profiler,
)
from .checkpoint import (
    ShardManifest,
    manifest_path,
    record_fold_fields,
    result_from_record,
    result_to_record,
    shard_checkpoint_path,
)
from .scheduler import (
    DEFAULT_MAX_BATCH,
    AdaptiveScheduler,
    TaskExecutionError,
    _Batch,
    _BatchItem,
    _FinishFn,
    _execute_batch,
    _validate_timeout,
)
from .sharding import (
    RunTask,
    expand_run_tasks,
    parse_shard,
    select_shard,
    validate_shard,
)
from .store import JsonlCheckpointStore, RunStore

__all__ = [
    "SweepConfig",
    "TaskExecutionError",
    "run_experiments",
]


@dataclass(frozen=True)
class SweepConfig:
    """How a sweep or query executes, as one validated value.

    The one way to configure :func:`run_experiments` (and, through it,
    :func:`repro.archive.query.query_experiments` and the
    :mod:`repro.api` facade): build it at the edge — CLI parsing, HTTP
    parameters, test setup — and hand the same value to every call.
    Every check runs here, when the config is built, so a config is
    valid or invalid whichever path later runs it.  The defaults: one
    worker, the ``auto`` simulator backend, no checkpoint.  Only
    ``derive_seeds``/``base_seed`` change what runs; results are
    bit-identical for any worker count, backend, batch size, timeout,
    checkpoint, shard layout or telemetry setting.
    """

    #: worker processes (1 = in-process serial execution)
    workers: int = 1
    #: simulator core for every run, pool workers included: "auto",
    #: "round" or "event" (see :class:`repro.core.simulator.SynchronousSimulator`)
    backend: str = "auto"
    #: multiprocessing start method (platform default when ``None``)
    start_method: Optional[str] = None
    #: run store to resume from and write to: a path (an append-only
    #: :class:`~repro.parallel.store.JsonlCheckpointStore`) or any
    #: :class:`~repro.parallel.store.RunStore`, such as a
    #: :class:`~repro.archive.store.ResultArchive`
    checkpoint: Optional[Union[str, Path, RunStore]] = None
    #: ``(i, k)`` / ``"i/k"`` round-robin slice; requires a checkpoint
    #: path and is stored parsed, as a tuple
    shard: Optional[Union[str, Tuple[int, int]]] = None
    #: derive an independent deterministic seed per cell from ``base_seed``
    #: (see :func:`repro.parallel.sharding.derive_cell_seed`); a
    #: ``base_seed`` without ``derive_seeds`` is rejected, since nothing
    #: would read it
    derive_seeds: bool = False
    base_seed: Optional[int] = None
    #: seconds before a pool task's lease expires and it is re-dispatched
    task_timeout: Optional[float] = None
    #: most tasks per dispatched batch (``1`` ships one task per message)
    max_batch: Optional[int] = None
    #: per-task timing records and the end-of-sweep summary
    telemetry: Optional[TelemetrySink] = None
    #: in-worker profiler name from :data:`repro.obs.PROFILERS`
    #: (requires ``telemetry``)
    profile: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown simulator backend {self.backend!r}: expected one of "
                f"{BACKENDS}"
            )
        _validate_timeout("task_timeout", self.task_timeout)
        if self.max_batch is not None and self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.profile is not None:
            if self.telemetry is None:
                raise ConfigurationError(
                    "profile= (--profile) requires telemetry= (--telemetry): "
                    "hotspots are reported through the telemetry summary"
                )
            try:
                validate_profiler(self.profile)
            except ValueError as error:
                raise ConfigurationError(str(error)) from error
        if self.base_seed is not None and not self.derive_seeds:
            raise ConfigurationError(
                "base_seed= (--base-seed) requires derive_seeds=True "
                "(--derive-seeds): without it every cell runs seeds 0..N-1 "
                "and the base seed would be ignored"
            )
        if self.shard is not None:
            shard = (
                parse_shard(self.shard)
                if isinstance(self.shard, str)
                else validate_shard(*self.shard)
            )
            if not _is_path(self.checkpoint):
                raise ConfigurationError(
                    "a sharded sweep requires a checkpoint path: shard results "
                    "must be persisted to files to be merged (pass "
                    "checkpoint=/--checkpoint)"
                )
            object.__setattr__(self, "shard", shard)


def _is_path(checkpoint) -> bool:
    return isinstance(checkpoint, (str, os.PathLike))


class _PoolEngine:
    """One sweep's worker pool and the scheduler driving it.

    The pool is created only when :meth:`execute` needs one — more than
    one worker and more than one pending task — and is sized to
    ``min(workers, pending count)``.
    """

    def __init__(self, config: SweepConfig) -> None:
        self._config = config
        self._pool = None
        self._scheduler: Optional[AdaptiveScheduler] = None

    def __enter__(self) -> "_PoolEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool = None

    def execute(self, pending: Sequence[RunTask], finish: _FinishFn) -> None:
        """Run ``pending`` to completion, calling ``finish`` per task."""
        if not pending:
            return
        config = self._config
        if config.workers > 1 and len(pending) > 1:
            context = multiprocessing.get_context(config.start_method)
            # set_default_backend as initializer: the backend choice
            # must reach the workers under "spawn" too, where the
            # parent's in-process scope stack does not survive the
            # fork-less hop.
            self._pool = context.Pool(
                processes=min(config.workers, len(pending)),
                initializer=set_default_backend,
                initargs=(config.backend,),
            )
            self._scheduler = AdaptiveScheduler(
                self._pool,
                config.workers,
                telemetry=config.telemetry is not None,
                profile=config.profile,
                task_timeout=config.task_timeout,
                max_batch=(
                    DEFAULT_MAX_BATCH
                    if config.max_batch is None
                    else config.max_batch
                ),
            )
            self._scheduler.run(pending, finish)
        else:
            self._execute_inline(pending, finish)

    def _execute_inline(self, pending, finish: _FinishFn) -> None:
        config = self._config
        with backend_scope(config.backend):
            for task in pending:
                # A one-task batch through the pool workers' own entry
                # point: failures carry the same grid-coordinate context
                # and telemetry records the same fields either way.
                batch = _Batch(
                    (_BatchItem(task, 1),),
                    time.monotonic(),
                    config.telemetry is not None,
                    config.profile,
                )
                finish(*_execute_batch(batch)[0])

    def scheduler_stats(self) -> Optional[Dict[str, int]]:
        """The adaptive scheduler's dispatch counters (``None`` when the
        sweep never went through the scheduler)."""
        if self._scheduler is None:
            return None
        return self._scheduler.stats.as_dict()


def run_experiments(
    specs: Sequence[ExperimentSpec],
    *,
    config: Optional[SweepConfig] = None,
    sinks: Sequence[ResultSink] = (),
) -> List[ExperimentResult]:
    """Run several specs through one worker pool and stream per-cell aggregates.

    ``config`` (a :class:`SweepConfig`; the defaults when ``None``)
    decides *how* the grid executes, never *what* it measures.  Pooling
    the specs' tasks together keeps workers busy even when one algorithm
    or topology dominates the cost (the benchmarks' suites are highly
    skewed).  ``config.derive_seeds`` switches every cell to an
    independent deterministic seed derived from ``config.base_seed``;
    leave it off for results identical to the serial
    :func:`repro.analysis.experiments.run_experiment`.

    With more than one worker, tasks are dispatched by
    :class:`~repro.parallel.scheduler.AdaptiveScheduler` (cost-adaptive
    batching with fault-tolerant re-dispatch).  ``task_timeout`` bounds
    one task's lease: an expired lease — straggler or dead worker — is
    re-dispatched; worker *death* is detected and recovered even without
    a timeout.  ``max_batch`` caps the batch size.

    ``checkpoint`` is a path — an append-only
    :class:`~repro.parallel.store.JsonlCheckpointStore` — or an
    object meeting the :class:`~repro.parallel.store.RunStore` contract
    (``fetch``/``fetch_fold_fields``/``add``/``flush``), such as a
    :class:`~repro.archive.store.ResultArchive`.  Stored runs are
    replayed in sorted key order; the rest execute, are added to the
    store, and are flushed even when a run raises, so completed runs are
    never lost.

    ``shard=(i, k)`` runs only shard ``i`` of a deterministic ``k``-way
    round-robin split of the pooled task list.  Its completed runs
    persist to the shard's own file (``<base>.shard<i>of<k>.json``) and
    the job (idempotently) writes the sweep's shard manifest next to it,
    so ``k`` independent jobs — on as many machines — cover the grid
    without contending on one file and are folded back together by
    :func:`repro.parallel.checkpoint.merge_shard_checkpoints`.  The
    returned results contain only the cells this shard touched (cells
    with zero local runs are omitted).

    ``sinks`` are caller-supplied
    :class:`~repro.analysis.streaming.ResultSink` objects fed each run —
    fresh or restored from a checkpoint — as it completes.  Nothing
    retains the runs themselves; to keep them, pass a
    :class:`~repro.analysis.streaming.CollectingSink` and read
    ``results_for(spec_name, topology_index)`` afterwards.

    ``telemetry`` attaches a :class:`repro.obs.TelemetrySink`: every
    freshly-executed task ships a timing record back from its worker
    (queue wait, simulate time, span totals, worker id, batch size,
    dispatch attempt), the parent adds fold/checkpoint durations, and the
    sink streams the records to JSONL while building the end-of-sweep
    utilization/straggler summary; the closing driver record carries the
    scheduler's dispatch counters.  The sink's lifecycle (close on
    success, abort on failure) is owned here — do not also pass it in
    ``sinks``.  With telemetry off this function's hot path is
    unchanged.  ``profile`` runs each task under an in-worker profiler
    and reports pool-wide hotspots through the telemetry summary.
    """
    config = config if config is not None else SweepConfig()
    telemetry = config.telemetry
    shard = config.shard
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ConfigurationError(
            f"experiment specs must have unique names, got {names}"
        )
    checkpoint = config.checkpoint

    per_spec_tasks: List[List[RunTask]] = [
        expand_run_tasks(
            spec, derive_seeds=config.derive_seeds, base_seed=config.base_seed
        )
        for spec in specs
    ]
    all_tasks: List[RunTask] = [task for tasks in per_spec_tasks for task in tasks]
    #: task key -> (spec name, topology index, seed index): the routing
    #: table that folds completed runs into their cells in any order.
    route: Dict[str, Tuple[str, int, int]] = {
        task.key: (task.spec_name, task.topology_index, task.seed_index)
        for task in all_tasks
    }

    store = None
    if shard is not None:
        shard_index, shard_count = shard
        manifest = ShardManifest.plan(
            checkpoint, [task.key for task in all_tasks], shard_count
        )
        manifest.write(manifest_path(checkpoint))
        my_tasks = select_shard(all_tasks, shard_index, shard_count)
        store = JsonlCheckpointStore(
            shard_checkpoint_path(checkpoint, shard_index, shard_count)
        )
    else:
        my_tasks = all_tasks
        if _is_path(checkpoint):
            store = JsonlCheckpointStore(checkpoint)
        elif checkpoint is not None:
            store = checkpoint

    aggregates = CellAggregatingSink()
    all_sinks: List[ResultSink] = [aggregates, *sinks]
    if telemetry is not None:
        # Last in the fan-out so its (no-op) emit never delays real sinks;
        # close/abort lifecycle is shared with every other sink.
        all_sinks.append(telemetry)
        telemetry.begin_sweep(
            workers=config.workers,
            backend=config.backend,
            profile=config.profile,
            shard=f"{shard[0]}/{shard[1]}" if shard is not None else None,
        )
    profile_aggregate = ProfileAggregate() if config.profile is not None else None

    def consume(key: str, result: LeaderElectionResult, elapsed: float) -> None:
        spec_name, topology_index, seed_index = route[key]
        for sink in all_sinks:
            sink.emit(spec_name, topology_index, seed_index, result, elapsed)

    # Only the sinks past the aggregator need a restored run as a result.
    result_sinks = all_sinks[1:]

    def restore(store: RunStore, keys: List[str]) -> Set[str]:
        """Replay the stored runs of ``keys`` in sorted key order; return their keys."""
        if not result_sinks:
            stored = store.fetch_fold_fields(keys)
            for key in sorted(stored):
                spec_name, topology_index, _ = route[key]
                aggregates.fold(spec_name, topology_index, stored[key])
            return set(stored)
        records = store.fetch(keys)
        for key in sorted(records):
            spec_name, topology_index, seed_index = route[key]
            record = records[key]
            aggregates.fold(spec_name, topology_index, record_fold_fields(record))
            result, elapsed = result_from_record(record)
            for sink in result_sinks:
                sink.emit(spec_name, topology_index, seed_index, result, elapsed)
        return set(records)

    def execute():
        return _execute_and_assemble(
            specs,
            my_tasks,
            consume,
            restore,
            config=config,
            store=store,
            aggregates=aggregates,
            profile_aggregate=profile_aggregate,
        )

    try:
        if telemetry is not None:
            # The driver-side collector catches the parent's own spans
            # (restore, checkpoint flush I/O) for the closing record; the
            # stopwatch is the sweep's elapsed wall-clock, the denominator
            # of every utilization figure.
            with collect_spans() as driver_spans:
                stopwatch = Stopwatch()
                results, restored, scheduler_stats = execute()
                elapsed_seconds = stopwatch.elapsed()
            telemetry.record_driver(
                elapsed_seconds=elapsed_seconds,
                restored=restored,
                spans=driver_spans.totals(),
                profile_hotspots=(
                    profile_aggregate.hotspots()
                    if profile_aggregate is not None and profile_aggregate
                    else None
                ),
                scheduler=scheduler_stats,
            )
        else:
            results, _, _ = execute()
    except BaseException:
        # A run raised: abort the sinks — an export sink (JsonlSink)
        # flushes the records of the runs that did complete without
        # publishing an incomplete sweep.
        abort_sinks(all_sinks)
        raise
    for sink in all_sinks:
        sink.close()
    return results


def _execute_and_assemble(
    specs,
    my_tasks,
    consume,
    restore,
    *,
    config: SweepConfig,
    store,
    aggregates,
    profile_aggregate,
) -> Tuple[List[ExperimentResult], int, Optional[Dict[str, int]]]:
    """Run the pending tasks and assemble per-spec results (see caller).

    Stored runs replay first, in sorted key order, through ``restore``:
    a restored run folds into its cell from the store's fold fields
    (:meth:`~repro.parallel.store.RunStore.fetch_fold_fields`), and whole
    records are fetched, and a result rebuilt from each, only when sinks
    past the cell aggregator (caller sinks, telemetry) receive them.
    Fresh runs reach every sink through ``consume``.

    Returns ``(results, restored, scheduler_stats)`` where ``restored``
    counts the runs replayed from checkpoints rather than executed —
    those carry no per-task telemetry (nothing was measured), so the
    telemetry summary reports them separately — and ``scheduler_stats``
    is the adaptive scheduler's counter dict (``None`` when every task
    ran inline).
    """

    completed_keys = set()
    if store is not None:
        with span("restore"):
            completed_keys = restore(store, [task.key for task in my_tasks])

    def finish(key, result, elapsed, task_telemetry, profile_payload):
        # Parent-side epilogue of one task.  On the telemetry path,
        # stamp the two phases that happen here (checkpoint append,
        # sink fan-out) onto the worker's record, then emit it.  The
        # stamps go through the injectable-clock Stopwatch — the same
        # layer every other telemetry timing uses.
        if task_telemetry is not None:
            stopwatch = Stopwatch()
            if store is not None:
                store.add(key, result_to_record(result, elapsed))
            task_telemetry.checkpoint_seconds = stopwatch.elapsed()
            stopwatch.restart()
            consume(key, result, elapsed)
            task_telemetry.fold_seconds = stopwatch.elapsed()
            if profile_payload is not None:
                profile_aggregate.merge(profile_payload)
            config.telemetry.emit_telemetry(task_telemetry)
        else:
            if store is not None:
                store.add(key, result_to_record(result, elapsed))
            consume(key, result, elapsed)

    # Measure the profiled cells' topologies before the pool exists: the
    # memo ships with each pickled task, so workers do no BLAS work for
    # them, and assembly below reads the same memo.
    profiled = {spec.name for spec in specs if spec.collect_profile}
    for topology in {
        id(task.topology): task.topology
        for task in my_tasks
        if task.spec_name in profiled
    }.values():
        experiments.expansion_profile(topology)

    pending = [task for task in my_tasks if task.key not in completed_keys]
    with _PoolEngine(config) as engine:
        try:
            engine.execute(pending, finish)
        finally:
            # Sharded jobs flush even with nothing pending: a shard
            # whose round-robin slice is empty (grid smaller than k)
            # must still leave its (empty) checkpoint file behind, or
            # the merge would report the fully-executed split as
            # missing a shard.
            if store is not None and (pending or config.shard is not None):
                store.flush()
        scheduler_stats = engine.scheduler_stats()
    restored = len(completed_keys)

    results: List[ExperimentResult] = []
    for spec in specs:
        experiment = ExperimentResult(name=spec.name)
        for topology_index, topology in enumerate(spec.topologies):
            aggregate = aggregates.aggregate_for(spec.name, topology_index)
            if aggregate is None:
                # Possible only under sharding: none of this cell's runs
                # landed in our shard slice.
                continue
            experiment.cells.append(
                cell_from_aggregate(
                    topology,
                    aggregate,
                    profile=(
                        experiments.expansion_profile(topology)
                        if spec.collect_profile
                        else None
                    ),
                    protocol=spec.protocol_token(),
                )
            )
        results.append(experiment)
    return results, restored, scheduler_stats
