"""The parallel experiment engine: ``run_experiments(specs, config=SweepConfig(...))``.

:class:`SweepConfig` is the engine's one configuration value (workers,
backend, checkpoint, shard, timeouts, telemetry), validated when it is
built; :func:`run_experiments` reads every knob from it.

Execution model
---------------

One sweep is one pass through :func:`run_experiments`: the parent expands
every spec into per-(topology, seed) :class:`~repro.parallel.sharding.RunTask`
units (seeds fixed at expansion time), opens the run store and replays the
runs it holds, measures the profiled cells' topologies, executes the
pending tasks, flushes the store and assembles the cells.  Every completed
run *streams* into per-cell :class:`~repro.analysis.streaming.CellAggregate`
accumulators (plus any caller-supplied sinks) the moment it arrives —
nothing retains the full run list, so memory is O(cells), not O(runs × nodes).

More than one worker and more than one pending task start a
``multiprocessing`` pool driven by one engine,
:class:`~repro.parallel.scheduler.AdaptiveScheduler`: a bounded in-flight
window of ``apply_async`` batches whose size tracks measured task cost —
cheap tasks are batched to amortize the IPC round-trip, expensive tasks
ship alone for load balance — with fault-tolerant re-dispatch when a
worker dies or a task exceeds ``task_timeout``.  ``max_batch=1`` ships
one task per message.  Otherwise tasks run in-process through the same
per-task worker body.

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
from contextlib import nullcontext
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
    #: per-task timing records and the end-of-sweep summary: an export
    #: the engine owns, never also passed in ``sinks``
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
    replayed in sorted key order (see :func:`_restore`); the rest
    execute, are added to the store, and are flushed even when a run
    raises, so completed runs are never lost.

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
    ``results_for(spec_name, topology_index)`` afterwards.  Every sink is
    closed when the sweep completes and aborted when anything from the
    replay through the assembly raises.

    ``telemetry`` attaches a :class:`repro.obs.TelemetrySink`, an export
    this engine owns: it receives no runs and is never passed in
    ``sinks``.  Every freshly-executed task ships a timing record back
    from its worker (queue wait, simulate time, span totals, worker id,
    batch size, dispatch attempt), the parent adds fold/checkpoint
    durations, and the export streams them to JSONL while building the
    end-of-sweep summary; the closing driver record carries the parent's
    spans, the count of replayed runs and the scheduler's counters.  It
    is closed, or aborted, after the sinks.  With telemetry off no span
    is collected and no task is timed in the parent.  ``profile`` runs
    each task under an in-worker profiler and reports pool-wide hotspots
    through the telemetry summary.
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

    all_tasks: List[RunTask] = [
        task
        for spec in specs
        for task in expand_run_tasks(
            spec, derive_seeds=config.derive_seeds, base_seed=config.base_seed
        )
    ]
    #: task key -> (spec name, topology index, seed index): the routing
    #: table that folds completed runs into their cells in any order.
    route: Dict[str, Tuple[str, int, int]] = {
        task.key: (task.spec_name, task.topology_index, task.seed_index)
        for task in all_tasks
    }

    store: Optional[RunStore] = None
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
        telemetry.begin_sweep(
            workers=config.workers,
            backend=config.backend,
            profile=config.profile,
            shard=f"{shard[0]}/{shard[1]}" if shard is not None else None,
        )
    profile_aggregate = ProfileAggregate() if config.profile is not None else None
    #: close/abort order: the sinks, then the telemetry export last
    lifecycle = all_sinks if telemetry is None else [*all_sinks, telemetry]

    def finish(key, result, elapsed, task_telemetry, profile_payload):
        # Parent-side epilogue of one task: checkpoint append, then sink
        # fan-out.  A telemetry record from the worker gets both phases
        # stamped on it (through the injectable-clock Stopwatch) and is emitted.
        if task_telemetry is not None:
            phase = Stopwatch()
        if store is not None:
            store.add(key, result_to_record(result, elapsed))
        if task_telemetry is not None:
            task_telemetry.checkpoint_seconds = phase.elapsed()
            phase.restart()
        spec_name, topology_index, seed_index = route[key]
        for sink in all_sinks:
            sink.emit(spec_name, topology_index, seed_index, result, elapsed)
        if task_telemetry is not None:
            task_telemetry.fold_seconds = phase.elapsed()
            if profile_payload is not None:
                profile_aggregate.merge(profile_payload)
            telemetry.emit_telemetry(task_telemetry)

    try:
        # With telemetry, the driver-side collector catches the parent's
        # own spans (restore, checkpoint I/O) for the closing record; the
        # stopwatch is the sweep's elapsed wall-clock, the denominator of
        # every utilization figure.
        with collect_spans() if telemetry is not None else nullcontext() as driver_spans:
            stopwatch = Stopwatch()
            completed_keys: Set[str] = set()
            if store is not None:
                with span("restore"):
                    completed_keys = _restore(
                        store, my_tasks, route, aggregates, sinks
                    )

            # Measure the profiled cells' topologies before the pool
            # exists: the memo ships with each pickled task, so workers do
            # no BLAS work for them, and the assembly reads the same memo.
            profiled = {spec.name for spec in specs if spec.collect_profile}
            for topology in {
                id(task.topology): task.topology
                for task in my_tasks
                if task.spec_name in profiled
            }.values():
                experiments.expansion_profile(topology)

            pending = [task for task in my_tasks if task.key not in completed_keys]
            try:
                scheduler_stats = _execute(config, pending, finish)
            finally:
                # Sharded jobs flush even with nothing pending: a shard
                # whose round-robin slice is empty (grid smaller than k)
                # must still leave its (empty) checkpoint file behind, or
                # the merge would report the fully-executed split as
                # missing a shard.
                if store is not None and (pending or shard is not None):
                    store.flush()
            results = _assemble(specs, aggregates)
            elapsed_seconds = stopwatch.elapsed()
        if telemetry is not None:
            telemetry.record_driver(
                elapsed_seconds=elapsed_seconds,
                restored=len(completed_keys),
                spans=driver_spans.totals(),
                profile_hotspots=(
                    profile_aggregate.hotspots() if profile_aggregate else None
                ),
                scheduler=scheduler_stats,
            )
    except BaseException:
        # Something raised: abort the sinks, then telemetry — an export
        # (JsonlSink, TelemetrySink) keeps the records of the runs that did
        # complete in its staging file without publishing an incomplete sweep.
        abort_sinks(lifecycle)
        raise
    for sink in lifecycle:
        sink.close()
    return results


def _restore(
    store: RunStore,
    tasks: Sequence[RunTask],
    route: Dict[str, Tuple[str, int, int]],
    aggregates: CellAggregatingSink,
    sinks: Sequence[ResultSink],
) -> Set[str]:
    """Replay the stored runs of ``tasks`` in sorted key order; return their keys.

    Each cell folds its stored rows in one call, in sorted key order,
    from the store's fold fields
    (:meth:`~repro.parallel.store.RunStore.fetch_fold_fields`).  Whole
    records are fetched, and a result rebuilt from each, only when the
    caller passed ``sinks`` to receive them; the telemetry export is not
    one of them.  Replayed runs carry no per-task telemetry: nothing was
    measured.
    """
    keys = [task.key for task in tasks]
    if sinks:
        records = store.fetch(keys)
        stored = {key: record_fold_fields(record) for key, record in records.items()}
    else:
        stored = store.fetch_fold_fields(keys)
    ordered = sorted(stored)
    cells: Dict[Tuple[str, int], List[Sequence[object]]] = {}
    for key in ordered:
        spec_name, topology_index, _ = route[key]
        cells.setdefault((spec_name, topology_index), []).append(stored[key])
    for (spec_name, topology_index), rows in cells.items():
        aggregates.fold(spec_name, topology_index, rows)
    if sinks:
        for key in ordered:
            spec_name, topology_index, seed_index = route[key]
            result, elapsed = result_from_record(records[key])
            for sink in sinks:
                sink.emit(spec_name, topology_index, seed_index, result, elapsed)
    return set(stored)


def _execute(
    config: SweepConfig, pending: Sequence[RunTask], finish: _FinishFn
) -> Optional[Dict[str, int]]:
    """Run ``pending`` to completion, calling ``finish`` once per task.

    Returns the adaptive scheduler's dispatch counters, or ``None`` when
    no pool ran (one worker, or at most one pending task).
    """
    if config.workers > 1 and len(pending) > 1:
        context = multiprocessing.get_context(config.start_method)
        # set_default_backend as initializer: the backend choice must
        # reach the workers under "spawn" too, where the parent's
        # in-process scope stack does not survive the fork-less hop.
        # Leaving the block terminates the pool, also when a task raised.
        with context.Pool(
            processes=min(config.workers, len(pending)),
            initializer=set_default_backend,
            initargs=(config.backend,),
        ) as pool:
            scheduler = AdaptiveScheduler(
                pool,
                config.workers,
                telemetry=config.telemetry is not None,
                profile=config.profile,
                task_timeout=config.task_timeout,
                max_batch=(
                    DEFAULT_MAX_BATCH if config.max_batch is None else config.max_batch
                ),
            )
            scheduler.run(pending, finish)
        return scheduler.stats.as_dict()
    with backend_scope(config.backend):
        for task in pending:
            # A one-task batch through the pool workers' own entry point:
            # failures carry the same grid-coordinate context and
            # telemetry records the same fields either way.
            batch = _Batch(
                (_BatchItem(task, 1),),
                time.monotonic(),
                config.telemetry is not None,
                config.profile,
            )
            finish(*_execute_batch(batch)[0])
    return None


def _assemble(
    specs: Sequence[ExperimentSpec], aggregates: CellAggregatingSink
) -> List[ExperimentResult]:
    """One :class:`ExperimentResult` per spec, its cells built from ``aggregates``."""
    results: List[ExperimentResult] = []
    for spec in specs:
        experiment = ExperimentResult(name=spec.name)
        protocol = spec.protocol_token()
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
                    protocol=protocol,
                )
            )
        results.append(experiment)
    return results
