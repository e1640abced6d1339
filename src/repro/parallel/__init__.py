"""Parallel experiment engine: sharding, pool execution, checkpointing.

``repro.parallel`` turns the serial experiment driver into a multi-core
sweep engine without giving up the library's seeded-reproducibility
contract:

* :mod:`~repro.parallel.sharding` decomposes experiment grids into
  per-(topology, seed) tasks whose seeds are fixed deterministically in
  the parent process (optionally derived per cell via
  :func:`~repro.parallel.sharding.derive_cell_seed`);
* :mod:`~repro.parallel.scheduler` dispatches the tasks adaptively —
  cost-aware batching over a bounded in-flight window, fault-tolerant
  re-dispatch of tasks lost to worker deaths or timeouts;
* :mod:`~repro.parallel.runner` executes the tasks on a
  ``multiprocessing`` pool and streams each completed run into exact
  per-cell aggregates (:mod:`repro.analysis.streaming`), reassembling
  cells byte-identically to the serial backend (wall-clock readings
  aside) without ever retaining the full run list;
* :mod:`~repro.parallel.checkpoint` persists completed runs so
  interrupted sweeps resume instead of restarting, and — for
  multi-machine sweeps — splits one grid across per-shard checkpoint
  files plus a deterministic shard manifest (``--shard i/k``), merged
  back together by
  :func:`~repro.parallel.checkpoint.merge_shard_checkpoints`;
* :mod:`~repro.parallel.store` defines the run-store contract
  (``fetch``/``fetch_fold_fields``/``add``/``flush``) the engine
  restores from and writes to, and the one on-disk checkpoint writer:
  an append-only JSONL store (O(new records) per flush).

The engine is one call, ``run_experiments(specs, config=SweepConfig(...),
sinks=...)``, where :class:`~repro.parallel.runner.SweepConfig` holds
every execution knob (workers, backend, checkpoint, shard, timeouts,
telemetry) and validates them when it is built.  It backs
:func:`repro.api.sweep`/:func:`repro.api.query`, the ``repro-le sweep``
CLI command and ``benchmarks/bench_parallel_sweep.py``; the equivalence and
determinism guarantees are pinned down by ``tests/test_parallel_runner.py``,
``tests/test_scheduler.py`` and ``tests/test_checkpoint_store.py``.
"""

from .checkpoint import (
    ShardManifest,
    manifest_path,
    merge_shard_checkpoints,
    result_from_record,
    result_to_record,
    shard_checkpoint_path,
    writer_token,
)
from .runner import SweepConfig, TaskExecutionError, run_experiments
from .scheduler import DEFAULT_MAX_BATCH, AdaptiveScheduler, DispatchStats
from .sharding import (
    RunTask,
    derive_cell_seed,
    expand_run_tasks,
    parse_shard,
    select_shard,
    shard_round_robin,
    task_key,
    topology_fingerprint,
    validate_shard,
)
from .store import JsonlCheckpointStore, RunStore

__all__ = [
    "AdaptiveScheduler",
    "DEFAULT_MAX_BATCH",
    "DispatchStats",
    "JsonlCheckpointStore",
    "RunStore",
    "RunTask",
    "ShardManifest",
    "SweepConfig",
    "TaskExecutionError",
    "derive_cell_seed",
    "expand_run_tasks",
    "manifest_path",
    "merge_shard_checkpoints",
    "parse_shard",
    "result_from_record",
    "result_to_record",
    "run_experiments",
    "select_shard",
    "shard_checkpoint_path",
    "shard_round_robin",
    "task_key",
    "topology_fingerprint",
    "validate_shard",
]
