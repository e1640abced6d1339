"""Per-task telemetry: JSONL export and end-of-sweep summaries.

The sweep engine measures the protocols exactly; this module measures the
*sweep*.  Each completed task carries a :class:`TaskTelemetry` record back
from its worker — queue wait, simulate time, span totals, worker id — the
parent adds its own fold/checkpoint timings, and a :class:`TelemetrySink`
streams one JSON line per task to disk while folding the same records
into a :class:`TelemetryAggregator`.  The aggregator answers the
operational questions a million-run sharded sweep raises: which workers
idled (utilization), which (experiment, topology) cells dominate
(latency percentiles), which individual tasks straggled, and how much of
the wall-clock went to checkpoint I/O.

Two consumers, one codepath
---------------------------

The CLI prints the summary live (``repro-le sweep --telemetry out.jsonl``)
and recomputes it post-hoc (``repro-le stats out.jsonl``).  Both paths
feed the *same* record dictionaries through the *same* aggregator —
the sink aggregates exactly what it serializes, and Python's JSON floats
round-trip exactly — so the post-hoc summary reproduces the live one bit
for bit.  That equality is a test, not an aspiration.

Layering: this package is deliberately stdlib-only, so ``repro.obs``
sits below every execution layer it instruments.  ``TelemetrySink`` is
not a result sink: the sweep engine owns it, writes its records and
publishes or aborts it after the result sinks, and never hands it a run.

Telemetry never feeds back into execution: records carry task keys but
task keys never carry telemetry, and nothing here touches seeds, RNG, or
aggregation — the bit-identical-with-telemetry-on equivalence tests pin
that down.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..core.errors import ConfigurationError
from .spans import SpanCollector
from .staged import StagedJsonl

__all__ = [
    "TASK_RECORD_FIELDS",
    "TELEMETRY_VERSION",
    "TaskTelemetry",
    "TelemetryAggregator",
    "TelemetrySink",
    "read_telemetry",
    "summarize_telemetry",
]

#: Version stamp written in every sweep header record so offline readers
#: can detect schema drift.  Version 2 added the dispatch fields
#: (``batch_size``, ``attempt``) when the adaptive scheduler landed;
#: version-1 files still summarize (the new fields default to 1).
TELEMETRY_VERSION = 2

#: Fields every ``kind="task"`` record carries (the JSONL schema; CI
#: validates exported files against it).
TASK_RECORD_FIELDS = (
    "kind",
    "task_key",
    "experiment",
    "topology",
    "topology_index",
    "seed",
    "seed_index",
    "worker",
    "backend",
    "queue_wait_seconds",
    "simulate_seconds",
    "task_seconds",
    "fold_seconds",
    "checkpoint_seconds",
    "spans",
    "batch_size",
    "attempt",
)


@dataclass
class TaskTelemetry:
    """Timing facts of one completed run, assembled across two processes.

    The worker fills the execution-side fields (everything through
    ``spans``); the parent then stamps ``fold_seconds`` (sink fan-out) and
    ``checkpoint_seconds`` (checkpoint append) before the record is
    emitted — those two phases happen in the parent by design.

    ``queue_wait_seconds`` is worker-start minus parent-submit on the
    shared monotonic clock: meaningful on one machine (where the pool
    lives), and the direct measure of dispatch backlog.
    """

    task_key: str
    experiment: str
    topology: str
    topology_index: int
    seed: int
    seed_index: int
    worker: str
    backend: str
    queue_wait_seconds: float
    simulate_seconds: float
    task_seconds: float
    spans: Dict[str, Dict[str, object]] = field(default_factory=dict)
    fold_seconds: float = 0.0
    checkpoint_seconds: float = 0.0
    #: how many tasks shared this task's dispatch batch (1 = singleton;
    #: in-process runs are always singletons)
    batch_size: int = 1
    #: which dispatch attempt produced this record (>1 means the task was
    #: re-dispatched after a worker death or lease timeout)
    attempt: int = 1

    def as_record(self) -> Dict[str, object]:
        """The JSONL ``kind="task"`` record (see ``TASK_RECORD_FIELDS``)."""
        return {
            "kind": "task",
            "task_key": self.task_key,
            "experiment": self.experiment,
            "topology": self.topology,
            "topology_index": self.topology_index,
            "seed": self.seed,
            "seed_index": self.seed_index,
            "worker": self.worker,
            "backend": self.backend,
            "queue_wait_seconds": self.queue_wait_seconds,
            "simulate_seconds": self.simulate_seconds,
            "task_seconds": self.task_seconds,
            "fold_seconds": self.fold_seconds,
            "checkpoint_seconds": self.checkpoint_seconds,
            "spans": self.spans,
            "batch_size": self.batch_size,
            "attempt": self.attempt,
        }


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted, non-empty list."""
    rank = max(1, -(-int(q * len(sorted_values) * 100) // 100))  # ceil(q*n)
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _validate_top(top) -> int:
    """``top`` (straggler list length) must be a positive integer.

    A negative ``[:top]`` slice would silently drop the *slowest* tasks —
    the exact ones the straggler table exists to show — so reject early,
    in the same style as the scheduler's timeout validation.
    """
    if isinstance(top, float) and (math.isnan(top) or not top.is_integer()):
        raise ConfigurationError(f"top must be a positive integer, got {top}")
    try:
        value = int(top)
    except (TypeError, ValueError):
        raise ConfigurationError(f"top must be a positive integer, got {top!r}")
    if value < 1:
        raise ConfigurationError(f"top must be a positive integer, got {top}")
    return value


class TelemetryAggregator:
    """Streaming fold of telemetry records into an end-of-sweep summary.

    Memory is O(runs) floats (per-cell duration lists and the straggler
    index need every task's simulate time) — a few MB even for
    million-run sweeps, and nothing here retains results or payloads.
    Several exports (say, one per shard) fold into one summary: driver
    records add up their ``restored``, spans and scheduler counters
    (``max_batch_size`` takes the maximum); other fields are the last's.
    """

    def __init__(self) -> None:
        self.version: Optional[int] = None
        self.workers: Optional[int] = None
        self.backend: Optional[str] = None
        self.profile: Optional[str] = None
        self.shard: Optional[str] = None
        self.runs = 0
        self.restored = 0
        self.elapsed_seconds: Optional[float] = None
        self._driver_spans = SpanCollector()
        self.profile_hotspots: Optional[List[Dict[str, object]]] = None
        self._totals = {
            "queue_wait_seconds": 0.0,
            "simulate_seconds": 0.0,
            "task_seconds": 0.0,
            "fold_seconds": 0.0,
            "checkpoint_seconds": 0.0,
        }
        #: worker label -> [task count, busy (in-worker) seconds]
        self._workers: Dict[str, List[float]] = {}
        #: worker label -> queue waits, in emit order (for the per-worker
        #: wait percentiles that diagnose dispatch backlog)
        self._worker_waits: Dict[str, List[float]] = {}
        #: (experiment, topology) -> simulate durations, in emit order
        self._cells: Dict[Tuple[str, str], List[float]] = {}
        #: (simulate seconds, task key, worker) for the straggler ranking
        self._tasks: List[Tuple[float, str, str]] = []
        #: dispatch facts folded from the task records' batch/attempt
        #: fields (records from v1 files default to singletons)
        self._batched_tasks = 0
        self._max_batch_size = 0
        self._redispatched_tasks = 0
        #: the driver records' scheduler counters (batches,
        #: re-dispatches, worker restarts), summed when present
        self.scheduler: Optional[Dict[str, object]] = None

    def add(self, record: Dict[str, object]) -> None:
        """Fold one JSONL record (any ``kind``) into the aggregate."""
        kind = record.get("kind")
        if kind == "sweep":
            self.version = record.get("version")
            self.workers = record.get("workers")
            self.backend = record.get("backend")
            self.profile = record.get("profile")
            self.shard = record.get("shard")
        elif kind == "task":
            self.runs += 1
            for name in self._totals:
                self._totals[name] += float(record.get(name, 0.0))
            worker = str(record.get("worker", "?"))
            stats = self._workers.setdefault(worker, [0, 0.0])
            stats[0] += 1
            stats[1] += float(record.get("task_seconds", 0.0))
            self._worker_waits.setdefault(worker, []).append(
                float(record.get("queue_wait_seconds", 0.0))
            )
            cell = (str(record.get("experiment", "")), str(record.get("topology", "")))
            simulate = float(record.get("simulate_seconds", 0.0))
            self._cells.setdefault(cell, []).append(simulate)
            self._tasks.append((simulate, str(record.get("task_key", "")), worker))
            batch_size = int(record.get("batch_size", 1))
            if batch_size > 1:
                self._batched_tasks += 1
            self._max_batch_size = max(self._max_batch_size, batch_size)
            if int(record.get("attempt", 1)) > 1:
                self._redispatched_tasks += 1
        elif kind == "driver":
            self.elapsed_seconds = float(record.get("elapsed_seconds", 0.0))
            self.restored += int(record.get("restored", 0))
            self._driver_spans.merge_totals(record.get("spans") or {})
            hotspots = record.get("profile_hotspots")
            if hotspots is not None:
                self.profile_hotspots = list(hotspots)
            scheduler = record.get("scheduler")
            if scheduler is not None:
                totals = self.scheduler = self.scheduler or {}
                for name, value in scheduler.items():
                    merge = max if name == "max_batch_size" else sum
                    totals[name] = merge((totals.get(name, 0), value))

    def summary(self, top: int = 10) -> Dict[str, object]:
        """The end-of-sweep report: utilization, percentiles, stragglers.

        Deterministic given the records: every ranking breaks ties on the
        task key / cell name, so two reads of one JSONL file (or the live
        sink and a post-hoc ``repro-le stats``) produce equal summaries.
        """
        top = _validate_top(top)
        elapsed = self.elapsed_seconds
        workers = [
            {
                "worker": worker,
                "tasks": int(count),
                "busy_seconds": busy,
                "utilization": (busy / elapsed) if elapsed else None,
            }
            for worker, (count, busy) in sorted(self._workers.items())
        ]
        cells = []
        for (experiment, topology), durations in sorted(self._cells.items()):
            ordered = sorted(durations)
            cells.append(
                {
                    "experiment": experiment,
                    "topology": topology,
                    "runs": len(ordered),
                    "total_simulate_seconds": sum(ordered),
                    "p50_simulate_seconds": _percentile(ordered, 0.50),
                    "p90_simulate_seconds": _percentile(ordered, 0.90),
                    "max_simulate_seconds": ordered[-1],
                }
            )
        stragglers = [
            {"task_key": key, "worker": worker, "simulate_seconds": seconds}
            for seconds, key, worker in sorted(
                self._tasks, key=lambda item: (-item[0], item[1])
            )[:top]
        ]
        queue_waits = []
        for worker, waits in sorted(self._worker_waits.items()):
            ordered = sorted(waits)
            queue_waits.append(
                {
                    "worker": worker,
                    "tasks": len(ordered),
                    "p50_queue_wait_seconds": _percentile(ordered, 0.50),
                    "p90_queue_wait_seconds": _percentile(ordered, 0.90),
                    "max_queue_wait_seconds": ordered[-1],
                }
            )
        busy_times = [busy for _, busy in self._workers.values()]
        if busy_times:
            mean_busy = sum(busy_times) / len(busy_times)
            load_imbalance = {
                "workers": len(busy_times),
                "max_busy_seconds": max(busy_times),
                "mean_busy_seconds": mean_busy,
                # max/mean busy: 1.0 is a perfectly balanced pool; the
                # ratio a straggling worker (or bad batching) inflates.
                "imbalance": (max(busy_times) / mean_busy) if mean_busy else None,
            }
        else:
            load_imbalance = None
        dispatch = {
            "batched_tasks": self._batched_tasks,
            "max_batch_size": self._max_batch_size,
            "redispatched_tasks": self._redispatched_tasks,
        }
        checkpoint_share = (
            self._totals["checkpoint_seconds"] / elapsed if elapsed else None
        )
        return {
            "version": self.version,
            "workers": self.workers,
            "backend": self.backend,
            "profile": self.profile,
            "shard": self.shard,
            "runs": self.runs,
            "restored": self.restored,
            "elapsed_seconds": elapsed,
            "totals": dict(self._totals),
            "checkpoint_io_share": checkpoint_share,
            "worker_utilization": workers,
            "queue_wait_by_worker": queue_waits,
            "load_imbalance": load_imbalance,
            "dispatch": dispatch,
            "scheduler": self.scheduler,
            "cells": cells,
            "stragglers": stragglers,
            "driver_spans": self._driver_spans.totals(),
            "profile_hotspots": self.profile_hotspots,
        }


class TelemetrySink:
    """Streams telemetry records to JSONL and keeps the live aggregate.

    The sweep engine (:func:`repro.parallel.run_experiments`) owns it: it
    writes the header (:meth:`begin_sweep`), one record per executed task
    (:meth:`emit_telemetry`) and the driver record (:meth:`record_driver`),
    then calls :meth:`close` after the result sinks on success and
    :meth:`abort` after them on failure.  It never receives a run, so the
    summary stays derivable from the JSONL alone.

    File handling is :class:`repro.obs.staged.StagedJsonl`'s, as for
    :class:`repro.analysis.streaming.JsonlSink`: records go to a
    ``<path>.partial`` staging file that atomically replaces ``<path>`` on
    a clean close, so a published telemetry file always describes a
    *complete* sweep and a crash leaves the previous export untouched
    (with the partial records on the side for debugging).  A sink reused
    for another sweep replaces its file.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._export = StagedJsonl(path)
        self.aggregator = TelemetryAggregator()

    @property
    def path(self) -> Path:
        return self._export.path

    def _write(self, record: Dict[str, object]) -> None:
        self._export.write(record)
        self.aggregator.add(record)

    def begin_sweep(
        self,
        *,
        workers: int,
        backend: str,
        profile: Optional[str] = None,
        shard: Optional[str] = None,
    ) -> None:
        """Write the sweep header record (version, pool shape, backend)."""
        self._write(
            {
                "kind": "sweep",
                "version": TELEMETRY_VERSION,
                "workers": workers,
                "backend": backend,
                "profile": profile,
                "shard": shard,
            }
        )

    def emit_telemetry(self, telemetry: TaskTelemetry) -> None:
        """Record one completed task (called by the drivers, parent-side)."""
        self._write(telemetry.as_record())

    def record_driver(
        self,
        *,
        elapsed_seconds: float,
        restored: int,
        spans: Dict[str, Dict[str, object]],
        profile_hotspots: Optional[List[Dict[str, object]]] = None,
        scheduler: Optional[Dict[str, object]] = None,
    ) -> None:
        """Write the closing driver record (sweep elapsed, parent spans,
        and — when a pool ran — the scheduler's dispatch
        counters)."""
        record: Dict[str, object] = {
            "kind": "driver",
            "elapsed_seconds": elapsed_seconds,
            "restored": restored,
            "spans": spans,
        }
        if profile_hotspots is not None:
            record["profile_hotspots"] = profile_hotspots
        if scheduler is not None:
            record["scheduler"] = scheduler
        self._write(record)

    def summary(self, top: int = 10) -> Dict[str, object]:
        return self.aggregator.summary(top)

    def close(self) -> None:
        # Telemetry on a sweep with zero records (nothing pending and
        # nothing restored) still publishes a file: "the sweep ran and
        # measured nothing" must be distinguishable from "no export".
        self._export.publish()

    def abort(self) -> None:
        self._export.abort()


def read_telemetry(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse a telemetry JSONL export back into record dictionaries."""
    records: List[Dict[str, object]] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def summarize_telemetry(
    records: Iterable[Dict[str, object]], top: int = 10
) -> Dict[str, object]:
    """Fold records (e.g. from :func:`read_telemetry`) into a summary.

    Feeding a file's records through this reproduces the summary the
    originating :class:`TelemetrySink` printed live — same aggregator,
    same fold order, exact JSON float round-trip.
    """
    top = _validate_top(top)  # fail before consuming the records iterable
    aggregator = TelemetryAggregator()
    for record in records:
        aggregator.add(record)
    return aggregator.summary(top)
