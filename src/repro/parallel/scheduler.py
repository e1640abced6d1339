"""Adaptive pool dispatch of run tasks onto one worker pool.

Shipping every task to the pool as its own message gives perfect load
balance, but one IPC round-trip per task — ruinous when a grid holds
thousands of sub-millisecond runs — and no recovery when a worker dies
mid-task.  :class:`AdaptiveScheduler` does better: tasks are leased to
the pool in a bounded in-flight window of ``apply_async`` batches.  Batch
size adapts to *measured* task cost per (experiment, topology) cell: cheap
tasks are packed until a batch is worth roughly
``target_batch_seconds`` of work (amortising the IPC round-trip),
expensive or not-yet-measured tasks ship alone (preserving load balance).
Every lease carries a deadline (``task_timeout`` × batch size); an expired
lease — a straggling or killed worker — gets its unfinished tasks
re-queued at the front and re-dispatched.  The pool's worker processes are
also watched directly: a worker that vanishes expires every outstanding
lease at once.  Tasks are deterministic functions of (runner, topology,
seed), so a re-dispatched task that *also* completes late on its original
worker produces an identical record; the first completion per task key
wins and duplicates are dropped.  Results are therefore bit-identical to
the serial driver for any batch size, timeout, worker count or
kill schedule — the contract :mod:`tests.test_scheduler` pins down.
"""

from __future__ import annotations

import itertools
import math
import os
import queue
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..analysis.experiments import execute_run
from ..core.errors import ConfigurationError, ReproError
from ..core.simulator import default_backend
from ..election.base import LeaderElectionResult
from ..obs import TaskProfiler, TaskTelemetry, collect_spans
from .sharding import RunTask

__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_TARGET_BATCH_SECONDS",
    "AdaptiveScheduler",
    "DispatchStats",
    "TaskExecutionError",
]

#: Hard cap on the number of tasks packed into one dispatch batch.
DEFAULT_MAX_BATCH = 32
#: A batch of cheap tasks is packed until it is worth about this much
#: estimated work — large enough to amortise an IPC round-trip, small
#: enough that batching never creates stragglers of its own.
DEFAULT_TARGET_BATCH_SECONDS = 0.05
#: How many times one task may be (re-)dispatched before the sweep gives
#: up — a task that keeps losing its worker is killing them.
DEFAULT_MAX_ATTEMPTS = 5
#: How long the parent waits on the completion queue before checking
#: lease deadlines and worker liveness.
DEFAULT_POLL_SECONDS = 0.05


class TaskExecutionError(ReproError):
    """One run of an experiment grid failed.

    Raised in place of the bare exception that killed the run, with the
    failing (spec, topology, seed) grid coordinates in the message — a
    multiprocessing traceback alone does not say which of ten thousand
    runs died.  The original traceback is appended (exception chaining
    does not survive the worker-to-parent pickle hop).
    """


def _execute_task(task: RunTask) -> Tuple[str, LeaderElectionResult, float]:
    """Pool worker entry point: run one task and return (key, result, time)."""
    try:
        result, elapsed = execute_run(task.runner, task.topology, task.seed)
    except Exception as error:
        adversary = f" under adversary {task.adversary}" if task.adversary else ""
        protocol = f" with protocol {task.protocol}" if task.protocol else ""
        raise TaskExecutionError(
            f"run failed in spec {task.spec_name!r} on topology "
            f"{task.topology.name!r} (grid index {task.topology_index}, "
            f"seed {task.seed}){protocol}{adversary}: "
            f"{type(error).__name__}: {error}\n"
            f"{traceback.format_exc()}"
        ) from error
    return task.key, result, elapsed


class _BatchItem(NamedTuple):
    """One task inside a dispatch batch, with its dispatch attempt (1-based)."""

    task: RunTask
    attempt: int


class _Batch(NamedTuple):
    """A leased unit of pool work, pickled to the worker as one message.

    ``submitted`` is the parent's monotonic stamp at dispatch: each
    task's worker-side start minus it is that task's queue wait (both
    processes share the machine's monotonic clock, and for later tasks
    of a batch the wait honestly includes the batch-mates executed
    ahead of them).
    """

    items: Tuple[_BatchItem, ...]
    submitted: float
    telemetry: bool
    profile: Optional[str]


#: What the worker returns per task; telemetry/profile are ``None`` on
#: the uninstrumented path.
TaskCompletion = Tuple[
    str, LeaderElectionResult, float, Optional[TaskTelemetry], Optional[dict]
]
#: The parent's completion callback, called with one unpacked
#: :data:`TaskCompletion` per task.
_FinishFn = Callable[
    [str, LeaderElectionResult, float, Optional[TaskTelemetry], Optional[dict]],
    None,
]


def _execute_batch(batch: _Batch) -> List[TaskCompletion]:
    """Pool worker entry point: run a leased batch task by task.

    The one per-task worker body: the engine's in-process path runs each
    task as a one-item batch through here too, so batching and placement
    can never change a measurement — only when and where it happens —
    and per-task telemetry is built in this function alone.
    """
    completions: List[TaskCompletion] = []
    size = len(batch.items)
    for item in batch.items:
        if not batch.telemetry:
            key, result, elapsed = _execute_task(item.task)
            completions.append((key, result, elapsed, None, None))
            continue
        started = time.monotonic()
        task = item.task
        profiler = TaskProfiler() if batch.profile == "cprofile" else None
        with collect_spans() as spans:
            if profiler is not None:
                with profiler:
                    key, result, elapsed = _execute_task(task)
            else:
                key, result, elapsed = _execute_task(task)
        telemetry = TaskTelemetry(
            task_key=key,
            experiment=task.spec_name,
            topology=task.topology.name,
            topology_index=task.topology_index,
            seed=task.seed,
            seed_index=task.seed_index,
            worker=f"pid-{os.getpid()}",
            backend=default_backend(),
            queue_wait_seconds=max(0.0, started - batch.submitted),
            simulate_seconds=spans.total_seconds("simulate"),
            task_seconds=time.monotonic() - started,
            spans=spans.totals(),
            batch_size=size,
            attempt=item.attempt,
        )
        completions.append(
            (key, result, elapsed, telemetry,
             profiler.payload() if profiler is not None else None)
        )
    return completions


@dataclass
class _Lease:
    """One in-flight batch: its tasks and its re-dispatch deadline."""

    items: Tuple[_BatchItem, ...]
    deadline: Optional[float]

    def task_for(self, key: str) -> Optional[RunTask]:
        for item in self.items:
            if item.task.key == key:
                return item.task
        return None


@dataclass
class DispatchStats:
    """Counters of one scheduler's dispatch decisions (for telemetry)."""

    batches: int = 0
    dispatched_tasks: int = 0
    batched_tasks: int = 0
    max_batch_size: int = 0
    redispatched_tasks: int = 0
    worker_restarts: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "batches": self.batches,
            "dispatched_tasks": self.dispatched_tasks,
            "batched_tasks": self.batched_tasks,
            "max_batch_size": self.max_batch_size,
            "redispatched_tasks": self.redispatched_tasks,
            "worker_restarts": self.worker_restarts,
        }


def _validate_timeout(name: str, value: Optional[float]) -> Optional[float]:
    if value is None:
        return None
    if math.isnan(value) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive number, got {value}")
    return float(value)


class AdaptiveScheduler:
    """Cost-adaptive, fault-tolerant dispatch of run tasks onto one pool.

    One scheduler serves one pool for the lifetime of a sweep, which calls
    :meth:`run` once with its pending tasks.  See the module docstring for
    the design; the parameters:

    ``task_timeout``
        per-task lease timeout in seconds (a batch's deadline is the
        timeout times its size).  ``None`` disables deadline-based
        re-dispatch — worker *death* is still detected by watching the
        pool's processes, so a killed worker's tasks recover either way.
    ``max_batch`` / ``target_batch_seconds``
        the batching dials: hard size cap, and how much estimated work
        one batch should carry.  ``max_batch=1`` ships one task per
        message.
    ``max_attempts``
        dispatch attempts per task before the sweep fails.
    """

    def __init__(
        self,
        pool,
        workers: int,
        *,
        telemetry: bool = False,
        profile: Optional[str] = None,
        task_timeout: Optional[float] = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        target_batch_seconds: float = DEFAULT_TARGET_BATCH_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        poll_seconds: float = DEFAULT_POLL_SECONDS,
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self._pool = pool
        self._workers = workers
        self._telemetry = telemetry
        self._profile = profile
        self._task_timeout = _validate_timeout("task_timeout", task_timeout)
        self._max_batch = max_batch
        self._target = target_batch_seconds
        self._max_attempts = max_attempts
        self._poll_seconds = poll_seconds
        #: completions/errors pushed by apply_async callbacks (which run
        #: on the pool's result-handler thread, hence the queue).
        self._completions: "queue.SimpleQueue" = queue.SimpleQueue()
        self._lease_ids = itertools.count()
        #: (spec name, topology index) -> EMA of measured task seconds;
        #: the model that decides batched-vs-singleton dispatch.
        self._cost: Dict[Tuple[str, int], float] = {}
        self._known_pids = self._alive_worker_pids()
        self.stats = DispatchStats()

    # ------------------------------------------------------------------ #
    # cost model
    # ------------------------------------------------------------------ #
    def _estimate(self, task: RunTask) -> Optional[float]:
        return self._cost.get((task.spec_name, task.topology_index))

    def _observe_cost(self, task: RunTask, seconds: float) -> None:
        cell = (task.spec_name, task.topology_index)
        previous = self._cost.get(cell)
        self._cost[cell] = (
            seconds if previous is None else 0.5 * previous + 0.5 * seconds
        )

    def _next_batch(self, pending: Deque[_BatchItem]) -> List[_BatchItem]:
        """Pop the next dispatch batch off the front of the task queue.

        Unknown-cost and expensive tasks go alone (a singleton both
        load-balances and *measures* — the first completions teach the
        model); known-cheap tasks are packed until the batch carries
        about ``target_batch_seconds`` of estimated work.
        """
        first = pending.popleft()
        batch = [first]
        estimate = self._estimate(first.task)
        if estimate is None or estimate >= self._target:
            return batch
        total = estimate
        while pending and len(batch) < self._max_batch:
            candidate = pending[0]
            estimate = self._estimate(candidate.task)
            if (
                estimate is None
                or estimate >= self._target
                or total + estimate > self._target
            ):
                break
            batch.append(pending.popleft())
            total += estimate
        return batch

    # ------------------------------------------------------------------ #
    # dispatch and fault detection
    # ------------------------------------------------------------------ #
    def _dispatch(
        self, items: Sequence[_BatchItem], leases: Dict[int, _Lease]
    ) -> None:
        now = time.monotonic()
        deadline = (
            now + self._task_timeout * len(items)
            if self._task_timeout is not None
            else None
        )
        lease_id = next(self._lease_ids)
        leases[lease_id] = _Lease(items=tuple(items), deadline=deadline)
        self.stats.batches += 1
        self.stats.dispatched_tasks += len(items)
        if len(items) > 1:
            self.stats.batched_tasks += len(items)
        self.stats.max_batch_size = max(self.stats.max_batch_size, len(items))
        batch = _Batch(tuple(items), now, self._telemetry, self._profile)
        self._pool.apply_async(
            _execute_batch,
            (batch,),
            callback=lambda value, _id=lease_id: self._completions.put(
                ("ok", _id, value)
            ),
            error_callback=lambda error, _id=lease_id: self._completions.put(
                ("error", _id, error)
            ),
        )

    def _alive_worker_pids(self) -> Optional[Set[int]]:
        # The one piece of Pool internals this relies on; when absent
        # (an exotic pool implementation), death detection degrades to
        # lease timeouts alone.
        processes = getattr(self._pool, "_pool", None)
        if processes is None:
            return None
        return {
            process.pid
            for process in processes
            if process.pid is not None and process.is_alive()
        }

    def _requeue(
        self,
        lease: _Lease,
        pending: Deque[_BatchItem],
        done: Set[str],
    ) -> None:
        """Re-queue an expired lease's unfinished tasks at the front."""
        for item in reversed(lease.items):
            if item.task.key in done:
                continue
            attempt = item.attempt + 1
            if attempt > self._max_attempts:
                timeout = (
                    f"per-task timeout {self._task_timeout}s"
                    if self._task_timeout is not None
                    else "worker death"
                )
                raise TaskExecutionError(
                    f"task {item.task.key!r} was dispatched {item.attempt} "
                    f"times without completing ({timeout} each time); a run "
                    f"that repeatedly kills or stalls its worker cannot be "
                    f"retried safely — raise the timeout or investigate the "
                    f"task"
                )
            self.stats.redispatched_tasks += 1
            pending.appendleft(_BatchItem(item.task, attempt))

    def _check_leases(
        self,
        leases: Dict[int, _Lease],
        pending: Deque[_BatchItem],
        done: Set[str],
    ) -> None:
        """Expire overdue leases; a vanished pool worker expires them all.

        The pool does not say which worker holds which lease, so a
        detected death conservatively re-queues everything in flight —
        completions that still arrive from the surviving workers
        deduplicate against the re-runs.
        """
        expire_all = False
        alive = self._alive_worker_pids()
        if alive is not None:
            if self._known_pids is not None and self._known_pids - alive:
                self.stats.worker_restarts += len(self._known_pids - alive)
                expire_all = True
            self._known_pids = alive
        now = time.monotonic()
        for lease_id, lease in list(leases.items()):
            if expire_all or (
                lease.deadline is not None and now >= lease.deadline
            ):
                del leases[lease_id]
                self._requeue(lease, pending, done)

    # ------------------------------------------------------------------ #
    # the dispatch loop
    # ------------------------------------------------------------------ #
    def run(self, tasks: Sequence[RunTask], finish: _FinishFn) -> None:
        """Execute ``tasks`` on the pool, calling ``finish`` once per task.

        ``finish`` receives exactly one completion per task key (the
        first; duplicates from re-dispatch races are dropped), in pool
        completion order — the caller's aggregation must be (and is)
        order-independent.
        """
        pending: Deque[_BatchItem] = deque(
            _BatchItem(task, 1) for task in tasks
        )
        expected = len(pending)
        done: Set[str] = set()
        leases: Dict[int, _Lease] = {}
        window = max(2, 2 * self._workers)
        last_check = time.monotonic()
        while len(done) < expected:
            while pending and len(leases) < window:
                self._dispatch(self._next_batch(pending), leases)
            try:
                kind, lease_id, payload = self._completions.get(
                    timeout=self._poll_seconds
                )
            except queue.Empty:
                self._check_leases(leases, pending, done)
                last_check = time.monotonic()
                continue
            if kind == "error":
                # A task raised (deterministically — retries would fail
                # identically): propagate with its grid coordinates.
                raise payload
            lease = leases.pop(lease_id, None)
            for key, result, elapsed, telemetry, profile_payload in payload:
                if key in done:
                    continue  # late duplicate of a re-dispatched task
                done.add(key)
                if lease is not None:
                    task = lease.task_for(key)
                    if task is not None:
                        self._observe_cost(task, elapsed)
                finish(key, result, elapsed, telemetry, profile_payload)
            if time.monotonic() - last_check >= self._poll_seconds:
                self._check_leases(leases, pending, done)
                last_check = time.monotonic()

