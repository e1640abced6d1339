"""Adaptive dispatch and concurrent-writer tests.

The acceptance pin of the elastic sweep engine: the adaptive scheduler
(cost-aware batching, timeout/death re-dispatch) must produce results
bit-identical to the serial driver for any worker count, start method,
batch size and kill/timeout schedule.  Wall-clock readings are the one legitimate difference, so
cell comparisons drop ``mean_wall_clock_seconds`` — everything else
must match exactly.

Fault injection is deterministic here: stub pools that drop dispatches
on the floor (timeout re-dispatch without real stragglers) and a fake
protocol that SIGKILLs its own pool worker exactly once (death re-dispatch).
"""

import multiprocessing
import os
import signal
import threading
from pathlib import Path

import pytest

from repro.analysis import ExperimentSpec, run_experiment
from repro.core.errors import ConfigurationError
from repro.graphs import cycle, grid_2d, star
from repro.obs import TelemetrySink, read_telemetry, summarize_telemetry
from repro.parallel import (
    AdaptiveScheduler,
    JsonlCheckpointStore,
    ShardManifest,
    SweepConfig,
    TaskExecutionError,
    expand_run_tasks,
    manifest_path,
    run_experiments,
    writer_token,
)
from repro.protocols import protocol_by_name

SEEDS = (0, 1, 2)

#: Always test the boundary pool sizes; CI adds odd/oversubscribed counts
#: through REPRO_TEST_WORKERS.
WORKER_COUNTS = sorted({1, 2, 4} | {int(os.environ.get("REPRO_TEST_WORKERS", 2))})


def _spec(name="flooding", seeds=SEEDS):
    return ExperimentSpec(
        name=name,
        protocol=name,
        topologies=[cycle(8), star(8), grid_2d(3, 3)],
        seeds=seeds,
        collect_profile=False,
    )


def _comparable(cells):
    rows = []
    for cell in cells:
        row = cell.as_dict()
        row.pop("mean_wall_clock_seconds")
        rows.append(row)
    return rows


#: The built-in flooding protocol, captured before a test shadows its name.
_FLOODING = protocol_by_name("flooding")


def _kill_worker_once(topology, seed):
    """SIGKILL our own pool worker on one specific task, exactly once.

    The marker file makes the kill one-shot: the re-dispatched attempt
    (and every other task) runs normally, so a sweep that survives the
    kill must still produce exactly the serial results.  It shadows
    ``flooding``, so its cells are the bare-name cells of the serial run.
    """
    marker = Path(os.environ["REPRO_TEST_KILL_MARKER"])
    if seed == 1 and topology.name.startswith("cycle") and not marker.exists():
        marker.write_text("killed", encoding="utf-8")
        os.kill(os.getpid(), signal.SIGKILL)
    return _FLOODING.factory(topology, seed)


def _failing_runner(topology, seed):
    raise ValueError(f"deterministic failure on {topology.name} seed {seed}")


class _InlinePool:
    """Pool stub: apply_async executes synchronously in the caller.

    No ``_pool`` attribute, so the scheduler's worker-death watch
    degrades to lease timeouts alone — exactly the degradation the
    docstring promises for exotic pools.
    """

    def apply_async(self, func, args, callback=None, error_callback=None):
        try:
            value = func(*args)
        except Exception as error:  # noqa: BLE001 - mirrors Pool semantics
            error_callback(error)
        else:
            callback(value)


class _DroppyPool(_InlinePool):
    """Pool stub that loses the first ``drop`` dispatches entirely.

    A dropped dispatch never completes and never errors — the shape of a
    worker that died mid-task (or hung forever) as seen from the parent.
    """

    def __init__(self, drop):
        self.drop = drop
        self.calls = 0

    def apply_async(self, func, args, callback=None, error_callback=None):
        self.calls += 1
        if self.calls <= self.drop:
            return
        super().apply_async(
            func, args, callback=callback, error_callback=error_callback
        )


# --------------------------------------------------------------------------- #
# adaptive dispatch == serial
# --------------------------------------------------------------------------- #


class TestAdaptiveEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_adaptive_matches_serial_and_static(self, workers):
        serial = run_experiment(_spec())
        adaptive = run_experiments([_spec()], config=SweepConfig(workers=workers))[0]
        assert _comparable(adaptive.cells) == _comparable(serial.cells)

    @pytest.mark.parametrize("max_batch", [1, 2, 7, 32])
    def test_any_batch_size_is_identical(self, max_batch):
        serial = run_experiment(_spec())
        batched = run_experiments(
            [_spec()],
            config=SweepConfig(workers=2, max_batch=max_batch),
        )[0]
        assert _comparable(batched.cells) == _comparable(serial.cells)

    def test_spawn_start_method_matches_serial(self):
        serial = run_experiment(_spec())
        spawned = run_experiments(
            [_spec()],
            config=SweepConfig(workers=2, start_method="spawn"),
        )[0]
        assert _comparable(spawned.cells) == _comparable(serial.cells)

    def test_deterministic_task_error_propagates(self, register_fake_protocol):
        register_fake_protocol("failing", _failing_runner)
        with pytest.raises(TaskExecutionError, match="deterministic failure"):
            run_experiments(
                [_spec("failing", seeds=(0,))],
                config=SweepConfig(workers=2),
            )


class TestSchedulerUnit:
    """Drive AdaptiveScheduler directly against stub pools: the fault
    paths (timeout re-dispatch, attempt exhaustion) and the batching
    policy, all deterministic."""

    def _tasks(self, seeds=SEEDS):
        return expand_run_tasks(_spec(seeds=seeds))

    def _run(self, scheduler, tasks):
        finished = {}
        scheduler.run(
            tasks,
            lambda key, result, elapsed, telemetry, profile: finished.setdefault(
                key, result
            ),
        )
        return finished

    def test_inline_pool_completes_everything(self):
        tasks = self._tasks()
        scheduler = AdaptiveScheduler(_InlinePool(), workers=2)
        finished = self._run(scheduler, tasks)
        assert set(finished) == {task.key for task in tasks}
        assert scheduler.stats.dispatched_tasks == len(tasks)

    def test_dropped_dispatch_is_redispatched_after_timeout(self):
        tasks = self._tasks()
        scheduler = AdaptiveScheduler(
            _DroppyPool(drop=2),
            workers=1,
            task_timeout=0.02,
            poll_seconds=0.005,
        )
        finished = self._run(scheduler, tasks)
        assert set(finished) == {task.key for task in tasks}
        assert scheduler.stats.redispatched_tasks >= 2
        # The re-run results are the results: compare against serial.
        serial = {
            task.key: task.runner(task.topology, task.seed) for task in tasks
        }
        for key, result in finished.items():
            assert result.as_dict() == serial[key].as_dict()

    def test_attempts_exhausted_raises_with_task_key(self):
        tasks = self._tasks(seeds=(0,))
        scheduler = AdaptiveScheduler(
            _DroppyPool(drop=10**9),
            workers=1,
            task_timeout=0.005,
            poll_seconds=0.002,
            max_attempts=2,
        )
        with pytest.raises(TaskExecutionError, match="dispatched 2 times"):
            self._run(scheduler, tasks)

    def test_cheap_tasks_get_batched_after_first_measurements(self):
        # A huge target makes every measured task "cheap", so once the
        # first singleton per cell has taught the cost model, the rest
        # of the queue ships in multi-task batches.
        tasks = expand_run_tasks(
            ExperimentSpec(
                name="flooding",
                protocol="flooding",
                topologies=[cycle(6)],
                seeds=tuple(range(12)),
                collect_profile=False,
            )
        )
        scheduler = AdaptiveScheduler(
            _InlinePool(), workers=1, target_batch_seconds=10.0, max_batch=8
        )
        finished = self._run(scheduler, tasks)
        assert len(finished) == 12
        assert scheduler.stats.batched_tasks > 0
        assert 1 < scheduler.stats.max_batch_size <= 8
        assert scheduler.stats.batches < len(tasks)

    def test_duplicate_completions_are_dropped(self):
        # Timeout fires while the "lost" dispatch is replayed late: both
        # the original and the re-dispatch complete, finish() must see
        # each key exactly once.
        class _LatePool(_InlinePool):
            def __init__(self):
                self.held = []

            def apply_async(self, func, args, callback=None, error_callback=None):
                if not self.held:
                    # Hold the first dispatch; replay it after the
                    # re-dispatch already completed.
                    self.held.append((func, args, callback))
                    return
                super().apply_async(
                    func, args, callback=callback, error_callback=error_callback
                )
                while self.held:
                    func, args, callback = self.held.pop()
                    callback(func(*args))

        calls = []
        tasks = self._tasks(seeds=(0,))
        scheduler = AdaptiveScheduler(
            _LatePool(), workers=1, task_timeout=0.01, poll_seconds=0.005
        )
        scheduler.run(
            tasks,
            lambda key, *rest: calls.append(key),
        )
        assert sorted(calls) == sorted(task.key for task in tasks)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="max_batch"):
            AdaptiveScheduler(_InlinePool(), workers=1, max_batch=0)
        with pytest.raises(ConfigurationError, match="max_attempts"):
            AdaptiveScheduler(_InlinePool(), workers=1, max_attempts=0)
        with pytest.raises(ConfigurationError, match="task_timeout"):
            AdaptiveScheduler(_InlinePool(), workers=1, task_timeout=-1.0)
        with pytest.raises(ConfigurationError, match="task_timeout"):
            AdaptiveScheduler(
                _InlinePool(), workers=1, task_timeout=float("nan")
            )


class TestWorkerDeathRecovery:
    def test_killed_worker_redispatches_bit_identically(
        self, tmp_path, monkeypatch, register_fake_protocol
    ):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("SIGKILL self-test requires the fork start method")
        monkeypatch.setenv(
            "REPRO_TEST_KILL_MARKER", str(tmp_path / "killed.marker")
        )
        serial = run_experiment(_spec())
        register_fake_protocol("flooding", _kill_worker_once)
        survived = run_experiments(
            [_spec()],
            config=SweepConfig(workers=2, start_method="fork"),
        )[0]
        assert (tmp_path / "killed.marker").exists(), "kill never fired"
        assert _comparable(survived.cells) == _comparable(serial.cells)

    def test_bad_timeout_rejected_up_front(self):
        for bad in (0.0, -5.0, float("nan")):
            with pytest.raises(ConfigurationError, match="task_timeout"):
                run_experiments(
                    [_spec()],
                    config=SweepConfig(workers=2, task_timeout=bad),
                )


# --------------------------------------------------------------------------- #
# dispatch telemetry (batch_size / attempt / scheduler record)
# --------------------------------------------------------------------------- #


class TestDispatchTelemetry:
    def test_task_records_carry_batch_and_attempt(self, tmp_path):
        telemetry_path = tmp_path / "tel.jsonl"
        run_experiments(
            [_spec()],
            config=SweepConfig(workers=2, telemetry=TelemetrySink(telemetry_path)),
        )
        records = read_telemetry(telemetry_path)
        tasks = [r for r in records if r.get("kind") == "task"]
        assert len(tasks) == 3 * len(SEEDS)
        assert all(r["batch_size"] >= 1 and r["attempt"] >= 1 for r in tasks)
        drivers = [r for r in records if r.get("kind") == "driver"]
        assert len(drivers) == 1
        scheduler = drivers[0]["scheduler"]
        assert scheduler["dispatched_tasks"] == 3 * len(SEEDS)
        assert scheduler["redispatched_tasks"] == 0

    def test_summary_gains_queue_wait_and_imbalance_sections(self, tmp_path):
        telemetry_path = tmp_path / "tel.jsonl"
        run_experiments(
            [_spec()],
            config=SweepConfig(workers=2, telemetry=TelemetrySink(telemetry_path)),
        )
        summary = summarize_telemetry(read_telemetry(telemetry_path))
        waits = summary["queue_wait_by_worker"]
        assert waits and all(
            set(row)
            >= {
                "worker",
                "tasks",
                "p50_queue_wait_seconds",
                "p90_queue_wait_seconds",
                "max_queue_wait_seconds",
            }
            for row in waits
        )
        imbalance = summary["load_imbalance"]
        assert imbalance["workers"] == len(waits)
        assert imbalance["max_busy_seconds"] >= imbalance["mean_busy_seconds"] > 0
        assert imbalance["imbalance"] >= 1.0
        assert summary["dispatch"]["redispatched_tasks"] == 0
        assert summary["scheduler"]["dispatched_tasks"] == 3 * len(SEEDS)


# --------------------------------------------------------------------------- #
# writer identity: concurrent writers never share a temp file
# --------------------------------------------------------------------------- #


class TestWriterIdentity:
    def test_writer_tokens_are_unique_per_call(self):
        tokens = {writer_token() for _ in range(64)}
        assert len(tokens) == 64
        assert all(token.startswith(f"{os.getpid()}-") for token in tokens)

    def test_concurrent_threads_never_share_temp_files(
        self, tmp_path, monkeypatch
    ):
        # Two jobs in one process (as under the threaded ``serve``) write
        # the same static shard manifest, then replace one checkpoint with
        # a fresh file, at the same moment.
        base = tmp_path / "sweep.json"
        keys = [task.key for task in expand_run_tasks(_spec())]
        manifest = ShardManifest.plan(base, keys, 2)
        store_path = tmp_path / "merged.json"
        contents = [
            {f"key-{index}": {"leader": job} for index in range(4)}
            for job in range(2)
        ]

        real_replace = os.replace
        temps = {}

        def recording_replace(source, target):
            temps.setdefault(threading.get_ident(), []).append(Path(source).name)
            return real_replace(source, target)

        monkeypatch.setattr(os, "replace", recording_replace)
        barrier = threading.Barrier(2, timeout=30)
        errors = []

        def job(records):
            try:
                barrier.wait()
                manifest.write(manifest_path(base))
                barrier.wait()
                JsonlCheckpointStore(store_path).write_fresh(records)
            except Exception as error:  # noqa: BLE001 - surfaced below
                barrier.abort()
                errors.append(error)

        threads = [
            threading.Thread(target=job, args=(records,)) for records in contents
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        first, second = temps.values()
        assert first and second  # each thread published at least once
        assert not set(first) & set(second)
        assert ShardManifest.load(manifest_path(base)) == manifest
        assert JsonlCheckpointStore(store_path).load() in contents
        assert not list(tmp_path.glob("*.tmp"))
