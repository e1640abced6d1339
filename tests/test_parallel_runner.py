"""Equivalence and determinism tests for the parallel experiment engine.

The contract under test (see :mod:`repro.parallel`):

* parallel results are identical to serial results, cell by cell, for any
  worker count and multiprocessing start method — only wall-clock readings
  may differ;
* per-cell seed derivation is a pure function, stable across processes and
  start methods (``fork`` and ``spawn``);
* a checkpointed sweep can be interrupted and resumed without changing the
  aggregates, and runs already in the checkpoint are not re-executed.

CI runs this module under several worker counts via the
``REPRO_TEST_WORKERS`` environment variable.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle

import pytest

from repro.analysis import (
    CollectingSink,
    ExperimentSpec,
    JsonlSink,
    ResultSink,
    run_experiment,
)
from repro.core.errors import ConfigurationError
from repro.dynamics.spec import AdversarySpec
from repro.graphs import cycle, grid_2d, random_regular, star
from repro.obs import TelemetrySink
from repro.parallel import (
    JsonlCheckpointStore,
    SweepConfig,
    TaskExecutionError,
    derive_cell_seed,
    expand_run_tasks,
    result_from_record,
    result_to_record,
    run_experiments,
    shard_round_robin,
    task_key,
    topology_fingerprint,
)
from repro.protocols import run_protocol

SEEDS = (0, 1, 2)

#: Worker counts exercised by the equivalence tests; CI adds its matrix
#: entry on top so two counts are always covered there.
WORKER_COUNTS = sorted({1, 2, 4} | {int(os.environ.get("REPRO_TEST_WORKERS", 2))})


def _spec(name: str = "flooding", collect_profile: bool = False) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        protocol="flooding",
        topologies=[cycle(8), star(8), grid_2d(3, 3)],
        seeds=SEEDS,
        collect_profile=collect_profile,
    )


def _comparable(cells):
    """Cell dicts with the timing reading (legitimately nondeterministic)
    removed; everything else must match exactly."""
    rows = []
    for cell in cells:
        row = cell.as_dict()
        row.pop("mean_wall_clock_seconds")
        rows.append(row)
    return rows


def _stored_runs(path):
    """Read a checkpoint's run records regardless of on-disk format."""
    return JsonlCheckpointStore(path).load()


def count_file_runner(topology, seed):
    """A picklable protocol factory that logs every invocation to a file.

    The log path travels through the environment so fork children (and the
    in-process backend) append to the same file, letting tests count how
    many runs were actually executed vs. restored from a checkpoint.
    """
    with open(os.environ["REPRO_TEST_COUNT_FILE"], "a", encoding="utf-8") as handle:
        handle.write(f"{topology.name} {seed}\n")
    return run_protocol("flooding", topology, seed)


def report_memo_keys(topology, seed):
    """A picklable protocol factory whose runs report what the topology
    they were handed had already measured."""
    memo_keys = sorted(topology._memo)
    result = run_protocol("flooding", topology, seed)
    result.parameters["memo_keys"] = memo_keys
    return result


def _derive_in_child(args):
    spec_name, topology_name, replicate = args
    return derive_cell_seed(1234, spec_name, topology_name, replicate)


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_cells_identical_across_worker_counts(self, workers):
        spec = _spec()
        serial = run_experiment(spec)
        parallel = run_experiments([spec], config=SweepConfig(workers=workers))[0]
        assert _comparable(parallel.cells) == _comparable(serial.cells)

    def test_cells_identical_under_spawn(self):
        spec = _spec()
        serial = run_experiment(spec)
        parallel = run_experiments(
            [spec],
            config=SweepConfig(workers=2, start_method="spawn"),
        )[0]
        assert _comparable(parallel.cells) == _comparable(serial.cells)

    def test_profiles_match_serial(self):
        spec = _spec(collect_profile=True)
        serial = run_experiment(spec)
        parallel = run_experiments([spec], config=SweepConfig(workers=2))[0]
        for a, b in zip(serial.cells, parallel.cells):
            assert a.profile == b.profile
            assert a.profile is not None

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_workers_receive_measured_topologies(
        self, start_method, register_fake_protocol
    ):
        register_fake_protocol("memo-probe", report_memo_keys)
        spec = ExperimentSpec(
            name="memo-probe",
            protocol="memo-probe",
            topologies=[cycle(8), star(8)],
            seeds=(0, 1),
            collect_profile=True,
        )
        sink = CollectingSink()
        run_experiments(
            [spec],
            config=SweepConfig(workers=2, start_method=start_method),
            sinks=[sink],
        )
        for topology_index in range(len(spec.topologies)):
            runs = sink.results_for(spec.name, topology_index)
            assert len(runs) == len(spec.seeds)
            for run in runs:
                assert {"mixing_time", "conductance"} <= set(
                    run.parameters["memo_keys"]
                )

    def test_collecting_sink_returns_individual_runs(self):
        spec = _spec()
        serial, parallel = CollectingSink(), CollectingSink()
        run_experiment(spec, sinks=[serial])
        run_experiments([spec], config=SweepConfig(workers=2), sinks=[parallel])
        for index in range(len(spec.topologies)):
            runs = parallel.results_for(spec.name, index)
            assert len(runs) == len(SEEDS)
            assert [r.as_dict() for r in runs] == [
                r.as_dict() for r in serial.results_for(spec.name, index)
            ]

    def test_multi_spec_pool_matches_independent_runs(self):
        specs = [
            _spec("flooding"),
            ExperimentSpec(
                name="uniform",
                protocol="uniform",
                topologies=[cycle(8), star(8)],
                seeds=SEEDS,
                collect_profile=False,
            ),
        ]
        pooled = run_experiments(specs, config=SweepConfig(workers=2))
        for spec, pooled_result in zip(specs, pooled):
            assert pooled_result.name == spec.name
            solo = run_experiment(spec)
            assert _comparable(pooled_result.cells) == _comparable(solo.cells)

    def test_duplicate_spec_names_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiments([_spec(), _spec()], config=SweepConfig(workers=2))

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiments([_spec()], config=SweepConfig(workers=0))


class TestSeedDerivation:
    def test_pure_function_of_arguments(self):
        a = derive_cell_seed(7, "spec", "cycle(n=8)", 0)
        b = derive_cell_seed(7, "spec", "cycle(n=8)", 0)
        assert a == b
        assert derive_cell_seed(7, "spec", "cycle(n=8)", 1) != a
        assert derive_cell_seed(7, "spec", "star(n=8)", 0) != a
        assert derive_cell_seed(8, "spec", "cycle(n=8)", 0) != a

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_stable_across_start_methods(self, start_method):
        grid = [("spec-a", "cycle(n=8)", i) for i in range(4)] + [
            ("spec-b", "star(n=8)", i) for i in range(4)
        ]
        expected = [_derive_in_child(args) for args in grid]
        context = multiprocessing.get_context(start_method)
        with context.Pool(processes=2) as pool:
            derived = pool.map(_derive_in_child, grid)
        assert derived == expected

    def test_expand_run_tasks_with_derived_seeds(self):
        spec = _spec()
        tasks = expand_run_tasks(spec, derive_seeds=True, base_seed=99)
        assert len(tasks) == len(spec.topologies) * len(SEEDS)
        for task in tasks:
            assert task.seed == derive_cell_seed(
                99,
                spec.name,
                task.topology.name,
                task.seed_index,
                fingerprint=task.fingerprint,
            )
        # Expansion is deterministic: same spec, same tasks.
        again = expand_run_tasks(spec, derive_seeds=True, base_seed=99)
        assert [t.key for t in again] == [t.key for t in tasks]

    def test_derived_seeds_differ_for_same_named_topologies(self):
        spec = ExperimentSpec(
            name="dup-derived",
            protocol="flooding",
            topologies=[
                random_regular(16, 4, seed=1),
                random_regular(16, 4, seed=2),
            ],
            seeds=(0,),
            collect_profile=False,
        )
        tasks = expand_run_tasks(spec, derive_seeds=True, base_seed=5)
        assert tasks[0].seed != tasks[1].seed

    def test_expand_run_tasks_grid_order(self):
        spec = _spec()
        tasks = expand_run_tasks(spec)
        expected = [
            (t_index, s_index)
            for t_index in range(len(spec.topologies))
            for s_index in range(len(SEEDS))
        ]
        assert [(t.topology_index, t.seed_index) for t in tasks] == expected
        assert [t.seed for t in tasks[: len(SEEDS)]] == list(SEEDS)

    def test_task_key_is_stored_from_the_fields_and_survives_pickling(self):
        spec = ExperimentSpec(
            name="tuned",
            protocol="irrevocable:c=3",
            topologies=[cycle(8), star(8)],
            seeds=SEEDS,
            collect_profile=False,
            adversary=AdversarySpec.create("loss", p=0.1),
        )
        tasks = expand_run_tasks(spec, derive_seeds=True, base_seed=7)
        for task in tasks + expand_run_tasks(_spec()):
            expected = task_key(
                task.spec_name,
                task.topology_index,
                task.topology.name,
                task.fingerprint,
                task.seed_index,
                task.seed,
                task.adversary,
                task.protocol,
            )
            assert task.key == expected
            clone = pickle.loads(pickle.dumps(task))
            assert clone.key == expected
            assert clone == task
        assert all(task.adversary and task.protocol for task in tasks)


class TestSharding:
    def test_round_robin_covers_everything_deterministically(self):
        items = list(range(10))
        shards = shard_round_robin(items, 3)
        assert sorted(x for shard in shards for x in shard) == items
        assert shards == [[0, 3, 6, 9], [1, 4, 7], [2, 5, 8]]

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError):
            shard_round_robin([1, 2], 0)

    def test_task_key_is_stable_and_unique_per_grid_point(self):
        spec = _spec()
        tasks = expand_run_tasks(spec)
        keys = [task.key for task in tasks]
        assert len(set(keys)) == len(keys)
        assert keys[0] == task_key(
            spec.name,
            0,
            spec.topologies[0].name,
            topology_fingerprint(spec.topologies[0]),
            0,
            SEEDS[0],
        )

    def test_fingerprint_distinguishes_same_named_topologies(self):
        a = random_regular(16, 4, seed=1)
        b = random_regular(16, 4, seed=2)
        assert a.name == b.name
        assert topology_fingerprint(a) != topology_fingerprint(b)
        assert topology_fingerprint(a) == topology_fingerprint(
            random_regular(16, 4, seed=1)
        )

    def test_same_named_topologies_keep_distinct_cells(self):
        # Two distinct graph instances can share a display name (same
        # family/size, different graph seed); the grid index in the task
        # key must keep their runs apart.
        spec = ExperimentSpec(
            name="dup-names",
            protocol="flooding",
            topologies=[
                random_regular(16, 4, seed=1),
                random_regular(16, 4, seed=2),
            ],
            seeds=(0, 1),
            collect_profile=False,
        )
        assert spec.topologies[0].name == spec.topologies[1].name
        serial = run_experiment(spec)
        parallel = run_experiments([spec], config=SweepConfig(workers=2))[0]
        assert _comparable(parallel.cells) == _comparable(serial.cells)


class _LifecycleSink(ResultSink):
    """Records which end of the sink lifecycle a sweep reached."""

    def __init__(self):
        self.calls = []

    def close(self):
        self.calls.append("close")

    def abort(self):
        self.calls.append("abort")


class TestCheckpointing:
    def test_record_round_trip(self):
        result = run_protocol("flooding", cycle(8), 3)
        record = result_to_record(result, 0.125)
        # The record must survive a JSON round trip unchanged.
        record = json.loads(json.dumps(record))
        restored, elapsed = result_from_record(record)
        assert elapsed == 0.125
        assert restored.as_dict() == result.as_dict()
        assert restored.metrics.as_dict() == result.metrics.as_dict()

    def test_checkpointed_sweep_matches_uncheckpointed(self, tmp_path):
        spec = _spec()
        plain = run_experiment(spec)
        checkpointed = run_experiments(
            [spec],
            config=SweepConfig(workers=2, checkpoint=tmp_path / "sweep.json"),
        )[0]
        assert _comparable(checkpointed.cells) == _comparable(plain.cells)
        runs = _stored_runs(tmp_path / "sweep.json")
        assert len(runs) == len(spec.topologies) * len(SEEDS)

    def test_resume_runs_only_missing_tasks(
        self, tmp_path, monkeypatch, register_fake_protocol
    ):
        register_fake_protocol("counted", count_file_runner)
        count_file = tmp_path / "invocations.log"
        monkeypatch.setenv("REPRO_TEST_COUNT_FILE", str(count_file))
        checkpoint = tmp_path / "sweep.json"

        def spec_with_seeds(seeds):
            return ExperimentSpec(
                name="counted",
                protocol="counted",
                topologies=[cycle(8), star(8)],
                seeds=seeds,
                collect_profile=False,
            )

        # First (interrupted) sweep covers a prefix of the seed grid.
        run_experiments(
            [spec_with_seeds((0, 1))],
            config=SweepConfig(workers=1, checkpoint=checkpoint),
        )
        assert len(count_file.read_text().splitlines()) == 4

        # The resumed sweep adds seed 2: only the 2 missing runs execute.
        resumed = run_experiments(
            [spec_with_seeds((0, 1, 2))],
            config=SweepConfig(workers=1, checkpoint=checkpoint),
        )[0]
        assert len(count_file.read_text().splitlines()) == 6
        assert all(cell.runs == 3 for cell in resumed.cells)

        # A third pass is a pure replay: no new executions, same cells.
        replayed = run_experiments(
            [spec_with_seeds((0, 1, 2))],
            config=SweepConfig(workers=1, checkpoint=checkpoint),
        )[0]
        assert len(count_file.read_text().splitlines()) == 6
        assert [c.as_dict() for c in replayed.cells] == [
            c.as_dict() for c in resumed.cells
        ]

    def test_checkpoint_not_replayed_for_regenerated_topologies(self, tmp_path):
        # Same spec name, same topology names, but the graphs themselves
        # were rebuilt from a different seed: the checkpoint must not
        # replay results measured on the old graphs.
        checkpoint = tmp_path / "sweep.json"

        def spec_for(graph_seed):
            return ExperimentSpec(
                name="regen",
                protocol="flooding",
                topologies=[random_regular(16, 4, seed=graph_seed)],
                seeds=(0, 1),
                collect_profile=False,
            )

        first = run_experiments(
            [spec_for(1)],
            config=SweepConfig(workers=1, checkpoint=checkpoint),
        )[0]
        fresh = run_experiments(
            [spec_for(2)],
            config=SweepConfig(workers=1, checkpoint=checkpoint),
        )[0]
        direct = run_experiment(spec_for(2))
        assert _comparable(fresh.cells) == _comparable(direct.cells)
        assert first.cells[0].mean_messages != fresh.cells[0].mean_messages

    def test_unrelated_checkpoint_entries_are_ignored(self, tmp_path):
        checkpoint = tmp_path / "sweep.json"
        spec = _spec()
        run_experiments([spec], config=SweepConfig(workers=1, checkpoint=checkpoint))
        other = ExperimentSpec(
            name="other-spec",
            protocol="flooding",
            topologies=[cycle(8)],
            seeds=(0,),
            collect_profile=False,
        )
        result = run_experiments(
            [other],
            config=SweepConfig(workers=1, checkpoint=checkpoint),
        )[0]
        assert result.cells[0].runs == 1
        runs = _stored_runs(checkpoint)
        assert len(runs) == len(spec.topologies) * len(SEEDS) + 1

    def test_wrong_format_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 999, "runs": {}}))
        # ConfigurationError, so the CLI reports it as a clean `error:` line.
        with pytest.raises(ConfigurationError):
            JsonlCheckpointStore(path).load()

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text('{"version": 1, "runs": {tru')
        with pytest.raises(ConfigurationError, match="nor valid JSON"):
            JsonlCheckpointStore(path).load()

    def test_failed_restore_aborts_the_sinks(self, tmp_path):
        checkpoint = tmp_path / "ck.jsonl"
        run_experiments([_spec()], config=SweepConfig(checkpoint=checkpoint))
        lines = checkpoint.read_text(encoding="utf-8").split("\n")
        lines[2] = lines[2][: len(lines[2]) // 2]  # an interior line, not the tail
        checkpoint.write_text("\n".join(lines), encoding="utf-8")
        telemetry = tmp_path / "tel.jsonl"
        export = tmp_path / "runs.jsonl"
        lifecycle = _LifecycleSink()
        with pytest.raises(ConfigurationError, match="line 3 is not valid JSON"):
            run_experiments(
                [_spec()],
                config=SweepConfig(
                    checkpoint=checkpoint, telemetry=TelemetrySink(telemetry)
                ),
                sinks=[JsonlSink(export), lifecycle],
            )
        # The restore ran inside the abort path: every sink was aborted,
        # nothing was published, and the telemetry sweep header stays in
        # the staging file.
        assert lifecycle.calls == ["abort"]
        assert not export.exists()
        assert not telemetry.exists()
        assert (tmp_path / "tel.jsonl.partial").exists()

    def test_resume_rebuilds_results_only_for_caller_sinks(
        self, tmp_path, monkeypatch
    ):
        # The telemetry export receives no runs: a resume with telemetry
        # and no caller sink folds from the stored fold fields and
        # rebuilds no result; a caller sink still gets every run.
        from repro.parallel import runner

        spec = _spec()
        checkpoint = tmp_path / "ck.jsonl"
        swept = run_experiments([spec], config=SweepConfig(checkpoint=checkpoint))[0]
        rebuilt = []

        def counting_result_from_record(record):
            rebuilt.append(record["seed"])
            return result_from_record(record)

        monkeypatch.setattr(
            runner, "result_from_record", counting_result_from_record
        )

        def resume(name, sinks=()):
            telemetry = TelemetrySink(tmp_path / f"{name}.jsonl")
            config = SweepConfig(checkpoint=checkpoint, telemetry=telemetry)
            result = run_experiments([spec], config=config, sinks=sinks)[0]
            return result, telemetry.summary()

        runs = len(spec.topologies) * len(SEEDS)
        resumed, summary = resume("alone")
        assert rebuilt == []
        assert (summary["runs"], summary["restored"]) == (0, runs)

        collecting = CollectingSink()
        collected, _ = resume("collected", sinks=[collecting])
        assert len(rebuilt) == runs
        cells = [
            collecting.results_for(spec.name, index)
            for index in range(len(spec.topologies))
        ]
        assert [len(cell) for cell in cells] == [len(SEEDS)] * len(cells)

        expected = [cell.as_dict() for cell in swept.cells]
        assert [cell.as_dict() for cell in resumed.cells] == expected
        assert [cell.as_dict() for cell in collected.cells] == expected

    def test_atomic_flush_leaves_no_temp_file(self, tmp_path):
        store = JsonlCheckpointStore(tmp_path / "deep" / "ck.json")
        result = run_protocol("flooding", cycle(8), 0)
        store.add("k", result_to_record(result, 0.1))
        assert (tmp_path / "deep" / "ck.json").exists()
        assert not list((tmp_path / "deep").glob("*.tmp"))


class TestRunRecordShape:
    def test_record_carries_no_node_results(self):
        result = run_protocol("flooding", cycle(8), 3)
        assert result.node_results  # a fresh run keeps them in full
        record = result_to_record(result, 0.25)
        assert "node_results" not in record
        restored, elapsed = result_from_record(json.loads(json.dumps(record)))
        assert elapsed == 0.25
        # Everything the aggregation layer reads is identical; only the
        # per-node diagnostic payload is gone.
        assert restored.node_results == []
        assert restored.outcome.as_dict() == result.outcome.as_dict()
        assert restored.metrics.as_dict() == result.metrics.as_dict()
        assert restored.as_dict() == result.as_dict()

    def test_record_with_node_results_loads_and_ignores_them(self):
        result = run_protocol("flooding", cycle(8), 3)
        record = result_to_record(result, 0.25)
        record["node_results"] = json.loads(json.dumps(result.node_results))
        restored, _ = result_from_record(record)
        assert restored.node_results == []
        assert restored.as_dict() == result.as_dict()

    def test_checkpointed_sweep_stores_no_node_results(self, tmp_path):
        spec = _spec()
        plain = run_experiment(spec)
        checkpointed = run_experiments(
            [spec],
            config=SweepConfig(workers=2, checkpoint=tmp_path / "sweep.json"),
        )[0]
        assert _comparable(checkpointed.cells) == _comparable(plain.cells)
        runs = _stored_runs(tmp_path / "sweep.json")
        assert runs
        assert all("node_results" not in record for record in runs.values())
        # A resume from the checkpoint replays the same cells.
        resumed = run_experiments(
            [spec], config=SweepConfig(checkpoint=tmp_path / "sweep.json")
        )[0]
        assert _comparable(resumed.cells) == _comparable(plain.cells)


def failing_runner(topology, seed):
    """A picklable protocol factory that dies on one specific grid point."""
    if topology.name.startswith("star") and seed == 1:
        raise ValueError("boom at the appointed run")
    return run_protocol("flooding", topology, seed)


class TestWorkerErrorContext:
    @pytest.fixture(autouse=True)
    def _fragile_protocol(self, register_fake_protocol):
        register_fake_protocol("fragile", failing_runner)

    def _failing_spec(self):
        return ExperimentSpec(
            name="fragile",
            protocol="fragile",
            topologies=[cycle(8), star(8)],
            seeds=SEEDS,
            collect_profile=False,
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failures_carry_grid_coordinates(self, workers):
        # The in-process (workers=1) and pool backends funnel through the
        # same task entry point, so both report grid coordinates.
        with pytest.raises(TaskExecutionError) as excinfo:
            run_experiments([self._failing_spec()], config=SweepConfig(workers=workers))
        message = str(excinfo.value)
        assert "'fragile'" in message
        assert "star" in message
        assert "seed 1" in message
        assert "ValueError" in message
        assert "boom at the appointed run" in message

    def test_parallel_failure_names_adversary(self):
        from repro.dynamics import AdversarySpec

        spec = ExperimentSpec(
            name="fragile-adv",
            protocol="fragile",
            topologies=[star(8)],
            seeds=(1,),
            collect_profile=False,
            adversary=AdversarySpec.create("loss", p=0.0),
        )
        with pytest.raises(TaskExecutionError, match=r"loss\(p=0\.0\)"):
            run_experiments([spec], config=SweepConfig(workers=2, checkpoint=None))

    def test_completed_runs_checkpointed_before_failure(self, tmp_path):
        checkpoint = tmp_path / "ck.json"
        with pytest.raises(TaskExecutionError):
            run_experiments(
                [self._failing_spec()],
                config=SweepConfig(workers=1, checkpoint=checkpoint),
            )
        # The serial backend completed everything scheduled before the
        # failing run; the checkpoint holds those, so a fixed rerun resumes.
        assert len(_stored_runs(checkpoint)) >= 1


class TestPoolCleanup:
    """A pooled sweep leaves no worker process behind, whether it
    completes or one of its runs raises."""

    def test_completed_sweep_leaves_no_worker(self):
        run_experiments([_spec()], config=SweepConfig(workers=2))
        assert multiprocessing.active_children() == []

    def test_failed_sweep_leaves_no_worker(self, register_fake_protocol):
        register_fake_protocol("fragile", failing_runner)
        spec = ExperimentSpec(
            name="fragile",
            protocol="fragile",
            topologies=[cycle(8), star(8)],
            seeds=SEEDS,
            collect_profile=False,
        )
        with pytest.raises(TaskExecutionError):
            run_experiments([spec], config=SweepConfig(workers=2))
        assert multiprocessing.active_children() == []


class TestProtocolGridParallel:
    """Parameterised protocol sweeps through the parallel engine.

    The protocol axis must behave exactly like the topology/seed/adversary
    axes: identical cells on every backend, protocol-qualified checkpoint
    task keys, and resume without re-execution.
    """

    def _grid_specs(self):
        from repro.workloads import sweep_specs

        return sweep_specs(
            ["flooding:c=2", "flooding:c=3"],
            [cycle(8), star(8)],
            seeds=SEEDS,
            collect_profile=False,
        )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_parallel_grid_matches_serial(self, workers):
        specs = self._grid_specs()
        serial = [run_experiment(spec) for spec in specs]
        parallel = run_experiments(specs, config=SweepConfig(workers=workers))
        for serial_result, parallel_result in zip(serial, parallel):
            assert _comparable(parallel_result.cells) == _comparable(
                serial_result.cells
            )
        # The two variants really are different experiments.
        assert _comparable(parallel[0].cells) != _comparable(parallel[1].cells)

    def test_grid_matches_under_spawn(self):
        specs = self._grid_specs()
        serial = [run_experiment(spec) for spec in specs]
        parallel = run_experiments(
            specs,
            config=SweepConfig(workers=2, start_method="spawn"),
        )
        for serial_result, parallel_result in zip(serial, parallel):
            assert _comparable(parallel_result.cells) == _comparable(
                serial_result.cells
            )

    def test_checkpoint_keys_carry_protocol_tokens(self, tmp_path):
        checkpoint = tmp_path / "grid.json"
        specs = self._grid_specs()
        run_experiments(specs, config=SweepConfig(workers=1, checkpoint=checkpoint))
        keys = list(_stored_runs(checkpoint))
        assert len(keys) == 2 * 2 * len(SEEDS)
        assert all(
            key.endswith("|flooding:c=2.0") or key.endswith("|flooding:c=3.0")
            for key in keys
        )

    def test_resumed_grid_replays_without_rerunning(self, tmp_path):
        checkpoint = tmp_path / "grid.json"
        specs = self._grid_specs()
        first = run_experiments(
            specs,
            config=SweepConfig(workers=1, checkpoint=checkpoint),
        )
        stored = checkpoint.read_text()
        resumed = run_experiments(
            specs,
            config=SweepConfig(workers=1, checkpoint=checkpoint),
        )
        # Nothing re-executed: the checkpoint is byte-identical (re-run
        # records would at least carry fresh wall-clock readings).
        assert checkpoint.read_text() == stored
        for first_result, resumed_result in zip(first, resumed):
            assert _comparable(resumed_result.cells) == _comparable(
                first_result.cells
            )

    def test_resume_does_not_replay_other_variant(self, tmp_path):
        from repro.workloads import sweep_specs

        checkpoint = tmp_path / "grid.json"
        base = sweep_specs(
            ["flooding:c=2"], [cycle(8)], seeds=(0,), collect_profile=False
        )
        run_experiments(base, config=SweepConfig(workers=1, checkpoint=checkpoint))
        # Same spec name is impossible (names embed the token), but force
        # the hazard anyway: a same-named spec under different constants
        # must re-run, not replay the stored c=2 measurements.
        retuned = [
            ExperimentSpec(
                name=base[0].name,
                protocol="flooding:c=3",
                topologies=[cycle(8)],
                seeds=(0,),
                collect_profile=False,
            )
        ]
        result = run_experiments(
            retuned,
            config=SweepConfig(workers=1, checkpoint=checkpoint),
        )[0]
        fresh = run_experiment(retuned[0])
        assert _comparable(result.cells) == _comparable(fresh.cells)
