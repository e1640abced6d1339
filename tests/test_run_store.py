"""The run-store contract and queries that run straight against the archive.

Both :class:`repro.parallel.store.JsonlCheckpointStore` and
:class:`repro.archive.store.ResultArchive` meet the three-method contract
the sweep engine restores from and writes to (``fetch``, ``add``,
``flush``).  A memoized query hands the archive itself to the engine as
its checkpoint: no staging directory, no staging file, and misses that
completed before a failure are kept.  Records in the shape earlier
builds wrote, carrying per-node ``node_results``, replay from either
store without a run executing.
"""

from __future__ import annotations

import sqlite3
import tempfile
from contextlib import closing

import pytest

from repro.analysis.experiments import ExperimentSpec
from repro.archive import ResultArchive, parse_task_key, query_experiments
from repro.graphs import cycle, path
from repro.parallel import SweepConfig, TaskExecutionError, run_experiments
from repro.parallel.sharding import expand_run_tasks
from repro.parallel.store import JsonlCheckpointStore
from repro.protocols import run_protocol
from repro.workloads import sweep_specs

KEYS = ("s|0|cycle_6|f1|0|0|", "s|0|cycle_6|f1|1|1|", "s|1|path_5|f2|0|0|")


def small_specs():
    return sweep_specs(
        ["flooding"], [cycle(6), path(5)], seeds=(0, 1), collect_profile=False
    )


def _open(kind, directory):
    if kind == "jsonl":
        return JsonlCheckpointStore(directory / "ck.jsonl")
    return ResultArchive(directory / "archive.sqlite")


def _close(store):
    close = getattr(store, "close", None)
    if close is not None:
        close()


@pytest.mark.parametrize("kind", ["jsonl", "archive"])
class TestRunStoreContract:
    def test_fetch_returns_only_present_keys(self, kind, tmp_path):
        store = _open(kind, tmp_path)
        store.add(KEYS[0], {"payload": 0})
        store.add(KEYS[1], {"payload": 1})
        store.flush()
        assert store.fetch([KEYS[1], KEYS[2]]) == {KEYS[1]: {"payload": 1}}
        assert store.fetch([]) == {}
        _close(store)

    def test_add_and_flush_survive_reopening(self, kind, tmp_path):
        store = _open(kind, tmp_path)
        for index, key in enumerate(KEYS):
            store.add(key, {"payload": index})
        store.flush()
        _close(store)
        reopened = _open(kind, tmp_path)
        assert reopened.fetch(KEYS) == {
            key: {"payload": index} for index, key in enumerate(KEYS)
        }
        _close(reopened)


class TestArchiveBuffering:
    def test_nothing_persisted_before_flush(self, tmp_path):
        db = tmp_path / "archive.sqlite"
        with ResultArchive(db) as writer, ResultArchive(db) as reader:
            writer.add(KEYS[0], {"payload": 0})
            writer.add(KEYS[1], {"payload": 1})
            assert reader.fetch(KEYS) == {}
            assert KEYS[0] not in writer
            writer.flush()
            assert set(reader.fetch(KEYS)) == {KEYS[0], KEYS[1]}
            assert writer.flushed_new_runs == 2
            # Replacing a key is not a new run; an empty flush is a no-op.
            writer.add(KEYS[0], {"payload": 0})
            writer.flush()
            writer.flush()
            assert writer.flushed_new_runs == 2

    def test_present_reads_keys_only(self, tmp_path):
        with ResultArchive(tmp_path / "archive.sqlite") as archive:
            archive.add_records({KEYS[0]: {"payload": 0}})
            assert archive.present([KEYS[0], KEYS[2]]) == {KEYS[0]}
            assert archive.present([]) == set()


class TestQueryRunsAgainstTheArchive:
    def test_query_makes_no_temp_dir(self, tmp_path, monkeypatch):
        def no_temp_dir(*args, **kwargs):
            raise AssertionError("a query must not create a temp dir")

        monkeypatch.setattr(tempfile, "mkdtemp", no_temp_dir)
        db = tmp_path / "archive.sqlite"
        cold = query_experiments(small_specs(), archive=db)
        warm = query_experiments(small_specs(), archive=db)
        assert cold.report.simulated_runs == 4
        assert warm.report.simulated_runs == 0
        assert warm.report.archived_runs == 4
        assert sorted(tmp_path.iterdir()) == [db]

    def test_failed_query_keeps_completed_misses(
        self, tmp_path, register_fake_protocol
    ):
        """A run that raises after k misses leaves those k in the archive."""
        register_fake_protocol("fails-at-seed-2", _fail_at_seed_2)
        spec = ExperimentSpec(
            name="fails-at-seed-2",
            protocol="fails-at-seed-2",
            topologies=[cycle(6)],
            seeds=(0, 1, 2, 3),
            collect_profile=False,
        )
        db = tmp_path / "archive.sqlite"
        with pytest.raises(TaskExecutionError):
            query_experiments([spec], archive=db)
        with ResultArchive(db) as archive:
            kept = sorted(parse_task_key(key).seed for key in archive.keys())
        assert kept == [0, 1]

    def test_report_counts_runs_the_engine_replayed(self, tmp_path, monkeypatch):
        """A run another writer archives just before the engine's restore
        read is replayed, so the report must count it as archived, not
        simulated."""
        reference = tmp_path / "reference.sqlite"
        query_experiments(small_specs(), archive=reference)
        with ResultArchive(reference) as source:
            landed = source.fetch(source.keys()[:1])
        db = tmp_path / "archive.sqlite"
        original_read = ResultArchive.fetch_fold_fields

        def read_after_concurrent_write(self, keys):
            with ResultArchive(db) as writer:
                writer.add_records(landed)
            return original_read(self, keys)

        monkeypatch.setattr(
            ResultArchive, "fetch_fold_fields", read_after_concurrent_write
        )
        report = query_experiments(small_specs(), archive=db).report
        assert report.requested_runs == 4
        assert report.archived_runs == 1
        assert report.simulated_runs == 3
        assert report.simulated_cells == 2
        assert report.archive_added == 3

    def test_derived_seeds_are_archived_and_replayed(self, tmp_path):
        db = tmp_path / "archive.sqlite"
        first = query_experiments(
            small_specs(),
            archive=db,
            config=SweepConfig(derive_seeds=True, base_seed=3),
        )
        second = query_experiments(
            small_specs(),
            archive=db,
            config=SweepConfig(derive_seeds=True, base_seed=3),
        )
        assert first.report.simulated_runs == 4
        assert first.report.archive_added == 4
        assert second.report.simulated_runs == 0
        assert second.report.archived_runs == 4
        # The informational column holds the seed's two's complement; the
        # task key keeps the true seed.
        tasks = [
            task
            for spec in small_specs()
            for task in expand_run_tasks(spec, derive_seeds=True, base_seed=3)
        ]
        assert any(task.seed >= 1 << 63 for task in tasks)
        with closing(sqlite3.connect(str(db))) as conn:
            stored = dict(conn.execute("SELECT task_key, seed FROM runs"))
        for task in tasks:
            assert parse_task_key(task.key).seed == task.seed
            assert stored[task.key] % (1 << 64) == task.seed


class TestRecordsWithNodeResults:
    """A store written before records dropped ``node_results`` still
    answers: the field is ignored and every cell matches a fresh sweep."""

    @pytest.fixture
    def fresh_and_stored(self, pre_change_records, register_fake_protocol):
        specs = small_specs()
        fresh = run_experiments(specs)
        tasks = [task for spec in specs for task in expand_run_tasks(spec)]
        records = pre_change_records(tasks)
        # From here on, running a flooding election is a test failure.
        register_fake_protocol("flooding", _refuse_to_run)
        return fresh, records

    def test_jsonl_checkpoint_resumes_without_running(
        self, tmp_path, fresh_and_stored
    ):
        fresh, records = fresh_and_stored
        path = tmp_path / "ck.jsonl"
        JsonlCheckpointStore(path).write_fresh(records)
        resumed = run_experiments(
            small_specs(), config=SweepConfig(checkpoint=path)
        )
        assert _cells(resumed) == _cells(fresh)

    def test_archive_answers_without_simulating(self, tmp_path, fresh_and_stored):
        fresh, records = fresh_and_stored
        db = tmp_path / "archive.sqlite"
        with ResultArchive(db) as archive:
            archive.add_records(records)
        answer = query_experiments(small_specs(), archive=db)
        assert answer.report.simulated_runs == 0
        assert answer.report.archived_runs == len(records)
        assert _cells(answer.results) == _cells(fresh)


def _cells(results):
    return [
        [
            {
                key: value
                for key, value in cell.as_dict().items()
                if key != "mean_wall_clock_seconds"
            }
            for cell in result.cells
        ]
        for result in results
    ]


def _refuse_to_run(topology, seed):
    raise AssertionError("a stored run must replay, not execute")


def _fail_at_seed_2(topology, seed):
    if seed == 2:
        raise RuntimeError("injected failure")
    return run_protocol("flooding", topology, seed)
