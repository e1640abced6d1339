"""Pins for the archive's stored fold row and its schema-1 upgrade.

Schema 2 stores each archived run's fold fields
(:func:`~repro.parallel.checkpoint.record_fold_fields`) next to its
record, and a warm query folds from them alone.  The pins below show
that a warm query without caller sinks never decodes a record, that the
stored row equals the fields read from the record for any record a run
can leave behind, that the in-place upgrade of a schema-1 archive is
all-or-nothing and runs once under concurrent openers, and that the
grid expansion's hoisted keys are byte-identical to :func:`task_key`.
"""

from __future__ import annotations

import json
import shutil
import sqlite3
import threading
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.archive.store as archive_store
from repro import api
from repro.analysis.experiments import summarize_results
from repro.analysis.robustness import curves_as_dicts, fold_experiments
from repro.archive import ResultArchive, query_experiments
from repro.core.errors import ConfigurationError
from repro.graphs import cycle, path
from repro.parallel.checkpoint import record_fold_fields
from repro.parallel.sharding import RunTask, expand_run_tasks, task_key

#: The ``runs`` table as schema 1 created it: no ``fold`` column.
SCHEMA_1_DDL = (
    "CREATE TABLE archive_meta ("
    "  key TEXT PRIMARY KEY,"
    "  value TEXT NOT NULL"
    ")",
    "CREATE TABLE runs ("
    "  task_key TEXT PRIMARY KEY,"
    "  spec_name TEXT NOT NULL,"
    "  topology_index INTEGER NOT NULL,"
    "  topology_name TEXT NOT NULL,"
    "  fingerprint TEXT NOT NULL,"
    "  seed_index INTEGER NOT NULL,"
    "  seed INTEGER NOT NULL,"
    "  adversary TEXT NOT NULL,"
    "  protocol TEXT NOT NULL,"
    "  record TEXT NOT NULL"
    ")",
    "CREATE INDEX runs_by_spec ON runs (spec_name, topology_index)",
    "INSERT INTO archive_meta (key, value) VALUES ('schema_version', '1')",
)

RUN_COLUMNS = (
    "task_key, spec_name, topology_index, topology_name, fingerprint, "
    "seed_index, seed, adversary, protocol, record"
)


def lossy_specs(seeds=3):
    specs, adversarial = api.plan_sweep(
        topologies=[cycle(6), path(5)],
        algorithms=["flooding", "gilbert"],
        adversary="loss",
        adversary_params=["p=0.3"],
        seeds=seeds,
        collect_profile=False,
    )
    assert adversarial
    return specs


def answer(specs, archive):
    """A query's cells, safety summaries and curves, as plain values."""
    result = api.query(specs, archive=archive)
    assert result.report.simulated_runs == 0
    cells = [cell for experiment in result.results for cell in experiment.cells]
    return (
        summarize_results(result.results),
        [cell.safety.summary() for cell in cells],
        curves_as_dicts(fold_experiments(specs, result.results)),
    )


def without_wall_clock(cells):
    return [
        {key: value for key, value in cell.items() if key != "mean_wall_clock_seconds"}
        for cell in cells
    ]


@pytest.fixture(scope="module")
def fresh_archive(tmp_path_factory):
    """A schema-2 archive of the lossy grid, one of its runs made unsafe."""
    specs = lossy_specs()
    db = tmp_path_factory.mktemp("fold-row") / "fresh.sqlite"
    assert query_experiments(specs, archive=db).report.simulated_runs == 12
    with ResultArchive(db) as archive:
        key = next(key for key in archive.keys() if key.startswith("flooding@"))
        record = archive.fetch([key])[key]
        record["outcome"].update(num_leaders=2, leader_indices=[0, 1], unique_leader=False)
        archive.add_records({key: record})
    return specs, db


def test_warm_query_reads_no_record(fresh_archive, tmp_path):
    specs, fresh = fresh_archive
    db = tmp_path / "a.sqlite"
    shutil.copyfile(fresh, db)
    before = answer(specs, db)
    assert any(summary["violations"] for summary in before[1])
    with closing(sqlite3.connect(str(db))) as conn, conn:
        assert conn.execute("UPDATE runs SET record = '{}'").rowcount == 12
    assert answer(specs, db) == before


def test_a_payload_without_fold_fields_restores_no_run(tmp_path):
    key = task_key("s", 0, "cycle_6", "f", 0, 0)
    with ResultArchive(tmp_path / "a.sqlite") as archive:
        archive.add_records({key: {"payload": 0}})
        assert archive.fetch([key]) == {key: {"payload": 0}}
        with pytest.raises(ConfigurationError, match="not a run record"):
            archive.fetch_fold_fields([key])


# --------------------------------------------------------------------------- #
# the stored row equals the fields read from the record
# --------------------------------------------------------------------------- #

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
adversaries = st.one_of(
    st.none(),
    st.dictionaries(st.text(max_size=8), json_scalars, max_size=4),
    st.text(max_size=8),
)
counts = st.integers(min_value=0, max_value=2**40)


@st.composite
def run_records(draw):
    """Records as current and earlier builds wrote them."""
    num_leaders = draw(st.integers(min_value=0, max_value=4))
    metrics = {
        "rounds": draw(counts),
        "messages": draw(counts),
        "bits": draw(counts),
        "congest_violations": 0,
    }
    for name in ("dropped_messages", "delayed_messages"):
        if draw(st.booleans()):
            metrics[name] = draw(counts)
    record = {
        "wall_clock_seconds": draw(
            st.floats(min_value=0, max_value=1e6, allow_nan=False)
        ),
        "algorithm": draw(st.text(max_size=12)),
        "topology_name": draw(st.text(max_size=12)),
        "num_nodes": draw(counts),
        "num_edges": draw(counts),
        "rounds_executed": draw(counts),
        "seed": draw(
            st.one_of(
                st.none(),
                st.integers(0, 2**63 - 1),
                # derived seeds: past SQLite's signed 64-bit integers
                st.integers(2**63, 2**64 - 1),
            )
        ),
        "outcome": {
            "num_leaders": num_leaders,
            "leader_indices": list(range(num_leaders)),
            "candidate_indices": [],
            "unique_leader": num_leaders == 1 and draw(st.booleans()),
            "agreement": draw(st.one_of(st.none(), st.booleans())),
        },
        "metrics": metrics,
    }
    if draw(st.booleans()):
        record["parameters"] = {"adversary": draw(adversaries), "protocol": "p"}
    return record


def typed(values):
    """``values`` with each element's type: ``True == 1`` must not pass."""
    return [(type(value), value) for value in values]


@pytest.fixture(scope="module")
def property_archive(tmp_path_factory):
    with ResultArchive(tmp_path_factory.mktemp("fold-row") / "p.sqlite") as archive:
        yield archive


@settings(max_examples=200, deadline=None)
@given(record=run_records(), seed=st.integers(0, 2**64 - 1))
def test_stored_fold_fields_are_the_records_fold_fields(property_archive, record, seed):
    key = task_key("spec", 0, "topology", "fingerprint", 0, seed, "adversary")
    property_archive.add_records({key: record})
    (stored,) = property_archive._conn.execute(
        "SELECT record FROM runs WHERE task_key = ?", (key,)
    ).fetchone()
    expected = list(record_fold_fields(json.loads(stored)))
    assert expected[10] == record.get("parameters", {}).get("adversary")
    fields = property_archive.fetch_fold_fields([key])
    assert typed(fields[key]) == typed(expected)
    assert property_archive.fetched_keys == {key}


# --------------------------------------------------------------------------- #
# the schema-1 upgrade
# --------------------------------------------------------------------------- #


def schema_1_copy(fresh, target):
    """A schema-1 archive, built by raw SQL, holding ``fresh``'s rows."""
    with closing(sqlite3.connect(str(fresh))) as source:
        rows = source.execute(f"SELECT {RUN_COLUMNS} FROM runs").fetchall()
    with closing(sqlite3.connect(str(target))) as conn, conn:
        for statement in SCHEMA_1_DDL:
            conn.execute(statement)
        conn.executemany(
            f"INSERT INTO runs ({RUN_COLUMNS}) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            rows,
        )
    return target


def raw_state(db):
    """The stored version, the ``runs`` columns and every record's text."""
    with closing(sqlite3.connect(str(db))) as conn:
        version = conn.execute(
            "SELECT value FROM archive_meta WHERE key = 'schema_version'"
        ).fetchone()[0]
        columns = [row[1] for row in conn.execute("PRAGMA table_info(runs)")]
        records = dict(conn.execute("SELECT task_key, record FROM runs"))
    return version, columns, records


def counting_fold_column(monkeypatch, fail_after=None):
    """Count the upgrade's backfilled rows; raise on row ``fail_after + 1``."""
    calls = []
    original = archive_store._fold_column

    def fold_column(record):
        calls.append(1)
        if fail_after is not None and len(calls) > fail_after:
            raise RuntimeError("injected failure mid-backfill")
        return original(record)

    monkeypatch.setattr(archive_store, "_fold_column", fold_column)
    return calls


def test_a_failed_upgrade_leaves_schema_1_untouched(fresh_archive, tmp_path, monkeypatch):
    _, fresh = fresh_archive
    db = schema_1_copy(fresh, tmp_path / "old.sqlite")
    before = raw_state(db)
    assert before[0] == "1" and "fold" not in before[1]
    counting_fold_column(monkeypatch, fail_after=5)
    with pytest.raises(RuntimeError, match="mid-backfill"):
        ResultArchive(db)
    assert raw_state(db) == before
    monkeypatch.undo()
    with ResultArchive(db) as archive:
        assert len(archive) == 12
    version, columns, records = raw_state(db)
    assert (version, records) == ("2", before[2])
    assert columns == before[1] + ["fold"]


def test_concurrent_openers_upgrade_once(fresh_archive, tmp_path, monkeypatch):
    _, fresh = fresh_archive
    db = schema_1_copy(fresh, tmp_path / "old.sqlite")
    calls = counting_fold_column(monkeypatch)
    # Both openers read schema 1 before either takes the write lock.
    both_saw_schema_1 = threading.Barrier(2, timeout=30)
    upgrade = ResultArchive._upgrade_schema

    def upgrade_together(self):
        both_saw_schema_1.wait()
        upgrade(self)

    monkeypatch.setattr(ResultArchive, "_upgrade_schema", upgrade_together)
    errors = []

    def open_archive():
        try:
            with ResultArchive(db) as archive:
                assert len(archive) == 12
        except BaseException as error:  # reported below, in the test thread
            errors.append(error)

    threads = [threading.Thread(target=open_archive) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert errors == []
    assert len(calls) == 12
    assert raw_state(db)[0] == "2"


def test_a_schema_1_create_cut_short_is_completed_as_schema_2(tmp_path):
    """A schema-1 writer that died after creating its tables, before the
    version row, left a ``runs`` table without ``fold``."""
    db = tmp_path / "cut.sqlite"
    with closing(sqlite3.connect(str(db))) as conn, conn:
        for statement in SCHEMA_1_DDL[:3]:
            conn.execute(statement)
    key = task_key("s", 0, "cycle_6", "f", 0, 0)
    with ResultArchive(db) as archive:
        archive.add_records({key: {"payload": 0}})
    version, columns, records = raw_state(db)
    assert (version, columns[-1], list(records)) == ("2", "fold", [key])


def test_an_upgraded_archive_answers_like_a_fresh_one(fresh_archive, tmp_path):
    specs, fresh = fresh_archive
    db = schema_1_copy(fresh, tmp_path / "old.sqlite")
    upgraded, native = answer(specs, db), answer(specs, fresh)
    assert without_wall_clock(upgraded[0]) == without_wall_clock(native[0])
    assert upgraded[1:] == native[1:]
    with ResultArchive(db) as old, ResultArchive(fresh) as new:
        keys = new.keys()
        assert old.keys() == keys
        assert old.fetch(keys) == new.fetch(keys)
        assert old.fetch_fold_fields(keys) == new.fetch_fold_fields(keys)
        assert old.stats()["schema_version"] == 2


# --------------------------------------------------------------------------- #
# grid expansion
# --------------------------------------------------------------------------- #

names = st.text(
    alphabet=st.characters(blacklist_characters="|", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=50, deadline=None)
@given(
    name=names,
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    adversary=st.sampled_from([None, "loss", "delay"]),
    algorithm=st.sampled_from(["flooding", "gilbert", "irrevocable"]),
    derive=st.one_of(st.none(), st.integers(0, 2**64 - 1)),
)
def test_expanded_tasks_are_the_tasks_of_their_fields(
    name, seeds, adversary, algorithm, derive
):
    specs, _ = api.plan_sweep(
        topologies=[cycle(4), path(3)],
        algorithms=[algorithm],
        adversary=adversary,
        adversary_params=["p=0.2"] if adversary else [],
        seeds=len(seeds),
        collect_profile=False,
    )
    spec = specs[0]
    spec = type(spec)(
        name=name,
        protocol=spec.protocol,
        topologies=spec.topologies,
        seeds=tuple(seeds),
        collect_profile=False,
        adversary=spec.adversary,
    )
    tasks = expand_run_tasks(
        spec, derive_seeds=derive is not None, base_seed=derive
    )
    assert len(tasks) == 2 * len(seeds)
    for task in tasks:
        built = RunTask(
            task.spec_name,
            task.runner,
            task.topology,
            task.topology_index,
            task.seed,
            task.seed_index,
            task.fingerprint,
            task.adversary,
            task.protocol,
        )
        assert task.key == built.key == task_key(
            task.spec_name,
            task.topology_index,
            task.topology.name,
            task.fingerprint,
            task.seed_index,
            task.seed,
            task.adversary,
            task.protocol,
        )
        assert task == built and hash(task) == hash(built)
        assert repr(task) == repr(built)
