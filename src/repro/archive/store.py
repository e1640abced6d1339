"""Persistent, content-addressed archive of completed runs (SQLite).

The checkpoint layer already gives every run a deterministic task key
(:func:`repro.parallel.sharding.task_key`): the spec name, grid
coordinates, topology structure fingerprint, seed, adversary token and
protocol token — everything that decides the run's result, and nothing
that doesn't (backend, worker count and shard layout never enter a key).
:class:`ResultArchive` stores one checkpoint record
(:func:`repro.parallel.checkpoint.result_to_record`) per task key in a
single SQLite file, so completed sweeps *accumulate*: absorbing a second
checkpoint merges by key instead of appending duplicates, and any future
query that wants a run someone already measured gets the archived record
back bit-for-bit.

Why SQLite and not another JSONL file: an archive outlives any one sweep
and is queried by key *set* ("which of these 4000 task keys do you
hold?"), which the indexed ``runs`` table answers without loading
everything — the columnar-archive direction the ROADMAP's cross-machine
item names.  Concurrency safety comes from the database engine itself:
every write happens inside a transaction (an interrupted writer rolls
back to the last complete batch, never a torn tail), writers serialize
on the database lock (``timeout_seconds`` bounds the wait), and
``INSERT OR REPLACE`` keyed on the task key makes overlapping writers —
two shard jobs archiving the same grid — converge to last-write-wins
per key instead of conflicting.

The archive meets the same run-store contract as a checkpoint file
(:class:`repro.parallel.store.RunStore`: ``fetch``,
``fetch_fold_fields``, ``add``, ``flush``), so the sweep engine can
restore from it and write back to it directly — that is all a memoized
query is.

Each ``runs`` row holds the run's whole record (``record``) and, in
schema 2, its fold fields (``fold``): the
:func:`~repro.parallel.checkpoint.record_fold_fields` of the record as a
compact JSON array, written by :meth:`ResultArchive.add_records`, the
archive's one write path.  A warm query folds its cells from ``fold``
alone (:meth:`ResultArchive.fetch_fold_fields`) and never decodes a
record; a JSON array rather than typed columns keeps every field exact —
a seed of 2⁶³ or more, a bool, a float wall clock, ``None`` and the
adversary dict — through no SQLite affinity rule.  A payload that is not
a run record is stored with a NULL ``fold`` and still fetches as it was
added.

The schema is versioned.  A schema-1 archive (no ``fold`` column) is
upgraded in place the first time this build opens it: one
``BEGIN IMMEDIATE`` transaction adds the column, backfills it from each
record and sets the version to 2, re-reading the version inside the
transaction so that concurrent openers migrate once; an upgrade that
fails leaves the file at schema 1, untouched.  Builds that read only
schema 1 refuse a schema-2 archive, and any other version — say, one
written by a future incompatible build — is *refused*
(:class:`~repro.core.errors.ConfigurationError`), not misread.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Union

from ..core.errors import ConfigurationError
from ..obs import span
from ..parallel.checkpoint import record_fold_fields

__all__ = [
    "SCHEMA_VERSION",
    "TaskCoordinates",
    "ResultArchive",
    "parse_task_key",
]

#: Version of the on-disk layout.  Bump on any incompatible change to the
#: tables below; old builds must refuse newer archives rather than
#: misinterpret them.
SCHEMA_VERSION = 2

#: The one earlier version this build upgrades in place (no ``fold``).
_UPGRADABLE_VERSION = 1

#: Keys are fetched in bounded ``IN (...)`` chunks: SQLite caps bound
#: parameters per statement (999 in older builds), and a query's wanted
#: set can be arbitrarily large.
_FETCH_CHUNK = 500


def _sqlite_int64(value: int) -> int:
    """``value`` as a signed 64-bit integer (two's complement).

    SQLite integers are signed 64-bit, but a derived seed
    (:func:`repro.core.rng.derive_seed`) ranges over [0, 2⁶⁴).
    The wrap is lossless on that range; the task key and the record keep
    the true seed, the ``seed`` column is informational.
    """
    return value - (1 << 64) if value >= 1 << 63 else value


def _fold_column(record: Mapping[str, object]) -> Optional[str]:
    """The ``fold`` column of ``record``: its fold fields as a compact JSON
    array, or ``None`` when it is not a run record."""
    try:
        fields = record_fold_fields(record)
    except (KeyError, TypeError, AttributeError, ValueError):
        return None
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class TaskCoordinates:
    """The parsed components of one deterministic task key."""

    spec_name: str
    topology_index: int
    topology_name: str
    fingerprint: str
    seed_index: int
    seed: int
    adversary: str
    protocol: str


def parse_task_key(key: str) -> TaskCoordinates:
    """Split a task key back into its components.

    The key format (see :func:`repro.parallel.sharding.task_key`) is
    ``spec|topology_index|topology_name|fingerprint|seed_index|seed|``
    ``adversary`` with ``|protocol`` appended only when the spec's
    :meth:`~repro.analysis.experiments.ExperimentSpec.protocol_token` is
    non-empty — 7 or 8 segments, none of which contain ``|`` (the spec
    rejects ``|`` in its own and its topologies' names).
    """
    parts = key.split("|")
    if len(parts) == 7:
        parts.append("")
    if len(parts) != 8:
        raise ConfigurationError(
            f"malformed task key {key!r}: expected 7 or 8 |-separated "
            f"segments, got {len(parts)}"
        )
    try:
        topology_index = int(parts[1])
        seed_index = int(parts[4])
        seed = int(parts[5])
    except ValueError as error:
        raise ConfigurationError(
            f"malformed task key {key!r}: non-integer grid coordinate "
            f"({error})"
        ) from error
    return TaskCoordinates(
        spec_name=parts[0],
        topology_index=topology_index,
        topology_name=parts[2],
        fingerprint=parts[3],
        seed_index=seed_index,
        seed=seed,
        adversary=parts[6],
        protocol=parts[7],
    )


class ResultArchive:
    """A SQLite archive of completed runs, keyed by deterministic task key.

    ``add_records`` absorbs checkpoint records (append-merge: replacing a
    key is idempotent because re-runs are deterministic), ``fetch``
    answers a wanted-key set with the archived records,
    ``fetch_fold_fields`` with their stored fold fields, and ``stats``
    summarises what the archive holds.  ``add`` buffers single records
    and ``flush`` commits the buffer in one ``add_records`` transaction
    — the run-store contract the sweep engine writes through; nothing
    added is persisted before ``flush``.  Open archives are context
    managers::

        with ResultArchive("results.sqlite") as archive:
            archive.add_records(store.load())
            hits = archive.fetch(wanted_keys)
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        timeout_seconds: float = 30.0,
    ) -> None:
        self.path = Path(path)
        #: records buffered by :meth:`add`, committed by :meth:`flush`
        self._pending: Dict[str, Mapping[str, object]] = {}
        #: runs that :meth:`flush` newly added (not replaced) since opening
        self.flushed_new_runs = 0
        #: the keys the most recent :meth:`fetch` or
        #: :meth:`fetch_fold_fields` asked for — the runs a sweep
        #: restoring from this archive wants
        self.requested_keys: List[str] = []
        #: the keys that read returned — the runs a sweep restoring from
        #: this archive actually replayed
        self.fetched_keys: Set[str] = set()
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._timeout_seconds = timeout_seconds
        self._conn = sqlite3.connect(str(self.path), timeout=timeout_seconds)
        try:
            self.check_schema()
        except BaseException:
            self._conn.close()
            raise

    # ------------------------------------------------------------------ #
    # schema
    # ------------------------------------------------------------------ #
    def check_schema(self) -> None:
        """Check the stored schema version, creating the tables if absent.

        Opening runs this check, and a caller that keeps the archive open
        across requests runs it before each one.  Checking a current
        archive only reads, so it never queues for the write lock: the
        tables are created, in a write transaction, only while the
        version row is missing (a new file, or a writer that died
        mid-create), and a schema-1 archive is upgraded in place (see
        the module docstring).  Every failure is a ``ConfigurationError``.
        """
        try:
            self._check_schema()
        except sqlite3.DatabaseError as error:
            if isinstance(error, sqlite3.OperationalError) and "locked" in str(error):
                raise ConfigurationError(
                    f"result archive {self.path} is busy ({error}): another "
                    f"connection held its lock for over "
                    f"{self._timeout_seconds:g} s; retry once that writer "
                    f"finishes"
                ) from error
            raise ConfigurationError(
                f"{self.path} is not a result archive (unreadable as a "
                f"SQLite database: {error}); if a writer died mid-create, "
                f"delete the file and re-populate with `repro-le archive "
                f"add`"
            ) from error

    def _check_schema(self) -> None:
        tables = [
            name
            for (name,) in self._conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        ]
        if tables and "archive_meta" not in tables:
            raise ConfigurationError(
                f"{self.path} is a SQLite database but not a result "
                f"archive (no archive_meta table; found table "
                f"{tables[0]!r}) — refusing to write into a foreign "
                f"database"
            )
        stored = self._stored_version() if tables else None
        if stored is None:
            self._create_schema()
            stored = self._stored_version()
        if stored == str(_UPGRADABLE_VERSION):
            self._upgrade_schema()
            stored = self._stored_version()
        if stored != str(SCHEMA_VERSION):
            raise ConfigurationError(
                f"archive {self.path} has schema version {stored}; this "
                f"build reads version {SCHEMA_VERSION} — use a matching "
                f"build or re-populate a fresh archive"
            )

    @contextmanager
    def _write_transaction(self) -> Iterator[None]:
        """One ``BEGIN IMMEDIATE`` transaction: the write lock is taken up
        front, and everything inside commits or rolls back together."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield
        except BaseException:
            self._conn.rollback()
            raise
        self._conn.commit()

    def _create_schema(self) -> None:
        with self._write_transaction():
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS archive_meta ("
                "  key TEXT PRIMARY KEY,"
                "  value TEXT NOT NULL"
                ")"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS runs ("
                "  task_key TEXT PRIMARY KEY,"
                "  spec_name TEXT NOT NULL,"
                "  topology_index INTEGER NOT NULL,"
                "  topology_name TEXT NOT NULL,"
                "  fingerprint TEXT NOT NULL,"
                "  seed_index INTEGER NOT NULL,"
                "  seed INTEGER NOT NULL,"
                "  adversary TEXT NOT NULL,"
                "  protocol TEXT NOT NULL,"
                "  record TEXT NOT NULL,"
                "  fold TEXT"
                ")"
            )
            if "fold" not in self._run_columns():
                # A schema-1 writer died mid-create, leaving its table.
                self._conn.execute("ALTER TABLE runs ADD COLUMN fold TEXT")
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS runs_by_spec "
                "ON runs (spec_name, topology_index)"
            )
            self._conn.execute(
                "INSERT OR IGNORE INTO archive_meta (key, value) "
                "VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )

    def _upgrade_schema(self) -> None:
        """Give a schema-1 archive its ``fold`` column, in one transaction.

        The version is re-read under the write lock: of several openers
        that found schema 1, the first migrates and the rest find
        schema 2 and do nothing.
        """
        with self._write_transaction():
            if self._stored_version() != str(_UPGRADABLE_VERSION):
                return
            self._conn.execute("ALTER TABLE runs ADD COLUMN fold TEXT")
            rows = self._conn.execute("SELECT task_key, record FROM runs").fetchall()
            self._conn.executemany(
                "UPDATE runs SET fold = ? WHERE task_key = ?",
                [(_fold_column(json.loads(record)), key) for key, record in rows],
            )
            self._conn.execute(
                "UPDATE archive_meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION),),
            )

    def _run_columns(self) -> Set[str]:
        return {row[1] for row in self._conn.execute("PRAGMA table_info(runs)")}

    def _stored_version(self) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM archive_meta WHERE key='schema_version'"
        ).fetchone()
        return row[0] if row else None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultArchive":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __len__(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0])

    def __contains__(self, key: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM runs WHERE task_key = ?", (key,)
        ).fetchone()
        return row is not None

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def add_records(self, records: Mapping[str, Mapping[str, object]]) -> int:
        """Absorb checkpoint records keyed by task key; return the newly added count.

        Existing keys are *replaced* (runs are deterministic, so any two
        records for one key describe the same measurement — last write
        wins and overlapping writers converge).  The whole batch commits
        in one transaction: an interrupted add leaves the archive at its
        previous complete state.
        """
        if not records:
            return 0
        with span("archive.add"):
            keys = list(records.keys())
            existing = len(self.present(keys))
            rows = []
            for key in keys:
                coords = parse_task_key(key)
                record = records[key]
                rows.append(
                    (
                        key,
                        coords.spec_name,
                        coords.topology_index,
                        coords.topology_name,
                        coords.fingerprint,
                        coords.seed_index,
                        _sqlite_int64(coords.seed),
                        coords.adversary,
                        coords.protocol,
                        json.dumps(record, sort_keys=True),
                        _fold_column(record),
                    )
                )
            with self._conn:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO runs (task_key, spec_name, "
                    "topology_index, topology_name, fingerprint, seed_index, "
                    "seed, adversary, protocol, record, fold) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    rows,
                )
        return len(keys) - existing

    def add(self, key: str, record: Mapping[str, object]) -> None:
        """Buffer one run record until :meth:`flush`."""
        self._pending[key] = record

    def flush(self) -> None:
        """Commit the buffered records in one :meth:`add_records` transaction."""
        if self._pending:
            self.flushed_new_runs += self.add_records(self._pending)
            self._pending = {}

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def _select(self, columns: str, keys: List[str]) -> Iterator[List[tuple]]:
        """The ``columns`` of the stored rows of ``keys``, one list per chunk.

        Keys go in bounded ``IN (...)`` chunks of :data:`_FETCH_CHUNK`.
        """
        for start in range(0, len(keys), _FETCH_CHUNK):
            chunk = keys[start : start + _FETCH_CHUNK]
            yield self._conn.execute(
                f"SELECT {columns} FROM runs "
                f"WHERE task_key IN ({','.join('?' * len(chunk))})",
                chunk,
            ).fetchall()

    def fetch(self, keys: Iterable[str]) -> Dict[str, Dict[str, object]]:
        """The archived records of ``keys`` (missing keys simply absent)."""
        wanted = self.requested_keys = list(keys)
        hits: Dict[str, Dict[str, object]] = {}
        with span("archive.fetch"):
            for rows in self._select("task_key, record", wanted):
                for key, payload in rows:
                    hits[key] = json.loads(payload)
        self.fetched_keys = set(hits)
        return hits

    def fetch_fold_fields(self, keys: Iterable[str]) -> Dict[str, List[object]]:
        """The stored fold fields of ``keys`` (missing keys simply absent).

        Read from the ``fold`` column alone, each chunk's arrays decoded
        in one ``json.loads``; no ``record`` is read.  A key stored
        without fold fields holds a payload that is not a run record,
        which no run can restore from: a ``ConfigurationError``.
        """
        wanted = self.requested_keys = list(keys)
        hits: Dict[str, List[object]] = {}
        with span("archive.fetch_fold_fields"):
            for rows in self._select("task_key, fold", wanted):
                for key, fold in rows:
                    if fold is None:
                        raise ConfigurationError(
                            f"archived run {key!r} in {self.path} is not a "
                            f"run record (it has no fold fields), so no run "
                            f"can be restored from it"
                        )
                folds = json.loads("[" + ",".join(fold for _, fold in rows) + "]")
                hits.update(zip([key for key, _ in rows], folds))
        self.fetched_keys = set(hits)
        return hits

    def present(self, keys: Iterable[str]) -> Set[str]:
        """The subset of ``keys`` the archive holds (records not read)."""
        found: Set[str] = set()
        for rows in self._select("task_key", list(keys)):
            found.update(row[0] for row in rows)
        return found

    def keys(self) -> List[str]:
        """Every archived task key, in sorted order."""
        return [
            row[0]
            for row in self._conn.execute(
                "SELECT task_key FROM runs ORDER BY task_key"
            )
        ]

    def stats(self) -> Dict[str, object]:
        """Summary of the archive's contents (for ``archive stats`` and ``/stats``)."""
        specs = [
            {"spec": row[0], "runs": row[1]}
            for row in self._conn.execute(
                "SELECT spec_name, COUNT(*) FROM runs "
                "GROUP BY spec_name ORDER BY spec_name"
            )
        ]
        adversaries = int(
            self._conn.execute(
                "SELECT COUNT(DISTINCT adversary) FROM runs WHERE adversary != ''"
            ).fetchone()[0]
        )
        protocols = int(
            self._conn.execute(
                "SELECT COUNT(DISTINCT protocol) FROM runs WHERE protocol != ''"
            ).fetchone()[0]
        )
        return {
            "path": str(self.path),
            "schema_version": SCHEMA_VERSION,
            "runs": len(self),
            "specs": len(specs),
            "distinct_adversaries": adversaries,
            "distinct_protocols": protocols,
            "per_spec": specs,
        }

