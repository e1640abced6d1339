"""The run-store contract and the append-only JSONL checkpoint store.

A *run store* is anything that keeps completed run records under their
deterministic task keys and meets the :class:`RunStore` contract:
``fetch(keys)``, ``fetch_fold_fields(keys)``, ``add(key, record)``,
``flush()``.  The sweep engine restores from and writes to a run store
and knows nothing else about it.  Two stores meet the contract:
:class:`JsonlCheckpointStore` (one sweep's resume file, defined here) and
:class:`~repro.archive.store.ResultArchive` (the SQLite archive that
memoized queries run against directly).

:class:`JsonlCheckpointStore` appends **one line per completed run**:

* line 1 is a header (``{"kind": "checkpoint", "format": "jsonl", ...}``)
  identifying the format;
* every further line is ``{"key": <task key>, "record": {...}}`` — the
  exact record :func:`~repro.parallel.checkpoint.result_to_record`
  produces, so restore/merge semantics are unchanged.

A flush appends only the runs completed since the last flush: O(new
records), independent of how many are already on disk.  A sweep killed
mid-append leaves at most one truncated trailing line, which the loader
drops (those runs simply re-execute); every earlier line is intact.

A file whose first line is not that header is refused at load, before
any flush could overwrite it: it is not a checkpoint, or it is a
whole-file JSON checkpoint (``{"version": 1, "runs": {...}}``) from a
build that predates the JSONL format, which is no longer read.

A **dead-line rewrite** bounds the file when records are superseded
(re-added keys): once enough dead lines accumulate, the next flush
rewrites the file atomically — sorted by key, so a rewritten store is
byte-deterministic.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple, Union

from ..core.errors import ConfigurationError
from ..obs import span
from .checkpoint import record_fold_fields, writer_token

__all__ = ["JSONL_FORMAT", "JsonlCheckpointStore", "RunStore"]

JSONL_FORMAT = "jsonl"
JSONL_FORMAT_VERSION = 1
_HEADER_KIND = "checkpoint"


def _header_line() -> str:
    return json.dumps(
        {
            "format": JSONL_FORMAT,
            "kind": _HEADER_KIND,
            "version": JSONL_FORMAT_VERSION,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def _record_line(key: str, record: Dict[str, object]) -> str:
    # Always compact separators: a JSONL record must be one line.
    return json.dumps(
        {"key": key, "record": record}, sort_keys=True, separators=(",", ":")
    )


def _is_jsonl_header(line: str) -> bool:
    try:
        payload = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(payload, dict)
        and payload.get("kind") == _HEADER_KIND
        and payload.get("format") == JSONL_FORMAT
    )


class RunStore(Protocol):
    """What the sweep engine needs of a store of completed runs."""

    def fetch(self, keys: Iterable[str]) -> Dict[str, Dict[str, object]]:
        """The stored records of ``keys``; absent keys are simply missing."""

    def fetch_fold_fields(self, keys: Iterable[str]) -> Dict[str, Sequence[object]]:
        """The fold fields of the stored runs of ``keys``; absent keys are missing.

        Per key, :func:`~repro.parallel.checkpoint.record_fold_fields` of
        its record, as any sequence: what a restored run folds into its
        cell from.  A store may answer without reading whole records.
        The engine restores through this read unless a sink past the
        cell aggregator needs each run rebuilt, when it calls
        :meth:`fetch` instead.
        """

    def add(self, key: str, record: Dict[str, object]) -> None:
        """Record one completed run (durable once :meth:`flush` returns)."""

    def flush(self) -> None:
        """Persist every record added so far."""


class JsonlCheckpointStore:
    """A checkpoint file of completed run records, keyed by task key.

    Flushes are throttled: :meth:`add` appends to disk when the last
    flush is older than ``flush_interval_seconds`` and otherwise only
    queues the record.  Callers flush explicitly at the end of a sweep;
    an interrupt in between loses at most one interval's worth of
    completed runs.  See the module docstring for the format.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        flush_interval_seconds: float = 1.0,
    ) -> None:
        self.path = Path(path)
        # Create missing parent directories up front: an unwritable or
        # misspelled checkpoint directory must fail at store construction,
        # not hours into a sweep when the first flush fires.
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        # Fail at construction, not mid-sweep: a negative interval would
        # flush on every add (probably a unit slip), and NaN comparisons
        # are always False, silently disabling throttled flushing.
        if math.isnan(flush_interval_seconds) or flush_interval_seconds < 0:
            raise ConfigurationError(
                f"flush_interval_seconds must be a non-negative number, "
                f"got {flush_interval_seconds}"
            )
        self.flush_interval_seconds = flush_interval_seconds
        self._runs: Dict[str, Dict[str, object]] = {}
        self._loaded = False
        self._dirty = False
        self._last_flush = float("-inf")
        #: (key, record) completions not yet appended to disk
        self._pending: List[Tuple[str, Dict[str, object]]] = []
        #: superseded lines sitting in the file (duplicate keys); when
        #: they outnumber the live records the next flush rewrites
        #: instead of appending
        self._dead_lines = 0
        #: force the next flush to be an atomic whole-file rewrite —
        #: set by torn-tail repair
        self._needs_rewrite = False

    def __contains__(self, key: str) -> bool:
        return key in self.load()

    def __len__(self) -> int:
        return len(self.load())

    def get(self, key: str) -> Optional[Dict[str, object]]:
        return self.load().get(key)

    def fetch(self, keys: Iterable[str]) -> Dict[str, Dict[str, object]]:
        """The stored records of ``keys`` (the :class:`RunStore` read)."""
        runs = self.load()
        return {key: runs[key] for key in keys if key in runs}

    def fetch_fold_fields(self, keys: Iterable[str]) -> Dict[str, Sequence[object]]:
        """The fold fields of the stored runs of ``keys``, from the loaded records."""
        return {
            key: record_fold_fields(record) for key, record in self.fetch(keys).items()
        }

    # ------------------------------------------------------------------ #
    # loading (header check + tolerant JSONL parse)
    # ------------------------------------------------------------------ #
    def load(self) -> Dict[str, Dict[str, object]]:
        """Load (once) and return every completed run record."""
        if self._loaded:
            return self._runs
        self._loaded = True
        with span("checkpoint.load"):
            if self.path.exists():
                self._load_file()
        return self._runs

    def _load_file(self) -> None:
        path = self.path
        text = path.read_text(encoding="utf-8")
        lines = text.split("\n")
        if not _is_jsonl_header(lines[0]):
            try:
                json.loads(text)
            except ValueError:
                problem = "is neither a JSONL checkpoint nor valid JSON"
            else:
                problem = "has no JSONL header line"
            raise ConfigurationError(
                f"checkpoint {path} {problem}: it is not a checkpoint, or it "
                f"predates the JSONL format (a whole-file JSON checkpoint "
                f"with a 'runs' table, which this build no longer reads); "
                f"delete or move it to start the sweep from scratch"
            )
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except ValueError as error:
                if number == len(lines):
                    # A writer died mid-append; drop the torn line (its
                    # runs re-execute) and keep everything before it.
                    self._needs_rewrite = True
                    self._dirty = True
                    continue
                raise ConfigurationError(
                    f"checkpoint {path} line {number} is not valid JSON "
                    f"({error}); the file is corrupt — delete or move it "
                    f"to start from scratch"
                ) from error
            if not isinstance(payload, dict):
                raise ConfigurationError(
                    f"checkpoint {path} line {number} is not a JSON object"
                )
            if payload.get("kind") == _HEADER_KIND:
                version = payload.get("version")
                if version != JSONL_FORMAT_VERSION:
                    raise ConfigurationError(
                        f"checkpoint {path} has JSONL format version "
                        f"{version!r}; this build reads version "
                        f"{JSONL_FORMAT_VERSION}"
                    )
                continue
            try:
                key = payload["key"]
                record = payload["record"]
            except KeyError as error:
                raise ConfigurationError(
                    f"checkpoint {path} line {number} is missing the "
                    f"{error.args[0]!r} field"
                ) from error
            if key in self._runs:
                self._dead_lines += 1
            self._runs[str(key)] = dict(record)

    # ------------------------------------------------------------------ #
    # writing (append by default, atomic rewrite once lines are dead)
    # ------------------------------------------------------------------ #
    def add(self, key: str, record: Dict[str, object]) -> None:
        """Record a completed run; flush unless one happened very recently."""
        self.load()
        existing = self._runs.get(key)
        if existing == record:
            return  # identical re-measurement: nothing new to persist
        if existing is not None:
            self._dead_lines += 1
        self._runs[key] = record
        self._pending.append((key, record))
        self._dirty = True
        if time.monotonic() - self._last_flush >= self.flush_interval_seconds:
            self.flush()

    def _compaction_due(self) -> bool:
        return self._dead_lines > max(64, len(self._runs))

    def flush(self) -> None:
        if not self._dirty and self.path.exists():
            return
        with span("checkpoint.flush"):
            if self._needs_rewrite or self._compaction_due():
                self._rewrite()
            else:
                self._append()
        self._dirty = False
        self._last_flush = time.monotonic()

    def write_fresh(self, records: Dict[str, Dict[str, object]]) -> None:
        """Make ``records`` the store's whole contents, written as a fresh file.

        Whatever ``path`` held is replaced unread, in one atomic whole-file
        write sorted by key — the byte-deterministic output a shard merge
        needs.
        """
        self._runs = dict(records)
        self._loaded = True
        with span("checkpoint.flush"):
            self._rewrite()
        self._dirty = False
        self._last_flush = time.monotonic()

    def _append(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        write_header = not self.path.exists() or self.path.stat().st_size == 0
        with open(self.path, "a", encoding="utf-8") as handle:
            if write_header:
                handle.write(_header_line() + "\n")
            for key, record in self._pending:
                handle.write(_record_line(key, record) + "\n")
        self._pending = []

    def _rewrite(self) -> None:
        """One atomic whole-file write: header + live records sorted by key."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        temp = self.path.with_name(f"{self.path.name}.{writer_token()}.tmp")
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(_header_line() + "\n")
            for key in sorted(self._runs):
                handle.write(_record_line(key, self._runs[key]) + "\n")
        os.replace(temp, self.path)
        self._pending = []
        self._dead_lines = 0
        self._needs_rewrite = False
