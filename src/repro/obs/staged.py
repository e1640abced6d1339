"""A JSONL export that is published only when complete.

The run export (:class:`repro.analysis.streaming.JsonlSink`) and the
telemetry export (:class:`repro.obs.telemetry.TelemetrySink`) write their
records through :class:`StagedJsonl`, so both keep one contract: a file
at ``<path>`` always describes a whole sweep, and a sweep that fails
leaves the previous file untouched and its records in ``<path>.partial``
for debugging.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Dict, Union

__all__ = ["StagedJsonl"]


class StagedJsonl:
    """JSON lines staged in ``<path>.partial`` and renamed over ``<path>``.

    The staging file (and its parent directory) is created on the first
    write.  :meth:`publish` replaces ``<path>`` with it — an empty file
    when nothing was written, so "ran and recorded nothing" differs from
    "no export".  :meth:`abort` closes it and publishes nothing.  Both
    are idempotent until the next write.

    A write after a publish starts a new staging file.  With
    ``accumulate`` set, that file starts with the published lines, so the
    next publish extends the export instead of replacing it.
    """

    def __init__(self, path: Union[str, Path], *, accumulate: bool = False) -> None:
        self.path = Path(path)
        self._staging = self.path.with_name(self.path.name + ".partial")
        self._accumulate = accumulate
        self._handle = None
        self._closed = False
        self._published = False

    def _open(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self._staging.open("w", encoding="utf-8")
            if self._accumulate and self._published and self.path.exists():
                # Streamed, not slurped: exports can be large.
                with self.path.open("r", encoding="utf-8") as published:
                    shutil.copyfileobj(published, self._handle)
        self._closed = False
        return self._handle

    def write(self, record: Dict[str, object]) -> None:
        """Append one record as a sorted-key JSON line."""
        self._open().write(json.dumps(record, sort_keys=True) + "\n")

    def publish(self) -> None:
        """Close the staging file and rename it over ``<path>``."""
        if self._closed:
            return
        self._open().close()
        self._handle = None
        self._closed = True
        self._published = True
        os.replace(self._staging, self.path)

    def abort(self) -> None:
        """Close the staging file, keep it, and publish nothing."""
        if self._closed:
            return
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._closed = True
