"""Lossy robustness sweeps pinned by the repository benchmark's reference rows.

``perfbench/reference.json`` records the folded cell rows of the
``sweep-lossy`` workload (the ``mixed`` suite) and of its toy variant
(the ``tiny`` suite): flooding and the irrevocable election under the
lossy adversary ladder, one seed each.  Those runs drive the random-walk
phase through the adversary delivery path, so a kernel change that shifts
a single RNG draw or message there changes a row.  These tests replay
both grids and compare the rows exactly; the reference file is only read
here.

Rows are canonicalised as the benchmark does: cells folded by
``summarize_results``, sent through a JSON round trip, the wall-clock
column dropped, and sorted by (experiment, topology).  The toy grid runs
under both simulator backends; the full grid runs under the event backend
on one worker and on ``REPRO_TEST_WORKERS`` workers.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import api
from repro.analysis.experiments import summarize_results

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

WORKER_COUNTS = sorted({1} | {int(os.environ.get("REPRO_TEST_WORKERS", 1))})


def _reference(name: str, suite: str):
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[name]
    assert reference["suite"] == suite
    return reference["rows"]


def _sweep_rows(suite: str, config: api.SweepConfig):
    specs, _ = api.plan_sweep(
        suite=suite,
        algorithms=["flooding", "irrevocable"],
        scenario="lossy",
        seeds=1,
    )
    rows = json.loads(
        json.dumps(summarize_results(api.sweep(specs, config=config)), sort_keys=True)
    )
    for row in rows:
        del row["mean_wall_clock_seconds"]
    return sorted(rows, key=lambda row: (row["experiment"], row["topology"]))


@pytest.mark.parametrize("backend", ["event", "round"])
def test_toy_lossy_sweep_matches_reference(backend):
    rows = _sweep_rows("tiny", api.SweepConfig(backend=backend))
    assert rows == _reference("sweep-lossy-toy", "tiny")


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_lossy_sweep_matches_reference(workers):
    rows = _sweep_rows("mixed", api.SweepConfig(workers=workers, backend="event"))
    assert rows == _reference("sweep-lossy", "mixed")
