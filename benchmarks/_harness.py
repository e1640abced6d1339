"""Shared helpers for the benchmark harness.

Every benchmark module reproduces one of the paper's evaluation artefacts
(Table 1 or a figure-style scaling/illustration; see DESIGN.md §2).  The
helpers here record the rendered report of each experiment both to stdout
and to ``benchmarks/results/<experiment>.txt``, so that ``pytest
benchmarks/ --benchmark-only`` leaves the regenerated tables on disk for
EXPERIMENTS.md regardless of output capturing.

Benchmarks measure a topology with :func:`repro.graphs.expansion_profile`,
which the topology instance memoizes: every algorithm run on that instance
reads the same ``t_mix`` and Φ, and two graphs that share a display name
never share a measurement.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from repro.analysis import render_table

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def record_report(experiment_id: str, *sections: str) -> Path:
    """Print a report and persist it under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    text = "\n\n".join(section for section in sections if section)
    path = RESULTS_DIR / f"{experiment_id}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n=== {experiment_id} ===\n{text}\n")
    return path


def rows_table(rows: List[dict], title: str, columns=None) -> str:
    """Thin wrapper over :func:`repro.analysis.render_table`."""
    return render_table(rows, title=title, columns=columns)


def record_bench_json(experiment_id: str, payload: Dict[str, object]) -> Path:
    """Persist a machine-readable benchmark record and print a BENCH line.

    The record lands in ``benchmarks/results/<experiment>.json`` and a
    single ``BENCH {...}`` line goes to stdout, so perf trajectories can be
    collected from CI logs with a grep.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    record = {"experiment": experiment_id, **payload}
    path = RESULTS_DIR / f"{experiment_id}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"BENCH {json.dumps(record, sort_keys=True)}")
    return path
