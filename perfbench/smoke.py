"""Smoke test of the benchmark: every workload at toy size, both run modes.

Checks that ``BENCHMARK.json`` keeps to its contract, and that each run
exits cleanly, checks its outputs without a failure, and prints exactly
the metric names and units ``BENCHMARK.json`` declares.  Takes under a
minute; run it from the repository root with either of::

    python3 perfbench/smoke.py
    python3 -m pytest -q perfbench/smoke.py
"""

from __future__ import annotations

import json
import re
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_keeps_to_the_contract():
    assert sorted(SPEC) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"
    ]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= int(SPEC["run_seconds"]) <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert sorted(workload) == ["name", "why"] and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    setup = [metric for metric in SPEC["end_to_end"] if metric["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(metric["bound"] for metric in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]


def run_toy(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_every_workload_prints_the_declared_metrics():
    for workload in (entry["name"] for entry in SPEC["workloads"]):
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            result = run_toy(workload, trace)
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] is True and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert printed == {metric["name"]: metric["unit"] for metric in declared}, (workload, trace)
            for metric in result["metrics"].values():
                assert isinstance(metric["value"], (int, float))


if __name__ == "__main__":
    test_benchmark_json_keeps_to_the_contract()
    test_every_workload_prints_the_declared_metrics()
    print("perfbench smoke: ok")
