"""Experiment ``bench-robustness``: success/safety-vs-``p`` curves under faults.

The paper claims its protocols keep safety (never two leaders) at low
message cost; the repro's fault models ask what actually happens when the
execution model degrades.  This benchmark tracks that as *robustness
curves*: for each of the paper's protocols (``irrevocable``,
``revocable``, ``flooding``, ``gilbert``) and each adversary ladder —
i.i.d. message loss (``lossy``), link churn (``flaky-links``) and the
persistent per-link round skew of the asynchrony adversary (``skewed``)
— the success rate, safety rate and mean cost at every rung of the
dial.  The same curves are reproducible from the CLI::

    repro-le sweep --suite tiny --algorithms irrevocable --scenario skewed

Two guarantees are asserted on every run:

* **bit-equivalence** — the curves folded from a 2-worker pool and from
  a 2-way sharded split are byte-identical to the serially folded ones
  (``fold_experiments`` merges the cells' exact aggregates, so
  scheduling can never leak into the committed trajectory);
* **coverage** — every (protocol, scenario) pair yields a curve whose
  points cover the ladder's full ``p`` grid in strictly increasing
  order, baseline (``p = 0``) first.

Setting ``REPRO_BENCH_SMOKE=1`` switches to a seconds-long smoke
configuration (single seed, reduced revocable suite) that CI runs on
every push; smoke results are recorded under a separate experiment id so
they never clobber the committed trajectory.  The ``revocable`` protocol
is intrinsically expensive (its tiny-suite cells cost seconds each), so
it always runs on a reduced topology set; the BENCH JSON records which.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.robustness import (
    classify_adversary,
    curve_rows,
    curves_as_dicts,
    fold_experiments,
)
from repro.dynamics import robustness_specs
from repro.graphs import complete, cycle, star
from repro.parallel import SweepConfig, run_experiments
from repro.workloads import dynamic_scenario, tiny_suite

from _harness import record_bench_json, record_report, rows_table

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

EXPERIMENT_ID = "bench-robustness" + ("-smoke" if SMOKE else "")
#: The paper's protocols under test (registry names).
PROTOCOLS = ("irrevocable", "revocable", "flooding", "gilbert")
#: One ladder per failure mode: loss, churn, and the asynchrony adversary.
SCENARIOS = ("lossy", "flaky-links", "skewed")
SEEDS = (0,) if SMOKE else (0, 1, 2)


def _topologies_for(protocol: str):
    """The topology suite one protocol sweeps.

    ``revocable`` runs on the smallest graphs only — its per-run cost is
    seconds even at n=6, and the curves need many (rung × seed) runs.
    """
    if protocol == "revocable":
        return [complete(4), cycle(5)] if SMOKE else [complete(4), cycle(5), star(5)]
    return tiny_suite()


def _ladder_specs(ladder):
    """One experiment spec per (protocol × rung) of an adversary ladder."""
    specs = []
    for protocol in PROTOCOLS:
        specs.extend(
            robustness_specs(
                [protocol],
                _topologies_for(protocol),
                ladder,
                seeds=SEEDS,
                collect_profile=False,
            )
        )
    return specs


def _ladder_grid(scenario: str):
    """The dial values a scenario's curves must cover, baseline included."""
    return sorted({classify_adversary(rung)[1] for rung in dynamic_scenario(scenario)})


def _assert_coverage(scenario: str, curves) -> None:
    grid = _ladder_grid(scenario)
    assert len(curves) == len(PROTOCOLS), (
        f"{scenario}: expected one curve per protocol, got "
        f"{[(c.protocol, c.adversary) for c in curves]}"
    )
    for curve in curves:
        ps = [point.p for point in curve.points]
        assert ps == grid, (
            f"{scenario}/{curve.protocol}: curve covers p grid {ps}, "
            f"ladder dials {grid}"
        )
        assert all(point.runs > 0 for point in curve.points)
        # The unperturbed baseline calibrates the curve: every protocol
        # must elect a unique leader on every reliable run.
        assert curve.points[0].p == 0.0
        assert curve.points[0].success_rate == 1.0, (
            f"{scenario}/{curve.protocol}: baseline success rate "
            f"{curve.points[0].success_rate}"
        )


@pytest.mark.benchmark(group=EXPERIMENT_ID)
def test_robustness_curves(benchmark, tmp_path):
    def measure():
        # Every ladder shares the unperturbed baseline rung (the p=0
        # calibration point), and `revocable` baseline runs cost seconds
        # each: execute the baseline sweep once and fold it into every
        # scenario's curves instead of re-running it per ladder.
        baseline_specs = _ladder_specs([None])
        baseline_results = run_experiments(
            baseline_specs, config=SweepConfig(workers=1)
        )
        curves = {}
        for scenario in SCENARIOS:
            rungs = [r for r in dynamic_scenario(scenario) if r is not None]
            specs = _ladder_specs(rungs)
            results = run_experiments(specs, config=SweepConfig(workers=1))
            curves[scenario] = fold_experiments(
                baseline_specs + specs, baseline_results + results
            )
        return curves

    # repro: disable=REP102 — benchmark wall clock is the measurand
    started = time.perf_counter()
    curves_by_scenario = benchmark.pedantic(measure, rounds=1, iterations=1)
    wall_clock_seconds = time.perf_counter() - started  # repro: disable=REP102 — measurand

    # --- backend bit-equivalence ------------------------------------------ #
    # The acceptance bar for the whole subsystem: parallel and sharded
    # executions of a robustness grid must fold to byte-identical curves.
    # Checked on the skewed ladder with the two cheap extremes of the
    # protocol spectrum (the equivalence is about the fold, not the cost).
    equivalence_specs = lambda: robustness_specs(  # noqa: E731 - rebuilt per run
        ["flooding", "irrevocable"],
        [complete(4), cycle(5)],
        dynamic_scenario("skewed"),
        seeds=SEEDS,
        collect_profile=False,
    )
    def fold(*configs):
        """Run the grid once per config; fold all the results together."""
        specs, results = [], []
        for config in configs:
            run_specs = equivalence_specs()
            specs += run_specs
            results += run_experiments(run_specs, config=config)
        return curves_as_dicts(fold_experiments(specs, results))

    serial_curves = fold(SweepConfig(workers=1))
    assert fold(SweepConfig(workers=2)) == serial_curves, (
        "parallel curve fold diverged from serial"
    )
    sharded_curves = fold(
        *(
            SweepConfig(
                checkpoint=tmp_path / "bench-shards" / "sweep.json",
                shard=(shard_index, 2),
            )
            for shard_index in (0, 1)
        )
    )
    assert sharded_curves == serial_curves, "sharded curve fold diverged from serial"

    # --- coverage + report + BENCH JSON ----------------------------------- #
    sections = []
    for scenario in SCENARIOS:
        curves = curves_by_scenario[scenario]
        _assert_coverage(scenario, curves)
        sections.append(
            rows_table(
                curve_rows(curves),
                f"robustness curves under scenario {scenario!r} "
                f"({len(SEEDS)} seed(s) per cell)",
            )
        )
    record_report(EXPERIMENT_ID, *sections)
    record_bench_json(
        EXPERIMENT_ID,
        {
            "smoke": SMOKE,
            "protocols": list(PROTOCOLS),
            "scenarios": list(SCENARIOS),
            "seeds": len(SEEDS),
            "suite": "tiny",
            "revocable_topologies": [t.name for t in _topologies_for("revocable")],
            "wall_clock_seconds": wall_clock_seconds,
            "equivalence": "serial==parallel==sharded",
            "curves": [
                {"scenario": scenario, **record}
                for scenario in SCENARIOS
                for record in curves_as_dicts(curves_by_scenario[scenario])
            ],
        },
    )
