"""Tests for the robustness-curve subsystem (``repro.analysis.robustness``).

The contract under test:

* classification: every adversary rung maps to a (family, dial) pair —
  model defaults resolve, churn dials ``p_down``, composed rungs take the
  maximum of their parts, the baseline sits at ``("", 0.0)``;
* folding: ``fold_experiments`` merges the cells' exact aggregates, so
  its means equal the exact means of the runs, and it is independent of
  scheduling — serial, any worker count, or the concatenated results of
  a sharded split produce bit-identical curves;
* assembly: points are sorted by strictly increasing ``p``, the shared
  baseline rung is prepended to every family curve of its protocol;
* the ``robustness_curves`` workload helper crosses protocol parameter
  grids with adversary ladders into ordinary experiment specs.
"""

from __future__ import annotations

import io
import os
from dataclasses import replace
from fractions import Fraction

import pytest

from repro.analysis import run_experiment
from repro.analysis.robustness import (
    DIAL_PARAMETERS,
    classify_adversary,
    curve_rows,
    curves_as_dicts,
    fold_experiments,
)
from repro.analysis.streaming import CollectingSink, ProgressSink
from repro.core.errors import ConfigurationError
from repro.dynamics import AdversarySpec, composed_spec, robustness_specs
from repro.graphs import complete, cycle, star
from repro.parallel import SweepConfig, run_experiments
from repro.protocols import run_protocol
from repro.workloads import dynamic_scenario, robustness_curves, tiny_suite

WORKER_COUNTS = sorted({2, 4} | {int(os.environ.get("REPRO_TEST_WORKERS", 2))})


def _lossy_specs(seeds=(0, 1)):
    return robustness_specs(
        ["flooding"],
        [cycle(8), star(8)],
        dynamic_scenario("lossy"),
        seeds=seeds,
        collect_profile=False,
    )


def _flooding_c3(topology, seed):
    """A registered protocol whose runs report the built-in's algorithm."""
    return run_protocol("flooding", topology, seed, c=3.0)


def _curves_for(specs, config=None):
    return fold_experiments(specs, run_experiments(specs, config=config))


# --------------------------------------------------------------------------- #
# classification
# --------------------------------------------------------------------------- #


class TestClassifyAdversary:
    def test_baseline(self):
        assert classify_adversary(None) == ("", 0.0)

    def test_explicit_dial(self):
        assert classify_adversary(AdversarySpec.create("loss", p=0.1)) == ("loss", 0.1)
        assert classify_adversary(AdversarySpec.create("skew", p=0.3, max_skew=2)) == (
            "skew",
            0.3,
        )

    def test_churn_dials_p_down(self):
        assert DIAL_PARAMETERS["churn"] == "p_down"
        spec = AdversarySpec.create("churn", p_down=0.2, p_up=0.5)
        assert classify_adversary(spec) == ("churn", 0.2)

    def test_model_defaults_resolve(self):
        # A rung that leaves the dial at the model default must classify
        # at that default, not at zero.
        family, p = classify_adversary(AdversarySpec.create("loss"))
        assert family == "loss" and p == pytest.approx(0.05)

    def test_composed_takes_max_of_parts(self):
        spec = composed_spec(
            AdversarySpec.create("skew", p=0.4, max_skew=2),
            AdversarySpec.create("delay", p=0.1),
        )
        assert classify_adversary(spec) == ("composed", 0.4)

    def test_accepts_recorded_dict_form(self):
        spec = AdversarySpec.create("loss", p=0.1)
        assert classify_adversary(spec.as_dict()) == classify_adversary(spec)

    def test_garbage_rejected(self):
        with pytest.raises(ConfigurationError):
            classify_adversary({"params": {}})


# --------------------------------------------------------------------------- #
# folding
# --------------------------------------------------------------------------- #


class TestCurveFolding:
    def test_fold_builds_one_curve_per_family_with_baseline_first(self):
        curves = _curves_for(_lossy_specs())
        assert len(curves) == 1
        curve = curves[0]
        assert curve.adversary == "loss"
        assert [point.p for point in curve.points] == [0.0, 0.01, 0.05, 0.1]
        # 2 topologies x 2 seeds per rung.
        assert all(point.runs == 4 for point in curve.points)
        assert curve.points[0].success_rate == 1.0
        assert curve.points[0].safety_rate == 1.0

    def test_series_and_rows_and_dicts(self):
        (curve,) = _curves_for(_lossy_specs())
        series = curve.series("success_rate")
        assert [p for p, _ in series] == [0.0, 0.01, 0.05, 0.1]
        rows = curve_rows([curve])
        assert len(rows) == 4
        assert rows[0]["adversary"] == "loss"
        assert {"p", "runs", "success_rate", "safety_rate"} <= set(rows[0])
        (record,) = curves_as_dicts([curve])
        assert record["protocol"] == curve.protocol
        assert len(record["points"]) == 4

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_curves_identical_for_any_worker_count(self, workers):
        specs = _lossy_specs()
        serial = _curves_for(specs)
        parallel = _curves_for(specs, config=SweepConfig(workers=workers))
        assert curves_as_dicts(parallel) == curves_as_dicts(serial)

    def test_sharded_split_folds_to_serial_curves(self, tmp_path):
        specs = _lossy_specs()
        serial = _curves_for(specs)
        shard_results = []
        for shard_index in (0, 1, 2):
            shard_results += run_experiments(
                specs,
                config=SweepConfig(
                    checkpoint=tmp_path / "sweep.json",
                    shard=(shard_index, 3),
                ),
            )
        sharded = fold_experiments(specs * 3, shard_results)
        assert curves_as_dicts(sharded) == curves_as_dicts(serial)

    def test_wrapper_of_a_builtin_gets_its_own_curve(self, register_fake_protocol):
        # The wrapper's runs say "flooding-max-id" like flooding's own; the
        # protocol stamp must keep the two protocols' curves apart.
        register_fake_protocol("flooding-wrapper", _flooding_c3)
        specs = robustness_specs(
            ["flooding", "flooding-wrapper"],
            [cycle(6)],
            [None, AdversarySpec.create("loss", p=0.1)],
            seeds=(0, 1),
        )
        curves = _curves_for(specs)
        assert [(c.protocol, c.adversary) for c in curves] == [
            ("flooding-max-id", "loss"),
            ("flooding-wrapper", "loss"),
        ]
        for curve in curves:
            assert [(point.p, point.runs) for point in curve.points] == [
                (0.0, 2),
                (0.1, 2),
            ]

    def test_fold_means_are_exact_means_of_the_runs(self):
        # 3952/15 messages at p = 0: a fold of the cells' rounded means
        # lands one ulp off; merging their exact aggregates does not.
        specs = robustness_specs(
            ["gilbert"],
            tiny_suite(),
            [None, AdversarySpec.create("loss", p=0.1)],
            seeds=(0, 1, 2),
        )
        collected = CollectingSink()
        results = run_experiments(specs, sinks=[collected])
        (curve,) = fold_experiments(specs, results)
        for spec, point in zip(specs, curve.points):
            runs = [
                run
                for index in range(len(spec.topologies))
                for run in collected.results_for(spec.name, index)
            ]
            assert point.runs == len(runs)
            for mean, values in (
                (point.mean_messages, [run.messages for run in runs]),
                (point.mean_rounds, [run.rounds_executed for run in runs]),
                (
                    point.mean_dropped_messages,
                    [run.metrics.dropped_messages for run in runs],
                ),
                (
                    point.mean_delayed_messages,
                    [run.metrics.delayed_messages for run in runs],
                ),
            ):
                assert mean == float(Fraction(sum(values), len(values)))

    def test_fold_experiments_is_shard_transparent(self, tmp_path):
        specs = _lossy_specs()
        full = run_experiments(specs)
        shard_results = [
            run_experiments(
                specs,
                config=SweepConfig(
                    checkpoint=tmp_path / "sweep.json",
                    shard=(index, 2),
                ),
            )
            for index in (0, 1)
        ]
        folded_full = fold_experiments(specs, full)
        # Folding each shard's partial results through one bucket set:
        # emulate by folding the concatenated (spec, result) pairs.
        paired_specs = [spec for _ in shard_results for spec in specs]
        paired_results = [result for results in shard_results for result in results]
        folded_shards = fold_experiments(paired_specs, paired_results)
        assert curves_as_dicts(folded_shards) == curves_as_dicts(folded_full)

    def test_fold_experiments_requires_matching_lengths(self):
        specs = _lossy_specs()
        with pytest.raises(ConfigurationError):
            fold_experiments(specs, [])

    def test_fold_experiments_rejects_a_cell_without_its_aggregate(self):
        specs = _lossy_specs(seeds=(0,))[:1]
        (result,) = run_experiments(specs)
        result.cells[0] = replace(result.cells[0], aggregate=None)
        with pytest.raises(ConfigurationError, match="no aggregate"):
            fold_experiments(specs, [result])

    def test_explicit_zero_rung_shadows_baseline(self):
        specs = robustness_specs(
            ["flooding"],
            [cycle(8)],
            [None, AdversarySpec.create("loss", p=0.0), AdversarySpec.create("loss", p=0.1)],
            seeds=(0,),
            collect_profile=False,
        )
        (curve,) = _curves_for(specs)
        ps = [point.p for point in curve.points]
        assert ps == [0.0, 0.1]  # explicit p=0 rung wins; no duplicate point
        assert curve.points[0].runs == 1

    def test_multi_family_sweep_gets_one_curve_per_family(self):
        ladder = [
            None,
            AdversarySpec.create("loss", p=0.05),
            AdversarySpec.create("skew", p=0.3, max_skew=2),
        ]
        specs = robustness_specs(
            ["flooding"], [cycle(8)], ladder, seeds=(0,), collect_profile=False
        )
        curves = _curves_for(specs)
        assert [curve.adversary for curve in curves] == ["loss", "skew"]
        # The single baseline rung calibrates both curves.
        for curve in curves:
            assert curve.points[0].p == 0.0
            assert curve.points[0].runs == 1


# --------------------------------------------------------------------------- #
# the robustness_curves workload helper (param_grid x adversary ladder)
# --------------------------------------------------------------------------- #


class TestRobustnessCurvesHelper:
    def test_crosses_param_grid_with_ladder(self):
        specs = robustness_curves(
            "irrevocable",
            tiny_suite()[:1],
            scenario="skewed",
            seeds=(0,),
            c=[1.5, 2.0],
        )
        # 2 variants x 4 rungs (baseline + 3 skew levels).
        assert len(specs) == 8
        names = [spec.name for spec in specs]
        assert len(set(names)) == len(names)
        assert "irrevocable:c=1.5" in names
        assert any(name.startswith("irrevocable:c=2.0@skew(") for name in names)

    def test_bare_name_sweeps_default_configuration(self):
        specs = robustness_curves(
            "flooding", [cycle(8)], scenario="lossy", seeds=(0,)
        )
        assert [spec.name for spec in specs][0] == "flooding"
        assert len(specs) == 4

    def test_explicit_ladder_accepted(self):
        ladder = [None, AdversarySpec.create("skew", p=0.2, max_skew=2)]
        specs = robustness_curves("flooding", [cycle(8)], scenario=ladder, seeds=(0,))
        assert len(specs) == 2

    def test_empty_ladder_rejected(self):
        with pytest.raises(ConfigurationError):
            robustness_curves("flooding", [cycle(8)], scenario=[], seeds=(0,))

    def test_specs_run_and_fold_end_to_end(self):
        specs = robustness_curves(
            "irrevocable",
            [complete(4)],
            scenario="skewed",
            seeds=(0,),
            c=[2.0, 3.0],
        )
        curves = _curves_for(specs)
        # One curve per protocol variant, each covering the full ladder.
        assert [curve.protocol for curve in curves] == [
            "irrevocable:c=2.0",
            "irrevocable:c=3.0",
        ]
        for curve in curves:
            assert [point.p for point in curve.points] == [0.0, 0.1, 0.3, 0.6]


# --------------------------------------------------------------------------- #
# progress reporting
# --------------------------------------------------------------------------- #


class FakeClock:
    """A deterministic clock for ProgressSink: advances 2s per reading."""

    def __init__(self, step: float = 2.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        reading, self.now = self.now, self.now + self.step
        return reading


class TestProgressSink:
    def test_reports_every_n_and_final(self):
        # The Stopwatch reads the clock once at construction, then once
        # per reported line: readings 0, 2, 4, 6 → elapsed 2, 4, 6.
        stream = io.StringIO()
        sink = ProgressSink(5, every=2, stream=stream, clock=FakeClock())
        for index in range(5):
            sink.emit("spec", 0, index, None, 0.0)
        sink.close()
        lines = stream.getvalue().splitlines()
        assert lines == [
            "progress: 2/5 runs (40.0%) | 2.0s elapsed, 1.0 runs/s, ETA 3.0s",
            "progress: 4/5 runs (80.0%) | 4.0s elapsed, 1.0 runs/s, ETA 1.0s",
            "progress: 5/5 runs (100.0%) | 6.0s elapsed, 0.8 runs/s",
        ]

    def test_label_and_unknown_total(self):
        # Unknown total: throughput but no ETA (nothing to extrapolate to).
        stream = io.StringIO()
        sink = ProgressSink(
            label="shard 1/4", every=1, stream=stream, clock=FakeClock()
        )
        sink.emit("spec", 0, 0, None, 0.0)
        sink.close()
        assert stream.getvalue().splitlines() == [
            "progress[shard 1/4]: 1 runs | 2.0s elapsed, 0.5 runs/s"
        ]

    def test_empty_slice_still_reports_on_close(self):
        # Zero runs: no throughput or ETA — a rate of 0/elapsed is noise.
        stream = io.StringIO()
        ProgressSink(0, label="shard 3/4", stream=stream, clock=FakeClock()).close()
        assert stream.getvalue().splitlines() == [
            "progress[shard 3/4]: 0 runs | 2.0s elapsed"
        ]

    def test_default_cadence_is_about_five_percent(self):
        stream = io.StringIO()
        sink = ProgressSink(100, stream=stream)
        for index in range(100):
            sink.emit("spec", 0, index, None, 0.0)
        sink.close()
        assert len(stream.getvalue().splitlines()) == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            ProgressSink(-1)
        with pytest.raises(ValueError):
            ProgressSink(10, every=0)

    def test_counts_runs_streamed_through_drivers(self, capsys):
        specs = _lossy_specs(seeds=(0,))
        sink = ProgressSink(8, every=8)
        run_experiments(specs, sinks=[sink])
        assert "progress: 8/8 runs (100.0%)" in capsys.readouterr().err
