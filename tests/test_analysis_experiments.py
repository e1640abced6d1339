"""Unit tests for the experiment runner and reporting layer."""

from __future__ import annotations

import pytest

from repro.core import ConfigurationError
from repro.analysis import (
    CollectingSink,
    ExperimentSpec,
    render_comparison_table,
    render_kv,
    render_series,
    render_table,
    run_experiment,
    summarize_results,
)
from repro.graphs import Topology, cycle, star
from repro.parallel import SweepConfig, run_experiments


class TestExperimentSpec:
    def test_requires_topologies_and_seeds(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(name="x", protocol="flooding", topologies=[], seeds=(1,))
        with pytest.raises(ConfigurationError):
            ExperimentSpec(
                name="x", protocol="flooding", topologies=[cycle(4)], seeds=()
            )

    def test_rejects_pipe_in_spec_name(self):
        # "|" separates task-key segments: such a spec used to be accepted
        # and then failed at the archive write with a malformed-key error.
        with pytest.raises(ConfigurationError, match=r"'a\|b'"):
            ExperimentSpec(name="a|b", protocol="flooding", topologies=[cycle(4)])

    def test_rejects_pipe_in_topology_name(self):
        edges = [(i, (i + 1) % 5) for i in range(5)]
        renamed = Topology(5, edges, name="ring|5")
        with pytest.raises(ConfigurationError, match=r"'ring\|5'"):
            ExperimentSpec(name="x", protocol="flooding", topologies=[cycle(4), renamed])


class TestRunExperiment:
    def test_cells_aggregate_per_topology(self):
        spec = ExperimentSpec(
            name="flooding",
            protocol="flooding",
            topologies=[cycle(8), star(8)],
            seeds=(0, 1, 2),
            collect_profile=False,
        )
        result = run_experiment(spec)
        assert len(result.cells) == 2
        cell = result.cell_for("cycle(n=8)")
        assert cell.runs == 3
        assert cell.mean_messages > 0
        assert 0.0 <= cell.success_rate <= 1.0

    def test_profiles_attached_when_requested(self):
        spec = ExperimentSpec(
            name="flooding",
            protocol="flooding",
            topologies=[cycle(8)],
            seeds=(0,),
            collect_profile=True,
        )
        result = run_experiment(spec)
        cell = result.cells[0]
        assert cell.profile is not None
        assert cell.profile.diameter == 4
        assert "conductance" in cell.as_dict()

    def test_same_named_topologies_get_their_own_profiles(self):
        from repro.graphs import random_regular

        a = random_regular(16, 4, seed=1)
        b = random_regular(16, 4, seed=2)
        assert a.name == b.name
        spec = ExperimentSpec(
            name="flooding",
            protocol="flooding",
            topologies=[a, b],
            seeds=(0,),
            collect_profile=True,
        )
        result = run_experiment(spec)
        from repro.graphs import expansion_profile

        assert result.cells[0].profile == expansion_profile(a)
        assert result.cells[1].profile == expansion_profile(b)
        assert result.cells[0].profile != result.cells[1].profile

    def test_series_extraction_sorted_by_x(self):
        spec = ExperimentSpec(
            name="flooding",
            protocol="flooding",
            topologies=[cycle(16), cycle(8)],
            seeds=(0,),
            collect_profile=False,
        )
        result = run_experiment(spec)
        series = result.series(x_field="n", y_field="mean_messages")
        assert [x for x, _ in series] == [8, 16]

    def test_collecting_sink_stores_individual_runs(self):
        spec = ExperimentSpec(
            name="flooding",
            protocol="flooding",
            topologies=[cycle(8)],
            seeds=(0, 1),
            collect_profile=False,
        )
        serial, pooled = CollectingSink(), CollectingSink()
        run_experiment(spec, sinks=[serial])
        run_experiments([spec], config=SweepConfig(workers=2), sinks=[pooled])
        runs = serial.results_for("flooding", 0)
        assert len(runs) == 2
        assert [run.as_dict() for run in runs] == [
            run.as_dict() for run in pooled.results_for("flooding", 0)
        ]

    def test_overall_success_rate_and_rows(self):
        spec = ExperimentSpec(
            name="flooding",
            protocol="flooding",
            topologies=[cycle(8)],
            seeds=(0, 1),
            collect_profile=False,
        )
        result = run_experiment(spec)
        assert 0.0 <= result.overall_success_rate() <= 1.0
        rows = summarize_results([result])
        assert len(rows) == 1
        assert rows[0]["algorithm"] == "flooding-max-id"

    def test_missing_cell_raises(self):
        spec = ExperimentSpec(
            name="flooding",
            protocol="flooding",
            topologies=[cycle(8)],
            seeds=(0,),
            collect_profile=False,
        )
        result = run_experiment(spec)
        with pytest.raises(KeyError):
            result.cell_for("nonexistent")


class TestReporting:
    def test_render_table_alignment_and_values(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = render_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_render_table_empty(self):
        assert "(no data)" in render_table([], title="T")

    def test_render_comparison_table_pivots(self):
        cells = {
            "alg1": [{"topology": "cycle", "mean_messages": 10}],
            "alg2": [{"topology": "cycle", "mean_messages": 20}],
        }
        text = render_comparison_table(cells)
        assert "alg1" in text and "alg2" in text
        assert "10" in text and "20" in text

    def test_render_series(self):
        text = render_series([(8, 100), (16, 200)], x_label="n", y_label="msgs")
        assert "msgs" in text
        assert "200" in text

    def test_render_kv(self):
        text = render_kv({"alpha": 1, "beta": 0.5}, title="params")
        assert text.startswith("params")
        assert "alpha" in text

    def test_format_large_and_small_floats(self):
        from repro.analysis import format_value

        assert format_value(1234567.0) == "1.23e+06"
        assert format_value(0.00001) == "1.00e-05"
        assert format_value(True) == "yes"
        assert format_value(12345) == "12,345"
