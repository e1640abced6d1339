"""Tests for the pumping-wheel construction and impossibility demonstration."""

from __future__ import annotations

import pytest

from repro.core import ConfigurationError, run_protocol
from repro.impossibility import (
    BoundedUnknownSizeElectionNode,
    WitnessLayout,
    build_pumping_wheel,
    demonstrate_impossibility,
    paper_witness_count,
)
from repro.graphs import cycle


class TestWitnessLayout:
    def test_lengths_match_figure1(self):
        layout = WitnessLayout(n=6, horizon=12)
        assert layout.core_length == 12
        assert layout.witness_length == 2 * 12 + 12
        assert layout.separation == 24
        assert layout.period == layout.witness_length + layout.separation

    def test_core_slices_sit_in_the_middle(self):
        layout = WitnessLayout(n=4, horizon=8)
        core = layout.core_slice(0)
        assert core.start == 8
        assert len(core) == 8
        second_core = layout.core_slice(1)
        assert second_core.start == layout.period + 8

    def test_segments_partition_the_core(self):
        layout = WitnessLayout(n=4, horizon=8)
        left, right = layout.segment_slices(0)
        assert len(left) == len(right) == 4
        assert left.stop == right.start
        assert set(left) | set(right) == set(layout.core_slice(0))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WitnessLayout(n=0, horizon=4)
        with pytest.raises(ConfigurationError):
            WitnessLayout(n=4, horizon=0)


class TestWheelConstruction:
    def test_wheel_is_a_cycle_of_the_right_size(self):
        layout = WitnessLayout(n=4, horizon=8)
        wheel = build_pumping_wheel(layout, 3)
        assert wheel.num_nodes == 3 * layout.period
        assert set(wheel.degrees()) == {2}
        assert wheel.num_edges == wheel.num_nodes

    def test_requires_at_least_one_witness(self):
        layout = WitnessLayout(n=4, horizon=8)
        with pytest.raises(ConfigurationError):
            build_pumping_wheel(layout, 0)

    def test_paper_witness_count_is_astronomical(self):
        assert paper_witness_count(4, 8, 0.9) > 1e15

    def test_paper_witness_count_validation(self):
        with pytest.raises(ConfigurationError):
            paper_witness_count(4, 8, 1.0)


class TestBoundedProtocol:
    def test_elects_unique_leader_on_design_cycle(self):
        topology = cycle(8)
        result = run_protocol(
            topology,
            lambda i, p, r: BoundedUnknownSizeElectionNode(p, r, assumed_size=8),
            max_rounds=20,
            seed=3,
        )
        leaders = [r for r in result.results() if r["leader"]]
        assert len(leaders) == 1
        assert result.all_halted

    def test_stops_within_horizon(self):
        topology = cycle(8)
        result = run_protocol(
            topology,
            lambda i, p, r: BoundedUnknownSizeElectionNode(p, r, assumed_size=8),
            max_rounds=100,
            seed=3,
        )
        assert result.rounds_executed <= 2 * 8 + 1

    def test_rejects_bad_assumed_size(self):
        import random

        with pytest.raises(ConfigurationError):
            BoundedUnknownSizeElectionNode(2, random.Random(0), assumed_size=0)


class TestDemonstration:
    def test_base_succeeds_wheel_fails(self):
        report = demonstrate_impossibility(5, num_witnesses=4, seeds=range(5))
        assert report.base_success_rate >= 0.8
        assert report.wheel_failure_rate >= 0.8
        assert report.mean_wheel_leaders > 1.5

    def test_more_witnesses_do_not_reduce_failures(self):
        small = demonstrate_impossibility(4, num_witnesses=1, seeds=range(4))
        large = demonstrate_impossibility(4, num_witnesses=8, seeds=range(4))
        assert large.mean_wheel_leaders >= small.mean_wheel_leaders

    def test_report_dictionary_fields(self):
        report = demonstrate_impossibility(4, num_witnesses=2, seeds=range(3))
        data = report.as_dict()
        assert data["trials"] == 3
        assert data["wheel_size"] == report.wheel_size
        assert 0.0 <= data["wheel_failure_rate"] <= 1.0

    def test_requires_cycle_of_at_least_three(self):
        with pytest.raises(ConfigurationError):
            demonstrate_impossibility(2)

    def test_rejects_empty_seeds(self):
        # No trial would run, and the report's rates would read 0.
        with pytest.raises(ConfigurationError, match="seeds must not be empty"):
            demonstrate_impossibility(4, seeds=range(0))

    def test_trial_records_are_consistent(self):
        report = demonstrate_impossibility(4, num_witnesses=2, seeds=range(3))
        for trial in report.trials:
            assert trial.base_correct == (trial.base_leaders == 1)
            assert trial.wheel_failed == (trial.wheel_leaders != 1)
