"""Integration tests: all election algorithms, side by side, across topologies.

These tests exercise the same pipeline the benchmark harness uses (the
experiment runner over a topology suite) and check the qualitative claims
the paper's Table 1 makes about how the algorithms relate to each other.
"""

from __future__ import annotations

import pytest

from repro.analysis import ExperimentSpec, fit_power_law, render_comparison_table, run_experiment
from repro.election import IrrevocableConfig, run_irrevocable_election, run_revocable_election
from repro.graphs import complete, random_regular, torus_2d
from repro.workloads import scaling_family, tiny_suite


@pytest.fixture(scope="module")
def comparison_results():
    """Run the three known-n algorithms over a small mixed suite once."""
    topologies = [
        random_regular(24, 4, seed=3),
        torus_2d(5, 5),
        complete(16),
    ]
    seeds = (0, 1)
    results = {}
    for name in ("irrevocable", "gilbert", "flooding"):
        spec = ExperimentSpec(
            name=name, protocol=name, topologies=topologies, seeds=seeds
        )
        results[name] = run_experiment(spec)
    return results


class TestCrossAlgorithmComparison:
    def test_every_algorithm_elects_leaders_reliably(self, comparison_results):
        for name, result in comparison_results.items():
            assert result.overall_success_rate() >= 0.8, name

    def test_paper_protocol_beats_gilbert_on_messages(self, comparison_results):
        ours = comparison_results["irrevocable"]
        gilbert = comparison_results["gilbert"]
        for cell in ours.cells:
            other = gilbert.cell_for(cell.topology_name)
            assert cell.mean_messages < other.mean_messages, cell.topology_name

    def test_flooding_wins_on_time(self, comparison_results):
        ours = comparison_results["irrevocable"]
        flooding = comparison_results["flooding"]
        for cell in ours.cells:
            other = flooding.cell_for(cell.topology_name)
            assert other.mean_rounds < cell.mean_rounds

    def test_comparison_table_renders(self, comparison_results):
        table = render_comparison_table(
            {name: result.as_rows() for name, result in comparison_results.items()},
            key_column="topology",
            value_column="mean_messages",
        )
        assert "irrevocable" in table and "gilbert" in table and "flooding" in table


class TestScalingBehaviour:
    def test_irrevocable_message_scaling_is_sublinear_in_n_squared(self):
        sizes = [16, 32, 64]
        topologies = scaling_family("random_regular", sizes, seed=5)
        messages = []
        for topology in topologies:
            config = IrrevocableConfig.from_topology(topology)
            result = run_irrevocable_election(topology, seed=1, config=config)
            assert result.success
            messages.append(result.messages)
        fit = fit_power_law(sizes, messages)
        # Õ(sqrt(n t_mix)/Φ): on expanders t_mix and Φ are ~constant, so the
        # exponent should be well below quadratic and near ~0.5-1.2 once the
        # polylog factors are smeared in at these sizes.
        assert fit.exponent < 1.8

    def test_irrevocable_time_tracks_mixing_time(self):
        expander = random_regular(32, 4, seed=2)
        from repro.graphs import cycle

        slow = cycle(32)
        fast_result = run_irrevocable_election(expander, seed=1)
        slow_result = run_irrevocable_election(slow, seed=1)
        assert slow_result.rounds_executed > fast_result.rounds_executed


class TestRevocableIntegration:
    def test_revocable_succeeds_on_tiny_suite(self):
        failures = []
        for topology in tiny_suite():
            result = run_revocable_election(topology, seed=4)
            if not (result.success and result.outcome.agreement):
                failures.append(topology.name)
        assert not failures

    def test_revocable_pays_far_more_than_known_n_protocol(self):
        topology = complete(6)
        revocable = run_revocable_election(topology, seed=2)
        irrevocable = run_irrevocable_election(topology, seed=2)
        # Not knowing n costs orders of magnitude more communication — the
        # gap Table 1 shows between the two settings.
        assert revocable.messages > 5 * irrevocable.messages
