"""Unit tests for spectral quantities: mixing time, gaps, connectivity."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import ConfigurationError
from repro.graphs import (
    Topology,
    algebraic_connectivity,
    complete,
    cycle,
    grid_2d,
    lazy_walk_matrix,
    mixing_time,
    mixing_time_spectral_bound,
    path,
    random_regular,
    relaxation_time,
    simple_walk_matrix,
    spectral_gap,
    star,
    stationary_distribution,
)


class TestWalkMatrices:
    def test_simple_walk_rows_sum_to_one(self):
        matrix = simple_walk_matrix(cycle(6))
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_lazy_walk_self_loop_probability(self):
        matrix = lazy_walk_matrix(cycle(6))
        assert np.allclose(np.diag(matrix), 0.5)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_lazy_walk_off_diagonal(self):
        matrix = lazy_walk_matrix(cycle(6))
        assert matrix[0, 1] == pytest.approx(0.25)

    def test_stationary_distribution_proportional_to_degree(self):
        topology = star(5)
        pi = stationary_distribution(topology)
        assert pi[0] == pytest.approx(0.5)
        assert np.allclose(pi[1:], 0.125)
        assert pi.sum() == pytest.approx(1.0)

    def test_stationary_is_fixed_point_of_lazy_walk(self):
        topology = random_regular(12, 3, seed=2)
        pi = stationary_distribution(topology)
        matrix = lazy_walk_matrix(topology)
        assert np.allclose(pi @ matrix, pi)

    @pytest.mark.parametrize(
        "topology", [path(6), cycle(7), complete(5), grid_2d(3, 4)], ids=str
    )
    def test_stationary_is_degree_over_twice_the_edges(self, topology):
        pi = stationary_distribution(topology)
        for node in range(topology.num_nodes):
            assert pi[node] == pytest.approx(
                topology.degree(node) / (2 * topology.num_edges)
            )
        assert np.allclose(pi @ lazy_walk_matrix(topology), pi)

    def test_stationary_undefined_without_edges(self):
        with pytest.raises(ConfigurationError, match="without edges"):
            stationary_distribution(Topology(1, []))

    def test_lazy_walk_from_a_point_mass_converges_to_stationary(self):
        # The exact distribution of a lazy walk started at a leaf of the
        # star: a point mass at step 0, a probability vector at every
        # step, and within 1e-3 of deg(v)/2m after 200 steps.
        topology = star(6)
        matrix = lazy_walk_matrix(topology)
        distribution = np.zeros(topology.num_nodes)
        distribution[1] = 1.0
        for _ in range(200):
            distribution = distribution @ matrix
            assert distribution.sum() == pytest.approx(1.0)
            assert (distribution >= 0).all()
        assert np.allclose(distribution, stationary_distribution(topology), atol=1e-3)


class TestMixingTime:
    def test_complete_graph_mixes_fast(self):
        assert mixing_time(complete(8)) <= 6

    def test_cycle_mixes_slowly(self):
        fast = mixing_time(complete(8))
        slow = mixing_time(cycle(8))
        assert slow > fast

    def test_single_node(self):
        assert mixing_time(Topology(1, [])) == 0

    def test_cycle_scaling_roughly_quadratic(self):
        t8 = mixing_time(cycle(8))
        t16 = mixing_time(cycle(16))
        # doubling n should roughly quadruple t_mix on the cycle
        assert 2.5 <= t16 / t8 <= 6.0

    def test_matches_power_iteration_on_small_graph(self):
        topology = cycle(6)
        via_eigen = mixing_time(topology)
        via_matrix = mixing_time(topology, matrix=lazy_walk_matrix(topology))
        assert via_eigen == via_matrix

    def test_definition_is_satisfied_at_t_mix_not_before(self):
        topology = cycle(7)
        t = mixing_time(topology)
        P = lazy_walk_matrix(topology)
        pi = stationary_distribution(topology)
        threshold = 1.0 / (2.0 * topology.num_nodes)
        at_t = np.linalg.matrix_power(P, t)
        before = np.linalg.matrix_power(P, t - 1)
        assert np.abs(at_t - pi[np.newaxis, :]).max() <= threshold + 1e-12
        assert np.abs(before - pi[np.newaxis, :]).max() > threshold

    def test_spectral_bound_upper_bounds_exact(self):
        for topology in (cycle(10), complete(8), star(8)):
            assert mixing_time(topology) <= mixing_time_spectral_bound(topology) + 1


class TestGaps:
    def test_spectral_gap_in_unit_interval(self):
        for topology in (cycle(8), complete(8), path(8)):
            gap = spectral_gap(topology)
            assert 0.0 < gap <= 1.0

    def test_complete_graph_has_larger_gap_than_cycle(self):
        assert spectral_gap(complete(8)) > spectral_gap(cycle(8))

    def test_relaxation_time_is_inverse_gap(self):
        topology = cycle(8)
        assert relaxation_time(topology) == pytest.approx(1.0 / spectral_gap(topology))

    def test_algebraic_connectivity_known_values(self):
        # For K_n the Laplacian spectrum is {0, n, ..., n}.
        assert algebraic_connectivity(complete(6)) == pytest.approx(6.0, abs=1e-8)
        # For C_n it is 2 - 2cos(2*pi/n).
        expected = 2.0 - 2.0 * math.cos(2.0 * math.pi / 8.0)
        assert algebraic_connectivity(cycle(8)) == pytest.approx(expected, abs=1e-8)

    def test_algebraic_connectivity_single_node_rejected(self):
        with pytest.raises(ConfigurationError):
            algebraic_connectivity(Topology(1, []))

    def test_mixing_faster_with_larger_gap(self):
        dense = random_regular(16, 6, seed=1)
        sparse = cycle(16)
        assert spectral_gap(dense) > spectral_gap(sparse)
        assert mixing_time(dense) < mixing_time(sparse)
