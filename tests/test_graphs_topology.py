"""Unit tests for the port-numbered anonymous topology."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core import ConfigurationError, TopologyError
from repro.graphs import Topology, complete, cycle, grid_2d, random_regular, star


class TestConstruction:
    def test_basic_counts(self):
        topology = Topology(3, [(0, 1), (1, 2), (2, 0)])
        assert topology.num_nodes == 3
        assert topology.num_edges == 3
        assert sorted(topology.degrees()) == [2, 2, 2]

    def test_rejects_nonpositive_size(self):
        with pytest.raises(TopologyError):
            Topology(0, [])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(TopologyError):
            Topology(2, [(0, 5)])

    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError):
            Topology(2, [(0, 0)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(TopologyError):
            Topology(2, [(0, 1), (1, 0)])

    def test_rejects_disconnected_by_default(self):
        with pytest.raises(TopologyError):
            Topology(4, [(0, 1), (2, 3)])

    def test_disconnected_allowed_when_requested(self):
        topology = Topology(4, [(0, 1), (2, 3)], require_connected=False)
        assert topology.num_edges == 2

    def test_single_node_is_connected(self):
        topology = Topology(1, [])
        assert topology.num_nodes == 1
        assert topology.degree(0) == 0


class TestPorts:
    def test_ports_cover_neighbors_bijectively(self):
        topology = star(5)
        hub_neighbors = {topology.neighbor_via(0, port) for port in range(1, 5)}
        assert hub_neighbors == {1, 2, 3, 4}

    def test_endpoint_roundtrip(self):
        topology = cycle(6)
        for node in range(6):
            for port in range(1, topology.degree(node) + 1):
                neighbor, neighbor_port = topology.endpoint(node, port)
                back, back_port = topology.endpoint(neighbor, neighbor_port)
                assert back == node
                assert back_port == port

    def test_port_to_inverse_of_neighbor_via(self):
        topology = cycle(5)
        for node in range(5):
            for neighbor in topology.neighbors(node):
                port = topology.port_to(node, neighbor)
                assert topology.neighbor_via(node, port) == neighbor

    def test_port_to_rejects_non_neighbors(self):
        topology = cycle(5)
        with pytest.raises(TopologyError):
            topology.port_to(0, 2)

    def test_invalid_port_rejected(self):
        topology = cycle(5)
        with pytest.raises(TopologyError):
            topology.endpoint(0, 3)
        with pytest.raises(TopologyError):
            topology.endpoint(0, 0)

    def test_random_port_assignment_is_a_permutation(self):
        canonical = star(6)
        shuffled = star(6, port_seed=99)
        assert set(canonical.port_order(0)) == set(shuffled.port_order(0))

    def test_with_port_seed_preserves_edges(self):
        topology = cycle(6)
        reshuffled = topology.with_port_seed(3)
        assert sorted(topology.edges()) == sorted(reshuffled.edges())

    def test_port_seed_changes_assignment_somewhere(self):
        topology = star(8)
        reshuffled = topology.with_port_seed(123)
        assert any(
            topology.port_order(node) != reshuffled.port_order(node)
            for node in range(topology.num_nodes)
        )


class TestQueries:
    def test_has_edge(self):
        topology = cycle(4)
        assert topology.has_edge(0, 1)
        assert not topology.has_edge(0, 2)

    def test_volume(self):
        topology = star(5)
        assert topology.volume() == 2 * topology.num_edges
        assert topology.volume([0]) == 4
        assert topology.volume([1, 2]) == 2

    def test_edge_boundary(self):
        topology = cycle(6)
        assert topology.edge_boundary({0, 1, 2}) == 2
        assert topology.edge_boundary({0, 2, 4}) == 6

    def test_bfs_distances_and_diameter(self):
        topology = cycle(8)
        distances = topology.bfs_distances(0)
        assert distances[4] == 4
        assert topology.diameter() == 4

    def test_out_of_range_node_rejected(self):
        topology = cycle(4)
        with pytest.raises(TopologyError):
            topology.degree(9)

    def test_equality_and_hash(self):
        a = cycle(5)
        b = cycle(5)
        assert a == b
        assert hash(a) == hash(b)
        assert a != cycle(6)

    def test_repr_mentions_size(self):
        assert "n=5" in repr(cycle(5))


class TestNetworkxInterop:
    def test_to_networkx_preserves_structure(self):
        topology = cycle(7)
        graph = topology.to_networkx()
        assert graph.number_of_nodes() == 7
        assert graph.number_of_edges() == 7
        assert nx.is_connected(graph)

    def test_from_networkx_roundtrip(self):
        graph = nx.petersen_graph()
        topology = Topology.from_networkx(graph, name="petersen")
        assert topology.num_nodes == 10
        assert topology.num_edges == 15
        assert topology.name == "petersen"
        assert topology.diameter() == 2


class TestPickling:
    def test_round_trip_preserves_structure_and_ports(self):
        import pickle

        from repro.graphs import random_regular

        topology = random_regular(16, 4, seed=3).with_port_seed(11)
        restored = pickle.loads(pickle.dumps(topology))
        assert restored == topology
        assert restored.name == topology.name
        assert restored.endpoint_table() == topology.endpoint_table()
        for node in range(topology.num_nodes):
            assert restored.port_order(node) == topology.port_order(node)
            for port in range(1, topology.degree(node) + 1):
                assert restored.endpoint(node, port) == topology.endpoint(node, port)

    def test_payload_ships_defining_data_and_memo(self):
        topology = cycle(12)
        state = topology.__getstate__()
        assert set(state) == {"n", "name", "edges", "port_order", "memo"}


class TestMemoizedMeasurements:
    """``t_mix`` and ``Φ`` are measured once per topology instance."""

    @staticmethod
    def _count_calls(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_one_measurement_per_instance(self, monkeypatch):
        from repro.graphs import properties, spectral
        from repro.graphs.properties import cheeger_bounds, conductance, expansion_profile
        from repro.graphs.spectral import mixing_time

        eigh = self._count_calls(monkeypatch, spectral.np.linalg, "eigh")
        sweeps = self._count_calls(monkeypatch, properties, "conductance_exact")
        topology = cycle(12)
        t_mix = mixing_time(topology)
        phi = conductance(topology)
        assert len(eigh) == 1 and len(sweeps) == 1
        for _ in range(3):
            assert mixing_time(topology) == t_mix
            assert conductance(topology) == phi
        assert cheeger_bounds(topology)[0] == phi * phi / 2.0
        assert expansion_profile(topology).mixing_time == t_mix
        assert len(eigh) == 1 and len(sweeps) == 1
        # A different instance of the same graph is measured afresh.
        assert mixing_time(cycle(12)) == t_mix
        assert len(eigh) == 2

    def test_diameter_is_measured_once_per_instance(self, monkeypatch):
        from repro.graphs.topology import Topology

        topology = grid_2d(3, 4)
        bfs = self._count_calls(monkeypatch, Topology, "bfs_distances")
        diameter = topology.diameter()
        assert diameter == 5
        assert len(bfs) == topology.num_nodes
        assert topology.diameter() == diameter
        assert len(bfs) == topology.num_nodes
        # A different instance of the same graph is measured afresh.
        assert grid_2d(3, 4).diameter() == diameter
        assert len(bfs) == 2 * topology.num_nodes

    def test_irrevocable_and_gilbert_share_the_measurement(self, monkeypatch):
        from repro.baselines.gilbert import run_gilbert_election
        from repro.election.irrevocable import IrrevocableConfig, measure_mixing_time
        from repro.graphs import spectral

        eigh = self._count_calls(monkeypatch, spectral.np.linalg, "eigh")
        topology = cycle(10)
        IrrevocableConfig.from_topology(topology)
        IrrevocableConfig.from_topology(topology)
        run_gilbert_election(topology, seed=1)
        assert measure_mixing_time(topology) == spectral.mixing_time(topology)
        assert len(eigh) == 1

    def test_non_default_arguments_bypass_the_memo(self, monkeypatch):
        from repro.graphs import properties
        from repro.graphs.properties import conductance
        from repro.graphs.spectral import lazy_walk_matrix, mixing_time

        topology = cycle(8)
        t_mix = mixing_time(topology)
        phi = conductance(topology)
        assert mixing_time(topology, matrix=lazy_walk_matrix(topology)) == t_mix
        assert mixing_time(topology, max_steps=10_000) == t_mix
        with pytest.raises(ConfigurationError):
            mixing_time(topology, max_steps=1)
        exact = self._count_calls(monkeypatch, properties, "conductance_exact")
        sweep = self._count_calls(monkeypatch, properties, "conductance_sweep")
        assert conductance(topology, exact=True) == phi
        conductance(topology, exact=False)
        conductance(topology, exact=True)
        assert len(exact) == 2 and len(sweep) == 1
        assert conductance(topology) == phi
        assert len(exact) == 2

    def test_profile_election_and_cheeger_share_one_measurement(self, monkeypatch):
        from repro.election import run_irrevocable_election
        from repro.graphs import properties, spectral
        from repro.graphs.properties import cheeger_bounds, expansion_profile

        eigh = self._count_calls(monkeypatch, spectral.np.linalg, "eigh")
        exact = self._count_calls(monkeypatch, properties, "conductance_exact")
        topology = cycle(12)
        profile = expansion_profile(topology)
        result = run_irrevocable_election(topology, seed=1)
        assert result.parameters["t_mix"] == profile.mixing_time
        assert cheeger_bounds(topology)[2] == 2.0 * profile.conductance
        assert expansion_profile(topology) is profile
        assert len(eigh) == 1 and len(exact) == 1

    def test_memo_travels(self, monkeypatch):
        import pickle

        from repro.graphs import properties, spectral
        from repro.graphs.properties import conductance, expansion_profile
        from repro.graphs.spectral import mixing_time

        topology = cycle(9)
        profile = expansion_profile(topology)
        eigh = self._count_calls(monkeypatch, spectral.np.linalg, "eigh")
        exact = self._count_calls(monkeypatch, properties, "conductance_exact")
        clone = pickle.loads(pickle.dumps(topology))
        assert mixing_time(clone) == profile.mixing_time
        assert conductance(clone) == profile.conductance
        assert expansion_profile(clone) == profile
        assert clone.fingerprint() == topology.fingerprint()
        assert eigh == [] and exact == []

    def test_concurrent_first_calls_agree(self):
        import threading

        from repro.graphs.properties import conductance
        from repro.graphs.spectral import mixing_time

        topology = cycle(40)
        start = threading.Barrier(4)
        results = []

        def measure():
            start.wait()
            results.append((mixing_time(topology), conductance(topology)))

        threads = [threading.Thread(target=measure) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 4
        assert len(set(results)) == 1
        assert results[0] == (mixing_time(cycle(40)), conductance(cycle(40)))


class TestFingerprintPins:
    """Fingerprints enter every task key: a change orphans archived runs."""

    @pytest.mark.parametrize(
        "build, expected",
        [
            (lambda: cycle(5), "3b59596a7c89cd21"),
            (lambda: complete(4), "a3397fd3599fcc70"),
            (lambda: grid_2d(2, 3), "7896b868ebb47377"),
            (lambda: star(5), "17c4619d83114b2e"),
            (lambda: random_regular(16, 4, seed=7), "4822862d86e31aa5"),
        ],
        ids=["cycle5", "complete4", "grid2x3", "star5", "random_regular16"],
    )
    def test_pinned_fingerprint(self, build, expected):
        assert build().fingerprint() == expected

    def test_pinned_task_keys(self):
        from repro.parallel.sharding import expand_run_tasks
        from repro.workloads import sweep_specs

        flooding, gilbert = sweep_specs(
            ["flooding", "gilbert"],
            [cycle(5), grid_2d(2, 3)],
            seeds=(0, 1),
            collect_profile=False,
        )
        assert [task.key for task in expand_run_tasks(flooding)[:2]] == [
            "flooding|0|cycle(n=5)|3b59596a7c89cd21|0|0|",
            "flooding|0|cycle(n=5)|3b59596a7c89cd21|1|1|",
        ]
        derived = expand_run_tasks(gilbert, derive_seeds=True, base_seed=3)
        assert [task.key for task in derived[:3]] == [
            "gilbert|0|cycle(n=5)|3b59596a7c89cd21|0|9208232084834129742|",
            "gilbert|0|cycle(n=5)|3b59596a7c89cd21|1|9207207339996826315|",
            "gilbert|1|grid(2x3)|7896b868ebb47377|0|7337718362933784129|",
        ]
