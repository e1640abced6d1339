"""Tests for Topology's lean pickling and structure fingerprint.

The parallel engine ships one topology per (topology, seed) task, so the
pickle payload must stay lean (defining data plus the measurement memo —
derived tables are rebuilt on load) and the structure fingerprint must
identify graph *instances*: same-named graphs with different structure
may never collide in checkpoint task keys or derived seeds.
"""

from __future__ import annotations

import pickle

import pytest

from repro.analysis import ExperimentSpec
from repro.graphs import Topology, cycle, random_regular, torus_2d
from repro.parallel import expand_run_tasks


class TestLeanPickling:
    def test_state_carries_defining_data_and_memo(self):
        topology = torus_2d(4, 4)
        state = topology.__getstate__()
        assert set(state) == {"n", "name", "edges", "port_order", "memo"}

    def test_round_trip_preserves_structure_and_ports(self):
        topology = random_regular(16, 4, seed=3).with_port_seed(11)
        clone = pickle.loads(pickle.dumps(topology))
        assert clone == topology
        assert clone.name == topology.name
        assert clone.endpoint_table() == topology.endpoint_table()
        assert [clone.degree(v) for v in range(16)] == [
            topology.degree(v) for v in range(16)
        ]

    def test_round_trip_rebuilds_derived_tables(self):
        topology = cycle(8)
        clone = pickle.loads(pickle.dumps(topology))
        # Derived accessors must work (adjacency, ports, BFS) — they are
        # reconstructed, not shipped.
        assert clone.neighbors(0) == topology.neighbors(0)
        assert clone.port_to(0, 1) == topology.port_to(0, 1)
        assert clone.diameter() == topology.diameter()

    def test_round_trip_preserves_fingerprint(self):
        topology = random_regular(16, 4, seed=5)
        clone = pickle.loads(pickle.dumps(topology))
        assert clone.fingerprint() == topology.fingerprint()

    def test_pickle_payload_smaller_than_naive_dict(self):
        topology = random_regular(64, 4, seed=1)
        lean = len(pickle.dumps(topology))
        naive = len(pickle.dumps(topology.__dict__))
        assert lean < naive


class TestFingerprint:
    def test_stable_across_equal_instances(self):
        assert (
            random_regular(16, 4, seed=1).fingerprint()
            == random_regular(16, 4, seed=1).fingerprint()
        )

    def test_same_name_different_structure_differs(self):
        a = random_regular(16, 4, seed=1)
        b = random_regular(16, 4, seed=2)
        assert a.name == b.name
        assert a.fingerprint() != b.fingerprint()

    def test_port_assignment_is_part_of_the_identity(self):
        base = cycle(8)
        reported = base.with_port_seed(9)
        assert sorted(base.edges()) == sorted(reported.edges())
        assert base.fingerprint() != reported.fingerprint()

    @pytest.mark.parametrize("graph_seeds", [(1, 2), (3, 4)])
    def test_same_named_graphs_never_collide_in_checkpoint_keys(self, graph_seeds):
        # Two sweeps over regenerated same-named suites must produce
        # disjoint task keys, otherwise a resumed checkpoint would replay
        # results measured on different graphs.
        def keys_for(seed):
            spec = ExperimentSpec(
                name="regen",
                protocol="flooding",
                topologies=[random_regular(16, 4, seed=seed)],
                seeds=(0, 1),
                collect_profile=False,
            )
            return {task.key for task in expand_run_tasks(spec)}

        first, second = (keys_for(seed) for seed in graph_seeds)
        assert first.isdisjoint(second)
