"""Tests for the Gilbert et al. style random-walk baseline."""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, SynchronousSimulator, build_nodes
from repro.core.messages import bits_for_int
from repro.baselines import (
    GilbertConfig,
    GilbertStyleNode,
    TokenBundle,
    WalkToken,
    run_gilbert_election,
)
from repro.graphs import complete, cycle, random_regular, star

#: Port counts around powers of two, where the rejection loop differs most.
PORT_COUNTS = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GilbertConfig(n=0, t_mix=1)
        with pytest.raises(ConfigurationError):
            GilbertConfig(n=4, t_mix=0)
        with pytest.raises(ConfigurationError):
            GilbertConfig(n=4, t_mix=1, c=0)

    def test_tokens_scale_with_sqrt_n_log_n(self):
        import math

        config = GilbertConfig(n=64, t_mix=8, token_multiplier=1.0)
        assert config.tokens_per_candidate == math.ceil(math.sqrt(64) * math.log(64))

    def test_walk_length_scales_with_t_mix(self):
        short = GilbertConfig(n=64, t_mix=4)
        long = GilbertConfig(n=64, t_mix=16)
        assert long.walk_length > short.walk_length

    def test_total_rounds_covers_three_phases(self):
        config = GilbertConfig(n=32, t_mix=8)
        assert config.total_rounds() > 3 * config.walk_length

    def test_from_topology(self):
        config = GilbertConfig.from_topology(cycle(12))
        assert config.n == 12
        assert config.t_mix >= 1


class TestTokenBundle:
    def test_units_count_tokens(self):
        tokens = tuple(
            WalkToken(candidate_id=i, mode="mark", steps_remaining=3, collected_max=i)
            for i in range(1, 4)
        )
        bundle = TokenBundle(tokens=tokens)
        assert bundle.congest_units() == 3

    def test_path_is_excluded_from_bit_accounting(self):
        token_short = WalkToken(1, "probe", 3, 1, path=())
        token_long = WalkToken(1, "probe", 3, 1, path=(1, 2, 3, 4, 5))
        assert (
            TokenBundle((token_short,)).size_bits()
            == TokenBundle((token_long,)).size_bits()
        )

    def test_empty_bundle_still_one_unit(self):
        assert TokenBundle(()).congest_units() == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(), st.integers(), st.integers()), max_size=5
        )
    )
    def test_size_bits_is_the_bits_for_int_sum(self, fields):
        tokens = tuple(WalkToken(a, "probe", b, c, (1, 2)) for a, b, c in fields)
        expected = TokenBundle.TYPE_TAG_BITS + sum(
            bits_for_int(a) + 2 + bits_for_int(b) + bits_for_int(c)
            for a, b, c in fields
        )
        assert TokenBundle(tokens).size_bits() == expected

    def test_token_is_an_immutable_tuple_with_named_fields(self):
        token = WalkToken(candidate_id=3, mode="mark", steps_remaining=2, collected_max=5)
        assert token == (3, "mark", 2, 5, ())
        assert (token.candidate_id, token.path) == (3, ())
        with pytest.raises(AttributeError):
            token.mode = "probe"


class TestTokenHop:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(PORT_COUNTS),
        st.integers(0, 40),
        st.integers(0, 2**32 - 1),
    )
    def test_port_draw_keeps_the_randint_stream(self, num_ports, tokens, seed):
        node = GilbertStyleNode(
            num_ports, random.Random(0), config=GilbertConfig(n=16, t_mix=2)
        )
        node.rng = random.Random(seed)
        node._held = [WalkToken(7, "mark", 5, 7)] * tokens
        outbox = node.step(1, {})

        reference = random.Random(seed)
        expected = {}
        staying = 0
        for _ in range(tokens):
            if reference.random() < 0.5:
                staying += 1
            else:
                port = reference.randint(1, num_ports)
                expected[port] = expected.get(port, 0) + 1
        counts = {port: len(bundle.tokens) for port, bundle in outbox.items()}
        assert list(counts.items()) == list(expected.items())
        assert len(node._held) == staying
        assert node.rng.getstate() == reference.getstate()

    def test_quiescent_node_steps_are_no_ops(self):
        # Run an election one round at a time; before each round, step a
        # twin of every node with empty inboxes up to its declared horizon.
        topology = star(6)
        config = GilbertConfig.from_topology(topology)
        nodes = build_nodes(
            topology,
            lambda index, ports, rng: GilbertStyleNode(ports, rng, config=config),
            seed=3,
        )
        simulator = SynchronousSimulator(topology, nodes, backend="round")
        horizons = set()
        while not simulator.all_halted():
            round_index = simulator.current_round
            for node in nodes:
                horizon = node.quiescent_until(round_index)
                if horizon <= round_index:
                    continue
                horizons.add(horizon)
                twin = copy.deepcopy(node)
                state, result = twin.rng.getstate(), twin.result()
                for idle_round in range(round_index, horizon):
                    assert twin.step(idle_round, {}) == {}
                assert twin.rng.getstate() == state
                assert twin.result() == result
            simulator.run_round()
        assert horizons == {config.mark_phase_end, config.total_rounds() - 1}


#: Any token: every mode, 64-bit IDs and marks, steps down to 0, paths.
TOKENS = st.builds(
    lambda candidate_id, mode, steps, collected, path: WalkToken(
        candidate_id, mode, steps, collected, tuple(path)
    ),
    st.integers(0, 2**64 - 1),
    st.sampled_from(["mark", "probe", "return"]),
    st.integers(0, 3),
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(1, 4), max_size=3),
)


class TestPresizedBundles:
    """A node's outgoing bundles carry the cost their own methods give."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(TOKENS, st.integers(1, 4)), max_size=8),
        st.integers(1, 4),
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**32 - 1),
    )
    def test_stored_cost_is_size_bits_and_congest_units(self, runs, ports, mark, seed):
        node = GilbertStyleNode(ports, random.Random(0), config=GilbertConfig(n=16, t_mix=2))
        node.rng = random.Random(seed)
        node.mark = mark
        # Runs of one shared object, as a candidate's tokens start.
        node._held = [token for token, count in runs for _ in range(count)]
        for bundle in node._move_tokens().values():
            assert bundle._wire_cost == (
                bundle.size_bits(),
                max(1, bundle.congest_units()),
            )

    def test_an_election_never_sizes_a_bundle(self, monkeypatch):
        sized = []
        original = SynchronousSimulator._message_cost

        def spy(simulator, message):
            sized.append(type(message))
            return original(simulator, message)

        monkeypatch.setattr(SynchronousSimulator, "_message_cost", spy)
        result = run_gilbert_election(cycle(6), seed=0)
        assert result.messages > 0
        assert sized == []


class TestGilbertElection:
    def test_unique_leader_on_expander(self):
        result = run_gilbert_election(random_regular(32, 4, seed=2), seed=4)
        assert result.success
        assert result.outcome.num_leaders == 1

    def test_unique_leader_on_complete_graph(self):
        result = run_gilbert_election(complete(16), seed=2)
        assert result.success

    def test_success_rate_across_seeds(self):
        topology = random_regular(24, 4, seed=1)
        config = GilbertConfig.from_topology(topology)
        successes = sum(
            run_gilbert_election(topology, seed=seed, config=config).success
            for seed in range(6)
        )
        assert successes >= 5

    def test_leader_among_candidates(self):
        result = run_gilbert_election(random_regular(32, 4, seed=2), seed=4)
        assert set(result.outcome.leader_indices) <= set(result.outcome.candidate_indices)

    def test_winner_has_max_candidate_id(self):
        result = run_gilbert_election(random_regular(32, 4, seed=2), seed=4)
        ids = {
            i: r["node_id"]
            for i, r in enumerate(result.node_results)
            if r["candidate"]
        }
        assert result.outcome.leader_indices == [max(ids, key=ids.get)]

    def test_message_complexity_reflects_token_volume(self):
        topology = random_regular(32, 4, seed=2)
        config = GilbertConfig.from_topology(topology)
        result = run_gilbert_election(topology, seed=4, config=config)
        candidates = len(result.outcome.candidate_indices)
        budget = 4 * candidates * config.tokens_per_candidate * config.walk_length
        assert result.messages <= budget

    def test_marks_spread_over_network(self):
        topology = random_regular(32, 4, seed=2)
        result = run_gilbert_election(topology, seed=4)
        marked = sum(r["mark"] > 0 for r in result.node_results)
        assert marked >= topology.num_nodes // 2

    def test_all_nodes_halt(self):
        result = run_gilbert_election(cycle(12), seed=1)
        assert all(r["halted"] for r in result.node_results)

    def test_deterministic_given_seed(self):
        topology = cycle(12)
        config = GilbertConfig.from_topology(topology)
        a = run_gilbert_election(topology, seed=3, config=config)
        b = run_gilbert_election(topology, seed=3, config=config)
        assert a.messages == b.messages
        assert a.outcome.leader_indices == b.outcome.leader_indices
