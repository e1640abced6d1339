"""Unit tests for the random-walk probing phase (Algorithm 5)."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, run_protocol
from repro.core.messages import Message
from repro.election import (
    RandomWalkProbeConfig,
    RandomWalkProbeNode,
    RandomWalkProbeState,
    WalkMessage,
)
from repro.graphs import Topology, complete, cycle, random_regular


def run_walk_phase(topology: Topology, candidates: dict, config: RandomWalkProbeConfig, seed=0):
    """Run a standalone walk phase; ``candidates`` maps node index -> ID."""

    def factory(index: int, num_ports: int, rng: random.Random):
        return RandomWalkProbeNode(
            num_ports,
            rng,
            config=config,
            candidate=index in candidates,
            node_id=candidates.get(index, 0),
        )

    return run_protocol(topology, factory, max_rounds=config.walk_rounds + 1, seed=seed)


#: Port counts at and around powers of two, where ``getrandbits(k)``
#: rejection changes shape (``k = num_ports.bit_length()``).
PORT_COUNTS = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 127, 128, 129]


def reference_move(held: int, num_ports: int, rng: random.Random):
    """The walk loop as the paper states it: a lazy coin, then ``randint``."""
    counts, staying = {}, 0
    for _ in range(held):
        if rng.random() < 0.5:
            staying += 1
        else:
            port = rng.randint(1, num_ports)
            counts[port] = counts.get(port, 0) + 1
    return counts, staying


def holding(*, num_ports: int, tokens: int) -> RandomWalkProbeState:
    """A scattered non-candidate walk state holding ``tokens`` tokens."""
    config = RandomWalkProbeConfig(walk_rounds=5, walks_per_candidate=1)
    state = RandomWalkProbeState(
        num_ports=num_ports, config=config, candidate=False, node_id=0
    )
    state.initial_scatter(random.Random(0))  # a non-candidate draws nothing
    state.tokens = tokens
    return state


def sent_counts(outbox) -> dict:
    """Per-port token counts of a walk outbox, in its insertion order."""
    assert all(isinstance(message, WalkMessage) for message in outbox.values())
    return {port: message.count for port, message in outbox.items()}


@dataclass(frozen=True)
class ForeignMessage(Message):
    """Not a walk message, though it has the same fields."""

    walk_id: int
    count: int


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RandomWalkProbeConfig(walk_rounds=0, walks_per_candidate=1)
        with pytest.raises(ConfigurationError):
            RandomWalkProbeConfig(walk_rounds=1, walks_per_candidate=0)


class TestState:
    def test_candidate_initial_max_is_own_id(self):
        config = RandomWalkProbeConfig(walk_rounds=5, walks_per_candidate=3)
        state = RandomWalkProbeState(num_ports=2, config=config, candidate=True, node_id=99)
        assert state.max_walk_id == 99

    def test_non_candidate_initial_max_is_zero(self):
        # Deviation 2 (DESIGN.md): a non-candidate's private ID never enters
        # any walk, so it must not shadow the candidates' IDs.
        config = RandomWalkProbeConfig(walk_rounds=5, walks_per_candidate=3)
        state = RandomWalkProbeState(num_ports=2, config=config, candidate=False, node_id=1234)
        assert state.max_walk_id == 0

    def test_initial_scatter_emits_all_tokens(self):
        config = RandomWalkProbeConfig(walk_rounds=5, walks_per_candidate=10)
        state = RandomWalkProbeState(num_ports=3, config=config, candidate=True, node_id=5)
        counts = state.initial_scatter(random.Random(0))
        assert sum(counts.values()) == 10
        assert all(1 <= port <= 3 for port in counts)

    def test_non_candidate_scatters_nothing(self):
        config = RandomWalkProbeConfig(walk_rounds=5, walks_per_candidate=10)
        state = RandomWalkProbeState(num_ports=3, config=config, candidate=False, node_id=5)
        assert state.initial_scatter(random.Random(0)) == {}

    def test_absorb_merges_ids_and_counts(self):
        config = RandomWalkProbeConfig(walk_rounds=5, walks_per_candidate=1)
        state = RandomWalkProbeState(num_ports=2, config=config, candidate=False, node_id=0)
        state.absorb({1: WalkMessage(walk_id=7, count=3), 2: WalkMessage(walk_id=4, count=2)})
        assert state.tokens == 5
        assert state.max_walk_id == 7
        assert state.tokens_seen == 5

    def test_step_conserves_the_token_count(self):
        state = holding(num_ports=4, tokens=50)
        moved = sent_counts(state.step(random.Random(1), {}))
        assert sum(moved.values()) + state.tokens == 50

    @pytest.mark.parametrize("tokens", [0, 1, 50])
    @pytest.mark.parametrize("num_ports", [1, 2, 3, 8])
    def test_step_keeps_the_reference_rng_stream(self, num_ports, tokens):
        # The reference loop draws ports with randint(1, n); the walk step
        # must send the same counts and leave the RNG in the same state.
        for seed in range(5):
            state = holding(num_ports=num_ports, tokens=tokens)
            rng, reference_rng = random.Random(seed), random.Random(seed)
            counts, staying = reference_move(tokens, num_ports, reference_rng)
            assert sent_counts(state.step(rng, {})) == counts
            assert state.tokens == staying
            assert rng.getstate() == reference_rng.getstate()

    @settings(max_examples=300, deadline=None)
    @given(
        num_ports=st.sampled_from(PORT_COUNTS),
        tokens=st.integers(0, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_step_matches_randint_stream(self, num_ports, tokens, seed):
        # The inline getrandbits draw must be randint(1, n), port for port:
        # same counts in the same insertion order, same staying tokens, and
        # the same RNG state afterwards.
        state = holding(num_ports=num_ports, tokens=tokens)
        rng, reference_rng = random.Random(seed), random.Random(seed)
        counts, staying = reference_move(tokens, num_ports, reference_rng)
        assert list(sent_counts(state.step(rng, {})).items()) == list(counts.items())
        assert state.tokens == staying
        assert rng.getstate() == reference_rng.getstate()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_step_merges_inbox_like_absorb(self, data):
        # step merges its inbox inline; it must act exactly as absorb
        # followed by the reference move on a twin state with a twin RNG,
        # foreign messages ignored.
        num_ports = data.draw(st.sampled_from(PORT_COUNTS), label="num_ports")
        candidate = data.draw(st.booleans(), label="candidate")
        node_id = data.draw(st.integers(1, 10_000), label="node_id")
        held = data.draw(st.integers(0, 50), label="held")
        message = st.one_of(
            st.builds(kind, st.integers(0, 20_000), st.integers(1, 30))
            for kind in (WalkMessage, ForeignMessage)
        )
        messages = data.draw(
            st.lists(message, max_size=min(num_ports, 8)), label="messages"
        )
        ports = data.draw(st.permutations(range(1, num_ports + 1)), label="ports")
        inbox = dict(zip(ports, messages))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")

        config = RandomWalkProbeConfig(walk_rounds=5, walks_per_candidate=3)
        state, twin = (
            RandomWalkProbeState(
                num_ports=num_ports, config=config, candidate=candidate, node_id=node_id
            )
            for _ in range(2)
        )
        for walker in (state, twin):
            walker.initial_scatter(random.Random(seed))
            walker.tokens = held
        rng, twin_rng = random.Random(seed), random.Random(seed)

        outbox = state.step(rng, inbox)
        twin.absorb(inbox)
        counts, twin.tokens = reference_move(twin.tokens, num_ports, twin_rng)
        expected = {port: WalkMessage(twin.max_walk_id, count) for port, count in counts.items()}
        assert list(outbox.items()) == list(expected.items())
        assert state.tokens == twin.tokens
        assert state.tokens_seen == twin.tokens_seen
        assert state.max_walk_id == twin.max_walk_id
        assert rng.getstate() == twin_rng.getstate()

    def test_step_without_tokens_sends_nothing_and_counts_the_round(self):
        config = RandomWalkProbeConfig(walk_rounds=5, walks_per_candidate=4)
        state = RandomWalkProbeState(num_ports=2, config=config, candidate=False, node_id=0)
        rng = random.Random(0)
        state.step(rng, {})
        before = rng.getstate()
        assert state.step(rng, {}) == {}
        assert rng.getstate() == before
        assert state.rounds_executed == 2

    def test_step_outbox_carries_current_max(self):
        config = RandomWalkProbeConfig(walk_rounds=5, walks_per_candidate=4)
        state = RandomWalkProbeState(num_ports=2, config=config, candidate=True, node_id=11)
        outbox = state.step(random.Random(0), {})
        assert all(message.walk_id == 11 for message in outbox.values())
        assert sum(message.count for message in outbox.values()) == 4


class TestWalkPhaseEndToEnd:
    def test_token_count_is_conserved_globally(self):
        topology = cycle(10)
        config = RandomWalkProbeConfig(walk_rounds=12, walks_per_candidate=6)
        result = run_walk_phase(topology, {0: 50, 5: 80}, config)
        held = sum(r["tokens_held"] for r in result.results())
        assert held == 12  # two candidates x 6 walks

    def test_max_id_spreads_on_well_connected_graph(self):
        topology = complete(12)
        config = RandomWalkProbeConfig(walk_rounds=30, walks_per_candidate=12)
        result = run_walk_phase(topology, {0: 500, 3: 900}, config, seed=2)
        results = result.results()
        # Node 3 has the larger ID; a clear majority of nodes should have
        # been visited by one of its walks within 30 rounds.
        aware = sum(r["max_walk_id"] == 900 for r in results)
        assert aware >= 8
        # Candidate 0 must have learned it is beaten.
        assert results[0]["max_walk_id"] == 900

    def test_non_candidates_never_inject_their_ids(self):
        topology = cycle(8)
        config = RandomWalkProbeConfig(walk_rounds=10, walks_per_candidate=2)
        result = run_walk_phase(topology, {2: 77}, config)
        observed = {r["max_walk_id"] for r in result.results()}
        assert observed <= {0, 77}

    def test_walks_stay_near_source_on_long_cycle(self):
        topology = cycle(64)
        config = RandomWalkProbeConfig(walk_rounds=6, walks_per_candidate=4)
        result = run_walk_phase(topology, {0: 42}, config, seed=1)
        results = result.results()
        touched = [i for i, r in enumerate(results) if r["max_walk_id"] == 42]
        # In 6 lazy steps a walk cannot be farther than 6 hops away.
        assert all(min(i, 64 - i) <= 6 for i in touched)

    def test_message_count_bounded_by_token_rounds(self):
        topology = random_regular(16, 4, seed=3)
        config = RandomWalkProbeConfig(walk_rounds=20, walks_per_candidate=5)
        result = run_walk_phase(topology, {0: 10, 1: 20, 2: 30}, config, seed=5)
        # At most one message per token movement: 15 tokens x 20 rounds,
        # plus the initial scatter.
        assert result.metrics.messages <= 15 * 21

    def test_halts_after_configured_rounds(self):
        topology = cycle(6)
        config = RandomWalkProbeConfig(walk_rounds=7, walks_per_candidate=2)
        result = run_walk_phase(topology, {0: 9}, config)
        assert result.all_halted
        assert result.rounds_executed == 8
