"""Unit tests for cautious broadcast (Algorithms 2–4)."""

from __future__ import annotations

import copy
import random
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, ProtocolError, run_protocol
from repro.election import (
    ActivateMessage,
    CautiousBroadcastConfig,
    CautiousBroadcastManager,
    CautiousBroadcastNode,
    CautiousBroadcastState,
    DeactivateMessage,
    OfferMessage,
    SizeMessage,
    StopMessage,
)
from repro.graphs import Topology, complete, cycle, path, random_regular


def run_single_broadcast(
    topology: Topology,
    *,
    config: CautiousBroadcastConfig,
    source: int = 0,
    seed: int = 0,
):
    """Run one cautious broadcast from ``source`` and return the simulation."""

    def factory(index: int, num_ports: int, rng: random.Random):
        return CautiousBroadcastNode(
            num_ports,
            rng,
            config=config,
            is_source=(index == source),
            source_id=777,
        )

    return run_protocol(
        topology, factory, max_rounds=config.protocol_rounds + 1, seed=seed
    )


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            CautiousBroadcastConfig(protocol_rounds=0, territory_cap=4)
        with pytest.raises(ConfigurationError):
            CautiousBroadcastConfig(protocol_rounds=4, territory_cap=0.5)

    def test_from_parameters(self):
        config = CautiousBroadcastConfig.from_parameters(
            n=64, t_mix=10, conductance=0.2, walks_per_candidate=8, c=2.0
        )
        assert config.protocol_rounds >= 10
        assert config.territory_cap == pytest.approx(8 * 10 * 0.2)

    def test_from_parameters_validation(self):
        with pytest.raises(ConfigurationError):
            CautiousBroadcastConfig.from_parameters(
                n=0, t_mix=10, conductance=0.2, walks_per_candidate=8
            )


class TestStateMachine:
    def _state(self, *, is_source: bool, ports: int = 3) -> CautiousBroadcastState:
        config = CautiousBroadcastConfig(protocol_rounds=50, territory_cap=100)
        return CautiousBroadcastState(
            num_ports=ports, config=config, source_id=42, is_source=is_source
        )

    def test_source_starts_joined_and_active(self):
        state = self._state(is_source=True)
        assert state.joined
        assert state.status == "active"
        assert state.parent_port is None

    def test_non_source_joins_on_offer(self):
        state = self._state(is_source=False)
        assert not state.joined
        state.handle_message(2, OfferMessage(source_id=42))
        assert state.joined
        assert state.parent_port == 2
        assert state.status == "active"

    def test_second_offer_does_not_change_parent(self):
        state = self._state(is_source=False)
        state.handle_message(2, OfferMessage(source_id=42))
        state.handle_message(3, OfferMessage(source_id=42))
        assert state.parent_port == 2

    def test_size_message_registers_child(self):
        state = self._state(is_source=True)
        state.handle_message(1, SizeMessage(source_id=42, size=3))
        assert 1 in state.children
        assert state.confirmed_subtree_size() == 4

    def test_stop_message_stops(self):
        state = self._state(is_source=False)
        state.handle_message(1, StopMessage(source_id=42))
        assert state.status == "stop"

    def test_unknown_message_raises(self):
        state = self._state(is_source=False)

        class Foreign:
            source_id = 42

        with pytest.raises(ProtocolError):
            state.handle_message(1, Foreign())

    def test_new_joiner_reports_size_one_to_parent(self):
        state = self._state(is_source=False)
        state.handle_message(2, OfferMessage(source_id=42))
        outbox = state.prepare_transmissions(random.Random(0))
        assert isinstance(outbox[2], SizeMessage)
        assert outbox[2].size == 1

    def test_source_offers_each_available_port_at_most_once(self):
        state = self._state(is_source=True, ports=3)
        rng = random.Random(0)
        offered = []
        for _ in range(20):
            outbox = state.prepare_transmissions(rng)
            offered.extend(
                port for port, msg in outbox.items() if isinstance(msg, OfferMessage)
            )
        assert sorted(offered) == [1, 2, 3]

    def test_threshold_doubles_when_confirmed_size_crosses(self):
        state = self._state(is_source=True)
        rng = random.Random(0)
        state.prepare_transmissions(rng)  # size 1 crosses threshold 1 -> 2
        assert state.threshold == 2
        state.handle_message(1, SizeMessage(source_id=42, size=5))
        state.prepare_transmissions(rng)  # size 6 crosses threshold 2 -> 4
        assert state.threshold == 4

    def test_territory_cap_triggers_stop_and_notifies_children(self):
        config = CautiousBroadcastConfig(protocol_rounds=50, territory_cap=2)
        state = CautiousBroadcastState(
            num_ports=3, config=config, source_id=42, is_source=True
        )
        rng = random.Random(0)
        state.handle_message(1, SizeMessage(source_id=42, size=4))
        # Crossing doubles the threshold past the cap; the next round stops.
        state.prepare_transmissions(rng)
        outbox = state.prepare_transmissions(rng)
        assert state.status == "stop"
        assert any(isinstance(msg, StopMessage) for msg in outbox.values())

    def test_reactivation_prompt_after_child_report(self):
        state = self._state(is_source=True)
        rng = random.Random(0)
        state.prepare_transmissions(rng)  # threshold -> 2
        state.prepare_transmissions(rng)  # offers a port
        state.handle_message(1, SizeMessage(source_id=42, size=1))
        # size 2 >= threshold 2: doubles again, child stays paused
        state.prepare_transmissions(rng)
        outbox = state.prepare_transmissions(rng)
        assert any(isinstance(msg, ActivateMessage) for msg in outbox.values())

    def test_exhausted_state_stops_transmitting(self):
        config = CautiousBroadcastConfig(protocol_rounds=2, territory_cap=50)
        state = CautiousBroadcastState(
            num_ports=2, config=config, source_id=42, is_source=True
        )
        rng = random.Random(0)
        state.prepare_transmissions(rng)
        state.prepare_transmissions(rng)
        assert state.exhausted
        assert state.prepare_transmissions(rng) == {}

    def test_not_joined_state_is_silent(self):
        state = self._state(is_source=False)
        assert state.prepare_transmissions(random.Random(0)) == {}


class TestSingleBroadcastEndToEnd:
    def test_covers_small_graph_when_cap_is_large(self):
        topology = complete(8)
        config = CautiousBroadcastConfig(protocol_rounds=60, territory_cap=100)
        result = run_single_broadcast(topology, config=config)
        joined = [r for r in result.results() if r["joined"]]
        assert len(joined) == 8

    def test_tree_structure_is_consistent(self):
        topology = random_regular(16, 4, seed=2)
        config = CautiousBroadcastConfig(protocol_rounds=120, territory_cap=200)
        result = run_single_broadcast(topology, config=config, seed=4)
        results = result.results()
        joined = [i for i, r in enumerate(results) if r["joined"]]
        sources = [i for i, r in enumerate(results) if r["is_source"]]
        assert sources == [0]
        for index in joined:
            record = results[index]
            if record["is_source"]:
                assert record["parent_port"] is None
            else:
                assert record["parent_port"] is not None

    def test_territory_bounded_by_twice_cap(self):
        topology = random_regular(32, 4, seed=9)
        cap = 6
        config = CautiousBroadcastConfig(protocol_rounds=200, territory_cap=cap)
        result = run_single_broadcast(topology, config=config, seed=1)
        joined = [r for r in result.results() if r["joined"]]
        # The doubling control keeps the confirmed territory within a factor
        # 2 of the cap (Lemma 1); allow slack for in-flight joiners.
        assert len(joined) <= 4 * cap

    def test_messages_scale_with_territory_not_with_edges(self):
        topology = complete(24)  # m = 276
        cap = 5
        config = CautiousBroadcastConfig(protocol_rounds=100, territory_cap=cap)
        result = run_single_broadcast(topology, config=config, seed=3)
        # Flooding would need >= m messages; cautious broadcast stays near
        # its small territory.
        assert result.metrics.messages < topology.num_edges

    def test_deterministic_given_seed(self):
        topology = cycle(12)
        config = CautiousBroadcastConfig(protocol_rounds=60, territory_cap=50)
        first = run_single_broadcast(topology, config=config, seed=5)
        second = run_single_broadcast(topology, config=config, seed=5)
        assert first.metrics.messages == second.metrics.messages
        assert [r["joined"] for r in first.results()] == [
            r["joined"] for r in second.results()
        ]

    def test_grows_along_path(self):
        topology = path(10)
        config = CautiousBroadcastConfig(protocol_rounds=80, territory_cap=100)
        result = run_single_broadcast(topology, config=config, seed=0)
        joined = [i for i, r in enumerate(result.results()) if r["joined"]]
        # Growth from node 0 must be a prefix of the path.
        assert joined == list(range(len(joined)))
        assert len(joined) >= 3


class TestManager:
    def test_rejects_bad_slot_count(self):
        config = CautiousBroadcastConfig(protocol_rounds=10, territory_cap=10)
        with pytest.raises(ConfigurationError):
            CautiousBroadcastManager(num_ports=2, config=config, num_slots=0)

    def test_routes_messages_per_instance(self):
        config = CautiousBroadcastConfig(protocol_rounds=10, territory_cap=10)
        manager = CautiousBroadcastManager(num_ports=3, config=config, num_slots=4)
        manager.handle_inbox({1: OfferMessage(source_id=5), 2: OfferMessage(source_id=9)})
        assert manager.instance_count() == 2
        assert sorted(manager.joined_instances()) == [5, 9]
        assert manager.parent_ports() == {1, 2}

    def test_source_instance_registration(self):
        config = CautiousBroadcastConfig(protocol_rounds=10, territory_cap=10)
        manager = CautiousBroadcastManager(num_ports=3, config=config, num_slots=4)
        manager.add_source_instance(11)
        assert manager.joined_instances() == [11]
        assert manager.parent_ports() == set()
        with pytest.raises(ProtocolError):
            manager.add_source_instance(11)

    def test_one_instance_transmits_per_slot(self):
        config = CautiousBroadcastConfig(protocol_rounds=10, territory_cap=10)
        manager = CautiousBroadcastManager(num_ports=4, config=config, num_slots=2)
        manager.add_source_instance(3)
        manager.handle_inbox({1: OfferMessage(source_id=8)})
        rng = random.Random(0)
        out_slot0 = manager.transmissions_for_slot(0, rng)
        out_slot1 = manager.transmissions_for_slot(1, rng)
        # slot 0 serves instance 3 (own broadcast), slot 1 serves instance 8.
        assert all(getattr(m, "source_id", None) == 3 for m in out_slot0.values())
        assert all(getattr(m, "source_id", None) == 8 for m in out_slot1.values())

    def test_slot_out_of_range_rejected(self):
        config = CautiousBroadcastConfig(protocol_rounds=10, territory_cap=10)
        manager = CautiousBroadcastManager(num_ports=2, config=config, num_slots=2)
        with pytest.raises(ProtocolError):
            manager.transmissions_for_slot(5, random.Random(0))

    def test_foreign_message_rejected(self):
        config = CautiousBroadcastConfig(protocol_rounds=10, territory_cap=10)
        manager = CautiousBroadcastManager(num_ports=2, config=config, num_slots=2)

        class Foreign:
            pass

        with pytest.raises(ProtocolError):
            manager.handle_inbox({1: Foreign()})

    def test_overflow_counter(self):
        config = CautiousBroadcastConfig(protocol_rounds=10, territory_cap=10)
        manager = CautiousBroadcastManager(num_ports=2, config=config, num_slots=1)
        manager.add_source_instance(1)
        manager.handle_inbox({1: OfferMessage(source_id=2)})
        assert manager.overflow_instances == 1


def _brute_next_busy_round(manager: CautiousBroadcastManager, round_index: int):
    """``next_busy_round`` by scanning every served slot."""
    num_slots = manager.num_slots
    waits = [
        (position - round_index) % num_slots
        for position, state in enumerate(manager._slots)
        if not state.quiescent()
    ]
    return round_index + min(waits) if waits else None


_MESSAGE_KINDS = (
    OfferMessage,
    SizeMessage,
    ActivateMessage,
    DeactivateMessage,
    StopMessage,
)


@st.composite
def _manager_scripts(draw):
    """A manager set-up plus a random sequence of inbox/slot operations."""
    num_ports = draw(st.integers(1, 4))
    num_slots = draw(st.integers(1, 4))
    config = CautiousBroadcastConfig(
        protocol_rounds=draw(st.integers(1, 6)),
        territory_cap=draw(st.integers(1, 10)),
    )
    # More sources than slots, so some instances overflow.
    sources = st.integers(1, num_slots + 2)
    message = st.builds(
        lambda kind, source, size: (
            kind(source_id=source, size=size)
            if kind is SizeMessage
            else kind(source_id=source)
        ),
        st.sampled_from(_MESSAGE_KINDS),
        sources,
        st.integers(1, 6),
    )
    inbox = st.dictionaries(st.integers(1, num_ports), message, max_size=num_ports)
    # Slot operations take a round index whose slot wraps around.
    operation = st.one_of(
        st.tuples(st.just("inbox"), inbox),
        st.tuples(st.just("slot"), st.integers(0, 5 * num_slots)),
    )
    own_source = draw(st.one_of(st.none(), sources))
    operations = draw(st.lists(operation, max_size=40))
    return num_ports, num_slots, config, own_source, operations


class TestBusySlotIndex:
    """The busy-slot index agrees with a full scan of the served slots."""

    @settings(max_examples=200, deadline=None)
    @given(_manager_scripts(), st.integers(0, 2**16))
    def test_next_busy_round_matches_a_full_scan(self, script, seed):
        num_ports, num_slots, config, own_source, operations = script
        manager = CautiousBroadcastManager(
            num_ports=num_ports, config=config, num_slots=num_slots
        )
        if own_source is not None:
            manager.add_source_instance(own_source)
        rng = random.Random(seed)
        probes = sorted({0, 1, num_slots - 1, num_slots, 3 * num_slots + 1, 1000})
        for kind, argument in operations:
            if kind == "inbox":
                manager.handle_inbox(argument)
            else:
                manager.transmissions_for_slot(argument % num_slots, rng)
            for round_index in probes:
                assert manager.next_busy_round(round_index) == _brute_next_busy_round(
                    manager, round_index
                )
            for source_id in list(manager._states):
                state = manager.state(source_id)
                assert state.confirmed_subtree_size() == 1 + sum(
                    state.child_size.values()
                )
        assert len(manager._slots) <= num_slots
        assert manager.instance_count() == len(manager._slots) + manager.overflow_instances

    def test_an_untouched_quiescent_slot_is_not_served(self):
        manager = CautiousBroadcastManager(
            num_ports=2,
            config=CautiousBroadcastConfig(protocol_rounds=8, territory_cap=16),
            num_slots=2,
        )
        manager.handle_inbox({1: OfferMessage(source_id=5)})
        rng = random.Random(0)
        # The new member reports its size upward and turns passive.
        assert manager.transmissions_for_slot(0, rng) == {1: SizeMessage(5, 1)}
        state = manager.state(5)
        assert state.quiescent()
        assert manager.next_busy_round(0) is None  # slot 0 leaves the index
        before = rng.getstate()
        assert manager.transmissions_for_slot(0, rng) == {}
        assert rng.getstate() == before
        assert state.rounds_executed == 1
        assert not manager._touched and not manager._busy


class TestQuiescenceContract:
    """A quiescent instance's transmission step does nothing.

    The event backend skips the steps of a quiescent instance, so each such
    step must send nothing, draw nothing and change nothing observable but
    ``rounds_executed`` — and the instance must stay quiescent.
    """

    @settings(max_examples=200, deadline=None)
    @given(_manager_scripts(), st.integers(0, 2**16))
    def test_quiescent_steps_are_no_ops(self, script, seed):
        num_ports, num_slots, config, own_source, operations = script
        manager = CautiousBroadcastManager(
            num_ports=num_ports, config=config, num_slots=num_slots
        )
        if own_source is not None:
            manager.add_source_instance(own_source)
        rng = random.Random(seed)
        for kind, argument in operations:
            if kind == "inbox":
                manager.handle_inbox(argument)
            else:
                manager.transmissions_for_slot(argument % num_slots, rng)
            for source_id in list(manager._states):
                state = manager.state(source_id)
                if not state.quiescent():
                    continue
                twin = copy.deepcopy(state)
                twin_rng = random.Random()
                twin_rng.setstate(rng.getstate())
                before = _without_round_count(twin.summary())
                for _ in range(config.protocol_rounds + 1):
                    assert twin.prepare_transmissions(twin_rng) == {}
                    assert twin_rng.getstate() == rng.getstate()
                    assert _without_round_count(twin.summary()) == before
                    assert twin.quiescent()


def _without_round_count(summary):
    return {key: value for key, value in summary.items() if key != "rounds_executed"}
