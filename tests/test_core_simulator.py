"""Unit tests for the synchronous CONGEST simulator and node base classes."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    CongestViolationError,
    FaultAdversary,
    GeneratorNode,
    Message,
    MetricsCollector,
    PassiveNode,
    ProtocolNode,
    SimulationError,
    SynchronousSimulator,
    build_nodes,
    run_protocol,
)
from repro.core.errors import ProtocolError
from repro.core.messages import presized
from repro.dynamics import MessageLossAdversary
from repro.graphs import cycle, grid_2d, hypercube, path, star


@dataclass(frozen=True)
class Ping(Message):
    payload: int


class EchoNode(ProtocolNode):
    """Sends its round number through every port, records what it receives."""

    def __init__(self, num_ports: int, rng: random.Random) -> None:
        super().__init__(num_ports, rng)
        self.received = []

    def step(self, round_index: int, inbox) -> Dict[int, Message]:
        self.received.append({port: msg.payload for port, msg in inbox.items()})
        return {port: Ping(payload=round_index) for port in self.ports()}

    def result(self):
        return {"received": self.received}


class HaltAfterNode(ProtocolNode):
    def __init__(self, num_ports: int, rng: random.Random, *, rounds: int = 3) -> None:
        super().__init__(num_ports, rng)
        self.rounds = rounds
        self._halted = False

    @property
    def halted(self) -> bool:
        return self._halted

    def step(self, round_index, inbox):
        if round_index + 1 >= self.rounds:
            self._halted = True
        return {}


class BadPortNode(ProtocolNode):
    def step(self, round_index, inbox):
        return {self.num_ports + 1: Ping(payload=0)}


@dataclass(frozen=True)
class FatMessage(Message):
    blob: str


class FatSenderNode(ProtocolNode):
    def step(self, round_index, inbox):
        return {port: FatMessage(blob="x" * 100) for port in self.ports()}


class CountdownGenerator(GeneratorNode):
    """Generator-based node used to test the adapter."""

    def __init__(self, num_ports, rng, *, rounds=3):
        super().__init__(num_ports, rng)
        self.rounds = rounds
        self.seen = []

    def run(self):
        for i in range(self.rounds):
            inbox = yield {port: Ping(payload=i) for port in self.ports()}
            self.seen.append(sorted(msg.payload for msg in inbox.values()))


class TestBuildNodes:
    def test_one_node_per_vertex_with_matching_ports(self):
        topology = star(5)
        nodes = build_nodes(topology, lambda i, p, r: PassiveNode(p, r), seed=1)
        assert len(nodes) == 5
        assert nodes[0].num_ports == 4
        assert all(node.num_ports == 1 for node in nodes[1:])

    def test_rngs_are_independent(self):
        topology = cycle(4)
        nodes = build_nodes(topology, lambda i, p, r: PassiveNode(p, r), seed=1)
        draws = {node.rng.random() for node in nodes}
        assert len(draws) == 4

    def test_seed_reproducibility(self):
        topology = cycle(4)
        first = build_nodes(topology, lambda i, p, r: PassiveNode(p, r), seed=2)
        second = build_nodes(topology, lambda i, p, r: PassiveNode(p, r), seed=2)
        assert [n.rng.random() for n in first] == [n.rng.random() for n in second]


class TestSimulatorBasics:
    def test_node_count_mismatch_rejected(self):
        topology = cycle(4)
        nodes = [PassiveNode(2, random.Random(0)) for _ in range(3)]
        with pytest.raises(SimulationError):
            SynchronousSimulator(topology, nodes)

    def test_port_count_mismatch_rejected(self):
        topology = star(4)
        nodes = [PassiveNode(1, random.Random(0)) for _ in range(4)]
        with pytest.raises(SimulationError):
            SynchronousSimulator(topology, nodes)

    def test_invalid_port_in_outbox_rejected(self):
        result_error = None
        topology = cycle(3)
        nodes = build_nodes(topology, lambda i, p, r: BadPortNode(p, r), seed=0)
        simulator = SynchronousSimulator(topology, nodes)
        with pytest.raises(SimulationError):
            simulator.run_round()

    def test_negative_max_rounds_rejected(self):
        topology = cycle(3)
        nodes = build_nodes(topology, lambda i, p, r: PassiveNode(p, r), seed=0)
        with pytest.raises(SimulationError):
            SynchronousSimulator(topology, nodes).run(-1)


class TestMessageDelivery:
    def test_messages_arrive_next_round_at_correct_port(self):
        topology = path(3)
        nodes = build_nodes(topology, lambda i, p, r: EchoNode(p, r), seed=0)
        simulator = SynchronousSimulator(topology, nodes)
        simulator.run(3)
        middle = nodes[1]
        # Round 0 inbox is empty; round 1 inbox holds round-0 payloads from
        # both neighbours.
        assert middle.received[0] == {}
        assert middle.received[1] == {1: 0, 2: 0}
        assert middle.received[2] == {1: 1, 2: 1}

    def test_metrics_count_messages_and_rounds(self):
        topology = cycle(4)
        metrics = MetricsCollector()
        result = run_protocol(
            topology,
            lambda i, p, r: EchoNode(p, r),
            max_rounds=3,
            seed=0,
            metrics=metrics,
        )
        assert result.rounds_executed == 3
        # 4 nodes x 2 ports x 3 rounds
        assert result.metrics.messages == 24
        assert result.metrics.bits > 0

    def test_halted_nodes_stop_stepping(self):
        topology = cycle(4)
        result = run_protocol(
            topology,
            lambda i, p, r: HaltAfterNode(p, r, rounds=2),
            max_rounds=10,
            seed=0,
        )
        assert result.all_halted
        assert result.rounds_executed == 2

    def test_rounds_executed_is_per_run_call(self):
        # A simulator driven in phases reports, per run() call, only the
        # rounds that call executed; total_rounds tracks the lifetime.
        topology = cycle(4)
        nodes = build_nodes(topology, lambda i, p, r: EchoNode(p, r), seed=0)
        simulator = SynchronousSimulator(topology, nodes)
        first = simulator.run(3)
        second = simulator.run(2)
        packaging = simulator.run(0)
        assert first.rounds_executed == 3
        assert second.rounds_executed == 2
        assert packaging.rounds_executed == 0
        assert first.total_rounds == 3
        assert second.total_rounds == 5
        assert packaging.total_rounds == 5

    def test_inbox_only_valid_during_step(self):
        # Inboxes are recycled buffers: contents observed during step are
        # correct even though the dict objects are reused across rounds.
        topology = path(3)
        nodes = build_nodes(topology, lambda i, p, r: EchoNode(p, r), seed=0)
        SynchronousSimulator(topology, nodes).run(4)
        middle = nodes[1]
        assert middle.received[2] == {1: 1, 2: 1}
        assert middle.received[3] == {1: 2, 2: 2}

    def test_require_halt_raises_when_not_done(self):
        topology = cycle(4)
        with pytest.raises(SimulationError):
            run_protocol(
                topology,
                lambda i, p, r: EchoNode(p, r),
                max_rounds=3,
                seed=0,
                require_halt=True,
            )


class OnePortFatSender(ProtocolNode):
    """Sends one oversized message through port 1 in round 2 only."""

    def step(self, round_index, inbox):
        if round_index == 2 and self.num_ports >= 1:
            return {1: FatMessage(blob="x" * 100)}
        return {}


class ForeignMessage:
    """A message-like object without size_bits/congest_units accessors."""

    payload = "opaque"


class ForeignSenderNode(ProtocolNode):
    def step(self, round_index, inbox):
        return {port: ForeignMessage() for port in self.ports()}


@dataclass(frozen=True)
class Batch(Message):
    """Stands for ``units`` CONGEST messages, like a batched token bundle."""

    units: int

    def congest_units(self) -> int:
        return self.units


class BatchSenderNode(ProtocolNode):
    """Sends ``Batch(units=3 * (port - 1))`` through every port."""

    def step(self, round_index, inbox):
        return {port: Batch(units=3 * (port - 1)) for port in self.ports()}


class TestCongestUnits:
    """Both delivery loops ask a congest_units override for its count."""

    @pytest.mark.parametrize(
        "adversary", [None, FaultAdversary()], ids=["plain", "adversary"]
    )
    def test_override_is_counted_and_at_least_one(self, adversary):
        topology = cycle(4)
        nodes = build_nodes(topology, lambda i, p, r: BatchSenderNode(p, r), seed=0)
        simulator = SynchronousSimulator(topology, nodes, adversary=adversary)
        simulator.run_round()
        # Every node sends 0 units (charged as 1) and 3 units.
        assert simulator.metrics.messages == 4 * (1 + 3)
        assert simulator.metrics.sent_messages == 8


class TestCongestEnforcement:
    def test_violations_counted_but_not_fatal_by_default(self):
        topology = cycle(4)
        result = run_protocol(
            topology,
            lambda i, p, r: FatSenderNode(p, r),
            max_rounds=1,
            seed=0,
        )
        assert result.metrics.congest_violations == 8

    def test_unenforced_violations_do_not_stop_the_run(self):
        # With enforce_congest=False the run proceeds to max_rounds and
        # keeps counting: every round adds all 8 violating messages, and
        # message/bit totals still include them.
        topology = cycle(4)
        result = run_protocol(
            topology,
            lambda i, p, r: FatSenderNode(p, r),
            max_rounds=3,
            seed=0,
        )
        assert result.rounds_executed == 3
        assert result.metrics.congest_violations == 24
        assert result.metrics.messages == 24
        assert result.metrics.bits > 0

    def test_enforcement_raises(self):
        topology = cycle(4)
        with pytest.raises(CongestViolationError):
            run_protocol(
                topology,
                lambda i, p, r: FatSenderNode(p, r),
                max_rounds=1,
                seed=0,
                enforce_congest=True,
            )

    def test_enforcement_error_names_round_and_port(self):
        topology = cycle(4)
        with pytest.raises(CongestViolationError, match=r"port 1 in round 2"):
            run_protocol(
                topology,
                lambda i, p, r: OnePortFatSender(p, r),
                max_rounds=5,
                seed=0,
                enforce_congest=True,
            )

    def test_foreign_messages_fall_back_to_one_congest_word(self):
        # Objects without a size_bits accessor are charged exactly one
        # CONGEST word each, so they never count as violations.
        topology = cycle(4)
        nodes = build_nodes(topology, lambda i, p, r: ForeignSenderNode(p, r), seed=0)
        simulator = SynchronousSimulator(topology, nodes, enforce_congest=True)
        simulator.run_round()
        assert simulator.metrics.messages == 8
        assert simulator.metrics.bits == 8 * simulator.congest_bits
        assert simulator.metrics.congest_violations == 0

    def test_count_bits_false_charges_zero_bits(self):
        topology = cycle(4)
        nodes = build_nodes(topology, lambda i, p, r: FatSenderNode(p, r), seed=0)
        simulator = SynchronousSimulator(topology, nodes, count_bits=False)
        simulator.run_round()
        assert simulator.metrics.messages == 8
        assert simulator.metrics.bits == 0
        assert simulator.metrics.congest_violations == 0

    def test_small_messages_do_not_violate(self):
        topology = cycle(4)
        result = run_protocol(
            topology,
            lambda i, p, r: EchoNode(p, r),
            max_rounds=2,
            seed=0,
        )
        assert result.metrics.congest_violations == 0


class TestGeneratorNode:
    def test_yields_one_outbox_per_round_then_halts(self):
        topology = cycle(3)
        result = run_protocol(
            topology,
            lambda i, p, r: CountdownGenerator(p, r, rounds=3),
            max_rounds=10,
            seed=0,
        )
        assert result.all_halted
        # Generator yields 3 times, then halts at the 4th step.
        assert result.rounds_executed == 4

    def test_inbox_reaches_generator(self):
        topology = cycle(3)
        nodes = build_nodes(
            topology, lambda i, p, r: CountdownGenerator(p, r, rounds=3), seed=0
        )
        SynchronousSimulator(topology, nodes).run(10)
        # Every node saw payload 0 from both neighbours in its second round.
        assert all(node.seen[0] == [0, 0] for node in nodes)

    def test_skipped_round_detected(self):
        node = CountdownGenerator(0, random.Random(0), rounds=2)
        node.step(0, {})
        with pytest.raises(ProtocolError):
            node.step(2, {})


class TestPassiveNode:
    def test_never_halts_and_never_sends(self):
        node = PassiveNode(2, random.Random(0))
        assert node.step(0, {}) == {}
        assert not node.halted
        assert node.result() == {"passive": True}

    def test_random_port_requires_ports(self):
        node = PassiveNode(0, random.Random(0))
        with pytest.raises(ValueError):
            node.random_port()

    def test_ports_range(self):
        node = PassiveNode(3, random.Random(0))
        assert list(node.ports()) == [1, 2, 3]


class TestCongestViolationCoherence:
    """An enforced violation must not tear the round it occurs in.

    The violating round completes in full — conforming messages of that
    round are delivered, buffers are swapped, the round counter advances —
    and only then does the simulator raise.  A caller that catches the
    error holds a coherent simulator it can keep running.
    """

    def _build(self, backend):
        topology = cycle(4)

        def factory(i, p, rng):
            return OnePortFatSender(p, rng) if i == 0 else EchoNode(p, rng)

        nodes = build_nodes(topology, factory, seed=0)
        simulator = SynchronousSimulator(
            topology, nodes, enforce_congest=True, backend=backend
        )
        return simulator, nodes

    @pytest.mark.parametrize("backend", ["round", "event"])
    def test_caught_violation_leaves_round_state_coherent(self, backend):
        simulator, _ = self._build(backend)
        with pytest.raises(CongestViolationError, match=r"port 1 in round 2"):
            simulator.run(5)
        # The violating round completed before the raise.
        assert simulator.current_round == 3
        assert simulator.metrics.congest_violations == 1
        # The oversized message was withheld from its receiver and
        # accounted as dropped; conforming traffic was delivered.
        assert simulator.metrics.dropped_messages == 1
        assert (
            simulator.metrics.delivered_messages
            == simulator.metrics.sent_messages - 1
        )

    @pytest.mark.parametrize("backend", ["round", "event"])
    def test_run_continues_after_caught_violation(self, backend):
        simulator, nodes = self._build(backend)
        with pytest.raises(CongestViolationError):
            simulator.run(5)
        # Rounds 3 and 4 still run; the echo nodes see the round-2
        # traffic of their conforming neighbours (and would crash on the
        # withheld FatMessage, which has no payload — its absence from
        # every inbox is what this step checks).
        result = simulator.run(2)
        assert result.rounds_executed == 2
        assert simulator.current_round == 5
        echo = nodes[2]  # both neighbours (1 and 3) are echo nodes
        assert len(echo.received) == 5
        assert sorted(echo.received[3].values()) == [2, 2]


class EchoUntilNode(EchoNode):
    """Echoes like :class:`EchoNode`; in round ``at`` it misbehaves.

    With ``port`` set it also sends through that port; without, it raises
    :class:`ProtocolError`.
    """

    def __init__(self, num_ports, rng, *, at, port=None) -> None:
        super().__init__(num_ports, rng)
        self.at = at
        self.port = port

    def step(self, round_index, inbox):
        outbox = super().step(round_index, inbox)
        if round_index == self.at:
            if self.port is None:
                raise ProtocolError(f"gave up in round {round_index}")
            outbox[self.port] = Ping(payload=round_index)
        return outbox


class TestFailedRoundsDoNotCommit:
    """A round that fails leaves the simulator and its metrics at the
    rounds committed before it."""

    @staticmethod
    def _build(backend, adversary=None, **misbehaviour):
        topology = cycle(4)

        def factory(i, p, rng):
            if i == 1 and misbehaviour:
                return EchoUntilNode(p, rng, **misbehaviour)
            return EchoNode(p, rng)

        nodes = build_nodes(topology, factory, seed=0)
        return SynchronousSimulator(
            topology, nodes, backend=backend, adversary=adversary
        )

    @pytest.mark.parametrize("backend", ["round", "event"])
    @pytest.mark.parametrize("faulty", [False, True], ids=["plain", "loss"])
    @pytest.mark.parametrize("port", [0, -1, 3])
    def test_a_port_outside_the_range_raises(self, backend, faulty, port):
        adversary = MessageLossAdversary(p=0.0, seed=0) if faulty else None
        simulator = self._build(backend, adversary, at=2, port=port)
        with pytest.raises(
            SimulationError, match=rf"node 1 tried to send through port {port} "
        ):
            simulator.run(5)
        assert simulator.current_round == 2
        assert simulator.metrics.rounds == 2
        assert simulator.metrics.sent_messages == 8 * 2

    @pytest.mark.parametrize("backend", ["round", "event"])
    def test_a_raising_node_leaves_the_committed_rounds(self, backend):
        simulator = self._build(backend, at=3)
        reference = self._build(backend)
        with reference.metrics.phase("echo"):
            reference.run(3)
        with pytest.raises(ProtocolError, match="round 3"):
            with simulator.metrics.phase("echo"):
                simulator.run(10)
        assert simulator.current_round == 3
        assert simulator.metrics.rounds == 3
        assert simulator.metrics.messages == 8 * 3
        assert (
            simulator.metrics.snapshot().as_dict()
            == reference.metrics.snapshot().as_dict()
        )

    @pytest.mark.parametrize("backend", ["round", "event"])
    def test_a_caught_violation_is_counted_with_its_round(self, backend):
        topology = cycle(4)

        def factory(i, p, rng):
            return OnePortFatSender(p, rng) if i == 0 else EchoNode(p, rng)

        nodes = build_nodes(topology, factory, seed=0)
        simulator = SynchronousSimulator(
            topology, nodes, enforce_congest=True, backend=backend
        )
        with pytest.raises(CongestViolationError):
            simulator.run(5)
        assert simulator.metrics.rounds == simulator.current_round == 3


class TestMessageConservation:
    """Every physical send is delivered, dropped, or still pending."""

    @pytest.mark.parametrize("backend", ["round", "event"])
    def test_identity_on_a_fault_free_run(self, backend):
        topology = cycle(4)
        nodes = build_nodes(topology, lambda i, p, r: EchoNode(p, r), seed=0)
        simulator = SynchronousSimulator(topology, nodes, backend=backend)
        simulator.run(3)
        metrics = simulator.metrics
        assert metrics.sent_messages == 8 * 3
        assert metrics.delivered_messages == 8 * 3
        assert metrics.dropped_messages == 0
        assert simulator.pending_delayed() == 0
        assert metrics.sent_messages == (
            metrics.delivered_messages
            + metrics.dropped_messages
            + simulator.pending_delayed()
        )

    def test_unenforced_violations_still_deliver(self):
        # Without enforcement a violating message is flagged but NOT
        # withheld, so it counts as delivered and nothing as dropped.
        topology = cycle(4)
        nodes = build_nodes(topology, lambda i, p, r: FatSenderNode(p, r), seed=0)
        simulator = SynchronousSimulator(topology, nodes)
        simulator.run_round()
        assert simulator.metrics.congest_violations == 8
        assert simulator.metrics.sent_messages == 8
        assert simulator.metrics.delivered_messages == 8
        assert simulator.metrics.dropped_messages == 0


def _repro_message_classes():
    """Every :class:`Message` subclass the ``repro`` package defines."""
    import importlib
    import pkgutil

    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found, stack = [], list(Message.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro."):
            found.append(cls)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


REPRO_MESSAGE_CLASSES = _repro_message_classes()


class OneShotSender(ProtocolNode):
    """Sends ``message`` through port 1 in round 0 only."""

    def __init__(self, num_ports, rng, message) -> None:
        super().__init__(num_ports, rng)
        self.message = message

    def step(self, round_index, inbox):
        return {1: self.message} if round_index == 0 else {}


@dataclass(frozen=True)
class WideTag(Message):
    """Keeps the base sizing methods but charges a wider type tag."""

    TYPE_TAG_BITS = 9

    value: int


@pytest.fixture
def sizing_calls(monkeypatch):
    """Records the message types sized through ``_message_cost``."""
    calls = []
    original = SynchronousSimulator._message_cost

    def spy(simulator, message):
        calls.append(type(message))
        return original(simulator, message)

    monkeypatch.setattr(SynchronousSimulator, "_message_cost", spy)
    return calls


@dataclass(frozen=True)
class CountedPing(Message):
    """A base-sized message that counts every call of its sizing methods."""

    payload: int

    calls = []

    def size_bits(self, network_size=None) -> int:
        self.calls.append("size_bits")
        return super().size_bits(network_size)

    def congest_units(self) -> int:
        self.calls.append("congest_units")
        return super().congest_units()


class SameInstanceSender(ProtocolNode):
    """Sends one shared ``message`` through every port in every round."""

    def __init__(self, num_ports, rng, message) -> None:
        super().__init__(num_ports, rng)
        self.message = message

    def step(self, round_index, inbox):
        return dict.fromkeys(self.ports(), self.message)


class TestWireCost:
    """Delivery sizes each message instance once, exactly like ``size_bits``."""

    def _deliver_one(self, message, sizing_calls, *, adversary=None, **options):
        """One delivered round; returns the simulator and the types it sized."""
        sizing_calls.clear()
        topology = path(2)
        nodes = [
            OneShotSender(1, random.Random(0), message),
            PassiveNode(1, random.Random(1)),
        ]
        simulator = SynchronousSimulator(
            topology, nodes, adversary=adversary, **options
        )
        simulator.run_round()
        return simulator, list(sizing_calls)

    def test_every_repro_message_class_is_found(self):
        names = {cls.__name__ for cls in REPRO_MESSAGE_CLASSES}
        assert {"OfferMessage", "WalkMessage", "TokenBundle"} <= names

    @pytest.mark.parametrize(
        "cls", REPRO_MESSAGE_CLASSES, ids=lambda cls: cls.__name__
    )
    @pytest.mark.parametrize(
        "adversary", [None, FaultAdversary()], ids=["plain", "adversary"]
    )
    def test_charges_size_bits_and_congest_units(
        self, cls, adversary, sizing_calls
    ):
        @settings(
            max_examples=25,
            deadline=None,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        )
        @given(st.builds(cls))
        def check(message):
            simulator, sized = self._deliver_one(
                message, sizing_calls, adversary=adversary
            )
            metrics = simulator.metrics
            assert metrics.bits == message.size_bits(2)
            assert metrics.messages == max(1, message.congest_units())
            assert metrics.delivered_messages == 1
            assert sized == [cls]  # the first send sizes the instance once

            unsized, sized = self._deliver_one(
                message, sizing_calls, adversary=adversary, count_bits=False
            )
            assert unsized.metrics.bits == 0
            assert unsized.metrics.messages == metrics.messages
            assert sized == []  # a later send reuses the stored size

        check()

    def test_gilbert_token_bundle_is_charged_by_its_own_methods(self, sizing_calls):
        from repro.baselines.gilbert import TokenBundle, WalkToken

        bundle = TokenBundle(
            tokens=(WalkToken(5, "walk", 3, 7), WalkToken(9, "walk", 1, 9))
        )
        simulator, sized = self._deliver_one(bundle, sizing_calls)
        assert sized == [TokenBundle]
        assert simulator.metrics.messages == 2
        assert simulator.metrics.bits == bundle.size_bits(2)

    def test_type_tag_override_is_charged(self, sizing_calls):
        simulator, sized = self._deliver_one(WideTag(value=5), sizing_calls)
        assert sized == [WideTag]
        assert simulator.metrics.bits == 9 + 3

    @pytest.mark.parametrize(
        "adversary", [None, FaultAdversary()], ids=["plain", "adversary"]
    )
    def test_an_instance_is_sized_once_across_ports_and_rounds(
        self, adversary, sizing_calls
    ):
        # Every node of cycle(4) sends one shared instance through both
        # ports for three rounds: 24 sends, one sizing.
        message = CountedPing(payload=6)
        CountedPing.calls.clear()
        topology = cycle(4)
        nodes = build_nodes(
            topology, lambda i, p, r: SameInstanceSender(p, r, message), seed=0
        )
        simulator = SynchronousSimulator(topology, nodes, adversary=adversary)
        simulator.run(3)
        assert sizing_calls == [CountedPing]
        assert sorted(CountedPing.calls) == ["congest_units", "size_bits"]
        metrics = simulator.metrics
        assert metrics.messages == 24
        assert metrics.bits == 24 * (Message.TYPE_TAG_BITS + 3)
        assert metrics.delivered_messages == 24

    def test_a_first_send_without_bit_counting_stores_the_true_size(
        self, sizing_calls
    ):
        message = Ping(payload=6)
        unsized, sized = self._deliver_one(message, sizing_calls, count_bits=False)
        assert unsized.metrics.bits == 0
        assert sized == [Ping]
        simulator, sized = self._deliver_one(message, sizing_calls)
        assert simulator.metrics.bits == Message.TYPE_TAG_BITS + 3
        assert sized == []

    @pytest.mark.parametrize(
        "adversary", [None, FaultAdversary()], ids=["plain", "adversary"]
    )
    def test_enforced_congest_withholds_an_oversized_message(self, adversary):
        message = Ping(payload=2**40)
        nodes = [
            OneShotSender(1, random.Random(0), message),
            PassiveNode(1, random.Random(1)),
        ]
        simulator = SynchronousSimulator(
            path(2),
            nodes,
            adversary=adversary,
            enforce_congest=True,
            congest_bits=message.size_bits(2) - 1,
        )
        with pytest.raises(CongestViolationError, match=r"port 1 in round 0"):
            simulator.run_round()
        metrics = simulator.metrics
        assert metrics.bits == message.size_bits(2)
        assert metrics.congest_violations == 1
        assert metrics.sent_messages == 1
        assert metrics.delivered_messages == 0
        assert metrics.dropped_messages == 1

    def test_a_presized_message_is_never_sized(self, sizing_calls):
        message = presized(CountedPing, 11, 2, payload=6)
        assert message == CountedPing(payload=6)
        CountedPing.calls.clear()
        simulator, sized = self._deliver_one(message, sizing_calls)
        assert sized == []
        assert CountedPing.calls == []
        assert (simulator.metrics.bits, simulator.metrics.messages) == (11, 2)


class BeginRoundCounter(FaultAdversary):
    """Overrides only ``begin_round``, counting its calls."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def begin_round(self, round_index):
        self.calls += 1


class NodeActiveCounter(FaultAdversary):
    """Overrides only ``node_active``: node 0 is frozen in rounds 3-8."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def node_active(self, round_index, node):
        self.calls += 1
        return not (node == 0 and 3 <= round_index < 9)


class NodeCrashedCounter(FaultAdversary):
    """Overrides only ``node_crashed``: node 0 counts as gone from round 4."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def node_crashed(self, round_index, node):
        self.calls += 1
        return node == 0 and round_index >= 4


class TestAdversaryHookDispatch:
    """The run loop calls a round hook only if the adversary's class
    overrides it.  The counts were recorded before that rule, when every
    hook was called under any adversary: an adversary that overrides one
    hook must still see every call of it."""

    TOPOLOGIES = {"flooding": grid_2d(3, 3), "gilbert": cycle(6), "irrevocable": hypercube(3)}

    #: (adversary class, protocol, backend) -> calls of its one hook
    CALLS = {
        ("BeginRoundCounter", "flooding", "event"): 6,
        ("BeginRoundCounter", "flooding", "round"): 6,
        ("BeginRoundCounter", "gilbert", "event"): 58,
        ("BeginRoundCounter", "gilbert", "round"): 58,
        ("BeginRoundCounter", "irrevocable", "event"): 400,
        ("BeginRoundCounter", "irrevocable", "round"): 400,
        ("NodeActiveCounter", "flooding", "event"): 54,
        ("NodeActiveCounter", "flooding", "round"): 54,
        ("NodeActiveCounter", "gilbert", "event"): 245,
        ("NodeActiveCounter", "gilbert", "round"): 348,
        ("NodeActiveCounter", "irrevocable", "event"): 427,
        ("NodeActiveCounter", "irrevocable", "round"): 3200,
        ("NodeCrashedCounter", "flooding", "event"): 6,
        ("NodeCrashedCounter", "flooding", "round"): 6,
        ("NodeCrashedCounter", "gilbert", "event"): 110,
        ("NodeCrashedCounter", "gilbert", "round"): 110,
        ("NodeCrashedCounter", "irrevocable", "event"): 794,
        ("NodeCrashedCounter", "irrevocable", "round"): 794,
    }

    @pytest.mark.parametrize("cls, protocol, backend", sorted(CALLS), ids=repr)
    def test_an_overridden_hook_gets_every_call(self, cls, protocol, backend):
        from repro.core import backend_scope
        from repro.core.faults import fault_scope
        from repro.protocols import run_protocol as run_registered

        counters = (BeginRoundCounter, NodeActiveCounter, NodeCrashedCounter)
        adversary = {counter.__name__: counter for counter in counters}[cls]()
        with backend_scope(backend), fault_scope(lambda: adversary):
            run_registered(protocol, self.TOPOLOGIES[protocol], 0)
        assert adversary.calls == self.CALLS[(cls, protocol, backend)]

    @pytest.mark.parametrize("backend", ["event", "round"])
    @pytest.mark.parametrize("model", ["loss", "delay"])
    def test_base_hooks_are_not_called(self, model, backend, monkeypatch):
        from repro import api

        calls = []
        for name in ("begin_round", "node_active", "node_crashed"):
            base = getattr(FaultAdversary, name)

            def counted(self, *args, _base=base, _name=name):
                calls.append(_name)
                return _base(self, *args)

            monkeypatch.setattr(FaultAdversary, name, counted)
        api.run("gilbert", cycle(6), seed=0, adversary=model, backend=backend)
        assert calls == []


class HorizonSpyNode(ProtocolNode):
    """Sends through every port every third round of its own and sleeps in
    between; logs every step (with whether its inbox was empty) and every
    horizon query.  Halts in round ``final``."""

    halted = False

    def __init__(self, num_ports, rng, *, final: int = 30) -> None:
        super().__init__(num_ports, rng)
        self.next_send = rng.randrange(3)
        self.final = final
        self.received = 0
        self.log = []

    def step(self, round_index, inbox):
        self.log.append(("step", round_index, bool(inbox)))
        self.received += len(inbox)
        if round_index >= self.final:
            self.halted = True
            return {}
        if round_index < self.next_send:
            return {}
        self.next_send = round_index + 3 + self.rng.randrange(3)
        return {port: Ping(payload=round_index) for port in self.ports()}

    def quiescent_until(self, round_index):
        self.log.append(("ask", round_index))
        return max(round_index, self.next_send)

    def result(self):
        return {"received": self.received, "next_send": self.next_send}


class TestHorizonAfterDelivery:
    """The event core asks a stepped, live node for its horizon after the
    round's delivery, and only if no message was delivered to it."""

    def _run(self, backend):
        topology = star(6)
        nodes = build_nodes(topology, lambda i, p, r: HorizonSpyNode(p, r), seed=5)
        simulator = SynchronousSimulator(topology, nodes, backend=backend)
        return simulator.run(100), nodes

    def test_asks_only_nodes_with_no_messages_waiting(self):
        result, nodes = self._run("event")
        assert result.all_halted
        deferred = 0
        for node in nodes:
            log = node.log
            assert log[0] == ("ask", 0)  # the run's opening query
            for position, entry in enumerate(log[1:], 1):
                if entry[0] == "ask":
                    # Every query follows a step, for the round after it.
                    assert log[position - 1][:2] == ("step", entry[1] - 1)
                    continue
                _, round_index, _ = entry
                if round_index >= node.final:
                    assert position == len(log) - 1  # halted: never asked
                    continue
                after = log[position + 1]
                if after == ("step", round_index + 1, True):
                    deferred += 1  # messages waiting: no query
                else:
                    assert after == ("ask", round_index + 1)
        assert deferred > 0

    def test_results_equal_the_round_core(self):
        event, _ = self._run("event")
        reference, _ = self._run("round")
        assert event.node_results == reference.node_results
        assert event.metrics == reference.metrics
        assert event.rounds_executed == reference.rounds_executed
