"""Equivalence suite for the two simulator cores (``backend="round"|"event"``).

The event-driven core is a pure performance optimisation: it skips
quiescent nodes and fast-forwards over quiescent stretches of rounds (also
under an adversary whose round hooks are quiet there), but
every observable of a run — metrics, election outcomes, per-node results,
traces, fault events — must be bit-for-bit identical to the round-robin
core.  This file pins that contract across

* the raw simulator (plain and under every adversary family),
* fast-forward under adversaries whose round hooks are quiet (loss,
  delay and their composition), which must skip idle rounds and still
  match,
* the irrevocable election pipeline (quiescence predicates engaged),
  including slot-aware broadcast horizons: overflowing super-rounds,
  nodes in several territories, and nodes frozen by an adversary,
* the Gilbert baseline, whose token-less nodes sleep until their next
  phase boundary, fault-free and under loss and delay,
* the experiment engine in all execution modes: serial, pooled, pooled
  with the spawn start method, and sharded-with-checkpoint,
* robustness curves over a dynamic scenario,
* checkpoint identity: the backend never enters task keys, so a sweep
  checkpointed under one core replays under the other.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

import pytest

from repro.analysis import ExperimentSpec, run_experiment
from repro.baselines import GilbertConfig, GilbertStyleNode, run_gilbert_election
from repro.core import (
    BACKENDS,
    Message,
    ProtocolNode,
    SimulationError,
    SynchronousSimulator,
    backend_scope,
    build_nodes,
    default_backend,
    set_default_backend,
)
from repro.core.errors import ConfigurationError
from repro.core.faults import FaultAdversary, fault_scope
from repro.dynamics import (
    AdversarySpec,
    MessageLossAdversary,
    make_adversary,
    robustness_specs,
)
from repro.election import (
    IrrevocableConfig,
    IrrevocableLeaderElectionNode,
    run_irrevocable_election,
)
from repro.graphs import cycle, grid_2d, random_regular, star
from repro.parallel import SweepConfig, expand_run_tasks, run_experiments
from repro.protocols import run_protocol
from repro.workloads import dynamic_scenario

ADVERSARY_GRID = [
    None,
    AdversarySpec.create("loss", p=0.1),
    AdversarySpec.create("delay", p=0.2, max_delay=3),
    AdversarySpec.create("skew", p=0.4, max_skew=3),
    AdversarySpec.create("churn", p_down=0.1, p_up=0.5),
    AdversarySpec.create("crash", p=0.2, horizon=4),
    AdversarySpec.create(
        "composed", models="loss+delay", **{"loss.p": 0.1, "delay.p": 0.2}
    ),
    AdversarySpec.create(
        "composed", models="skew+delay", **{"skew.p": 0.3, "delay.p": 0.1}
    ),
]


class Ping(Message):
    pass


class ChatterNode(ProtocolNode):
    """Never quiescent: sends through every port each round."""

    def __init__(self, num_ports: int, rng: random.Random) -> None:
        super().__init__(num_ports, rng)
        self.received = 0

    def step(self, round_index, inbox):
        self.received += len(inbox)
        return {port: Ping() for port in self.ports()}

    def result(self):
        return {"received": self.received}


class PeriodicNode(ProtocolNode):
    """Sends every third round after its last send; sleeps in between."""

    def __init__(self, num_ports: int, rng: random.Random) -> None:
        super().__init__(num_ports, rng)
        self.next_send = 0
        self.sends = []
        self.received = 0

    def step(self, round_index, inbox):
        self.received += len(inbox)
        if round_index < self.next_send:
            return {}
        self.next_send = round_index + 3
        self.sends.append(round_index)
        return {port: Ping() for port in self.ports()}

    def quiescent_until(self, round_index):
        return max(round_index, self.next_send)

    def result(self):
        return {"sends": list(self.sends), "received": self.received}


class FreezeNodeZero(FaultAdversary):
    """Node 0 sits out rounds 3 and 4, then comes back."""

    def node_active(self, round_index, node):
        return node != 0 or round_index not in (3, 4)


def _chatter_fingerprint(backend, adversary_spec):
    adversary = (
        make_adversary(adversary_spec, 7) if adversary_spec is not None else None
    )
    topology = cycle(8)
    nodes = build_nodes(topology, lambda i, p, rng: ChatterNode(p, rng), seed=0)
    simulator = SynchronousSimulator(
        topology, nodes, adversary=adversary, backend=backend
    )
    result = simulator.run(12)
    return (
        result.metrics.as_dict(),
        result.rounds_executed,
        result.results(),
        simulator.pending_delayed(),
    )


def _election_fingerprint(backend, topology, seed):
    with backend_scope(backend):
        result = run_irrevocable_election(topology, seed=seed)
    return result.as_dict()


def _irrevocable_fingerprint(backend, topology, seed, adversary_spec=None, **config):
    """Outcome, cost and every node's result of one irrevocable election."""
    config = IrrevocableConfig.from_topology(topology, **config)
    faults = (
        fault_scope(lambda: make_adversary(adversary_spec, seed))
        if adversary_spec is not None
        else nullcontext()
    )
    with backend_scope(backend), faults:
        result = run_irrevocable_election(topology, seed=seed, config=config)
    return result.as_dict(), result.node_results


def _comparable(cells):
    rows = []
    for cell in cells:
        row = cell.as_dict()
        row.pop("mean_wall_clock_seconds")
        rows.append(row)
    return rows


def _flooding_spec(adversary=None, name="flooding-backend-eq"):
    return ExperimentSpec(
        name=name,
        protocol="flooding",
        topologies=[cycle(8), star(8), grid_2d(3, 3)],
        seeds=(0, 1, 2),
        collect_profile=False,
        adversary=adversary,
    )


class TestSimulatorCoreEquivalence:
    @pytest.mark.parametrize(
        "adversary_spec",
        ADVERSARY_GRID,
        ids=lambda s: s.token() if s is not None else "plain",
    )
    def test_chatter_identical_under_every_adversary(self, adversary_spec):
        assert _chatter_fingerprint("round", adversary_spec) == _chatter_fingerprint(
            "event", adversary_spec
        )

    def test_frozen_node_is_due_again_once_it_returns(self):
        # Node 0's horizon passes while it is frozen: both cores must step
        # it in round 5, its first active round, not at its next reception.
        def fingerprint(backend):
            topology = cycle(6)
            nodes = build_nodes(topology, lambda i, p, rng: PeriodicNode(p, rng), seed=0)
            simulator = SynchronousSimulator(
                topology, nodes, adversary=FreezeNodeZero(), backend=backend
            )
            result = simulator.run(12)
            return result.metrics.as_dict(), result.results()

        reference = fingerprint("round")
        assert reference[1][0]["sends"][:2] == [0, 5]
        assert fingerprint("event") == reference

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "topology_factory",
        [lambda: cycle(8), lambda: random_regular(16, 4, seed=7)],
        ids=["cycle8", "rr16d4"],
    )
    def test_irrevocable_election_bit_identical(self, topology_factory, seed):
        # The election pipeline is the quiescence-heavy workload: its
        # nodes implement quiescent_until, so the event core actually
        # skips work here — and must still match bit for bit.
        topology = topology_factory()
        assert _election_fingerprint("round", topology, seed) == _election_fingerprint(
            "event", topology, seed
        )

    def test_irrevocable_runner_matches_across_backends(self):
        with backend_scope("round"):
            reference = run_protocol("irrevocable", cycle(8), 1).as_dict()
        with backend_scope("event"):
            assert run_protocol("irrevocable", cycle(8), 1).as_dict() == reference


class TestSlotAwareHorizons:
    """The event core wakes a broadcasting node only for its busy slots."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "topology_factory",
        [lambda: random_regular(16, 4, seed=7), lambda: grid_2d(5, 5)],
        ids=["rr16d4", "grid5x5"],
    )
    def test_overflowing_super_rounds_bit_identical(self, topology_factory, seed):
        topology = topology_factory()
        reference = _irrevocable_fingerprint(
            "round", topology, seed, super_round_slots=2
        )
        nodes = reference[1]
        assert sum(node["broadcast_overflow"] for node in nodes) > 0
        assert any(len(node["joined_territories"]) > 2 for node in nodes)
        assert (
            _irrevocable_fingerprint("event", topology, seed, super_round_slots=2)
            == reference
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_nodes_in_several_territories_bit_identical(self, seed):
        topology = random_regular(64, 6, seed=1)
        reference = _irrevocable_fingerprint("round", topology, seed)
        assert any(len(node["joined_territories"]) > 1 for node in reference[1])
        assert _irrevocable_fingerprint("event", topology, seed) == reference

    @pytest.mark.parametrize(
        "adversary_spec",
        [
            AdversarySpec.create("loss", p=0.1),
            AdversarySpec.create("delay", p=0.2, max_delay=3),
            AdversarySpec.create(
                "composed", models="loss+delay", **{"loss.p": 0.1, "delay.p": 0.2}
            ),
            AdversarySpec.create("skew", p=0.3, max_skew=3),
            AdversarySpec.create("churn", p_down=0.05, p_up=0.5),
            AdversarySpec.create("crash", p=0.2, horizon=60),
        ],
        ids=lambda spec: spec.name,
    )
    def test_adversaries_bit_identical(self, adversary_spec):
        topology = random_regular(16, 4, seed=7)
        assert _irrevocable_fingerprint(
            "event", topology, 0, adversary_spec
        ) == _irrevocable_fingerprint("round", topology, 0, adversary_spec)

    def test_event_core_steps_a_small_fraction_of_the_round_core(self, monkeypatch):
        # The broadcast phase dominates this election (39 slots x 156
        # rounds); with slot-aware horizons a node steps only in the slots
        # of its busy territories and when it receives.
        steps = {"count": 0}
        step = IrrevocableLeaderElectionNode.step

        def counted_step(node, round_index, inbox):
            steps["count"] += 1
            return step(node, round_index, inbox)

        monkeypatch.setattr(IrrevocableLeaderElectionNode, "step", counted_step)
        topology = random_regular(128, 8, seed=7)
        config = IrrevocableConfig.from_topology(topology)
        counts = {}
        for backend in ("round", "event"):
            steps["count"] = 0
            with backend_scope(backend):
                run_irrevocable_election(topology, seed=0, config=config)
            counts[backend] = steps["count"]
        assert counts["event"] <= 0.06 * counts["round"], counts

    def test_event_core_fast_forwards_under_message_only_adversaries(
        self, monkeypatch
    ):
        # Loss acts only on messages, so its quiet horizon lets the event
        # core skip the rounds in which nobody is due: begin_round runs
        # once per executed round, the round core executes every round.
        rounds = {"count": 0}
        begin_round = MessageLossAdversary.begin_round

        def counted_begin_round(adversary, round_index):
            rounds["count"] += 1
            return begin_round(adversary, round_index)

        monkeypatch.setattr(MessageLossAdversary, "begin_round", counted_begin_round)
        topology = random_regular(128, 8, seed=7)
        loss = AdversarySpec.create("loss", p=0.05)
        counts = {}
        fingerprints = {}
        for backend in ("round", "event"):
            rounds["count"] = 0
            fingerprints[backend] = _irrevocable_fingerprint(backend, topology, 0, loss)
            counts[backend] = rounds["count"]
        assert fingerprints["event"] == fingerprints["round"]
        assert counts["event"] <= 0.10 * counts["round"], counts


def _gilbert_fingerprint(backend, topology, seed, adversary_spec=None):
    """Outcome, cost and every node's result of one Gilbert election."""
    config = GilbertConfig.from_topology(topology)
    faults = (
        fault_scope(lambda: make_adversary(adversary_spec, seed))
        if adversary_spec is not None
        else nullcontext()
    )
    with backend_scope(backend), faults:
        result = run_gilbert_election(topology, seed=seed, config=config)
    return result.as_dict(), result.node_results


class TestGilbertEquivalence:
    """Token-less Gilbert nodes sleep in the event core; results must not move."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "topology_factory",
        [lambda: cycle(8), lambda: random_regular(16, 4, seed=7)],
        ids=["cycle8", "rr16d4"],
    )
    @pytest.mark.parametrize(
        "adversary_spec",
        [
            None,
            AdversarySpec.create("loss", p=0.1),
            AdversarySpec.create("delay", p=0.2, max_delay=3),
        ],
        ids=lambda s: s.token() if s is not None else "plain",
    )
    def test_gilbert_election_bit_identical(
        self, topology_factory, seed, adversary_spec
    ):
        topology = topology_factory()
        assert _gilbert_fingerprint(
            "event", topology, seed, adversary_spec
        ) == _gilbert_fingerprint("round", topology, seed, adversary_spec)

    def test_event_core_steps_fewer_gilbert_nodes_same_productive_steps(
        self, monkeypatch
    ):
        counts = {}
        step = GilbertStyleNode.step

        def counted_step(node, round_index, inbox):
            outbox = step(node, round_index, inbox)
            counts["steps"] += 1
            counts["productive"] += bool(outbox)
            return outbox

        monkeypatch.setattr(GilbertStyleNode, "step", counted_step)
        topology = cycle(16)
        per_backend = {}
        for backend in ("round", "event"):
            counts.update(steps=0, productive=0)
            _gilbert_fingerprint(backend, topology, 0)
            per_backend[backend] = dict(counts)
        event, reference = per_backend["event"], per_backend["round"]
        assert event["productive"] == reference["productive"] > 0
        assert event["steps"] <= 0.9 * reference["steps"], per_backend


class TestExperimentEngineEquivalence:
    @pytest.mark.parametrize(
        "adversary",
        ADVERSARY_GRID,
        ids=lambda s: s.token() if s is not None else "plain",
    )
    def test_serial_sweep_identical_across_cores(self, adversary):
        spec = _flooding_spec(adversary)
        reference = run_experiment(spec, backend="round")
        event = run_experiment(spec, backend="event")
        assert _comparable(event.cells) == _comparable(reference.cells)

    def test_all_execution_modes_and_cores_identical(self, tmp_path):
        # serial/round is the reference; every (execution mode, core)
        # combination must reproduce its cells exactly.
        from repro.parallel import manifest_path, merge_shard_checkpoints

        spec = _flooding_spec(AdversarySpec.create("loss", p=0.1))
        reference = _comparable(run_experiment(spec, backend="round").cells)

        assert _comparable(run_experiment(spec, backend="event").cells) == reference
        for backend in ("round", "event"):
            pooled = run_experiments(
                [spec],
                config=SweepConfig(workers=2, backend=backend),
            )[0]
            assert _comparable(pooled.cells) == reference
        spawned = run_experiments(
            [spec],
            config=SweepConfig(workers=2, start_method="spawn", backend="event"),
        )[0]
        assert _comparable(spawned.cells) == reference

        checkpoint = tmp_path / "ck" / "sweep.json"
        for shard_index in (0, 1):
            run_experiments(
                [spec],
                config=SweepConfig(
                    checkpoint=checkpoint,
                    shard=(shard_index, 2),
                    backend="event",
                ),
            )
        merge_shard_checkpoints(manifest_path(checkpoint), checkpoint)
        replayed = run_experiments([spec], config=SweepConfig(checkpoint=checkpoint))[0]
        assert _comparable(replayed.cells) == reference

    def test_robustness_curve_identical_across_cores(self):
        specs = robustness_specs(
            ["flooding"], [cycle(8)], dynamic_scenario("lossy"), seeds=(0, 1)
        )
        for spec in specs:
            reference = run_experiment(spec, backend="round")
            event = run_experiment(spec, backend="event")
            assert _comparable(event.cells) == _comparable(reference.cells)

    def test_backend_not_in_task_keys_and_checkpoints_interchange(self, tmp_path):
        # Task keys identify (spec, topology, seed, adversary) — never the
        # simulator core — so a checkpoint written under one core must
        # replay (not recompute) under the other.
        spec = _flooding_spec(AdversarySpec.create("delay", p=0.2, max_delay=3))
        keys = sorted(task.key for task in expand_run_tasks(spec))
        assert all("round" not in key and "event" not in key for key in keys)

        checkpoint = tmp_path / "sweep.json"
        written = run_experiments(
            [spec],
            config=SweepConfig(checkpoint=checkpoint, backend="round"),
        )[0]
        replayed = run_experiments(
            [spec],
            config=SweepConfig(checkpoint=checkpoint, backend="event"),
        )[0]
        assert _comparable(replayed.cells) == _comparable(written.cells)


class TestBackendSelection:
    def test_auto_resolves_to_event(self):
        assert default_backend() == "event"
        topology = cycle(4)
        nodes = build_nodes(topology, lambda i, p, rng: ChatterNode(p, rng), seed=0)
        assert SynchronousSimulator(topology, nodes).backend == "event"

    def test_scopes_nest_and_restore(self):
        with backend_scope("round"):
            assert default_backend() == "round"
            with backend_scope("event"):
                assert default_backend() == "event"
            assert default_backend() == "round"
        assert default_backend() == "event"

    def test_explicit_argument_wins_over_scope(self):
        topology = cycle(4)
        nodes = build_nodes(topology, lambda i, p, rng: ChatterNode(p, rng), seed=0)
        with backend_scope("round"):
            simulator = SynchronousSimulator(topology, nodes, backend="event")
        assert simulator.backend == "event"

    def test_process_default_reaches_auto(self):
        try:
            set_default_backend("round")
            assert default_backend() == "round"
        finally:
            set_default_backend("auto")
        assert default_backend() == "event"

    def test_scope_is_invisible_to_other_threads(self, scope_in_other_thread):
        with scope_in_other_thread(backend_scope("round")) as leave:
            assert default_backend() == "event"
            with backend_scope("round"):
                leave()
                # The helper closing its scope leaves this thread's alone.
                assert default_backend() == "round"
            assert default_backend() == "event"

    def test_invalid_backend_rejected_everywhere(self):
        topology = cycle(4)
        nodes = build_nodes(topology, lambda i, p, rng: ChatterNode(p, rng), seed=0)
        with pytest.raises(SimulationError, match="warp"):
            SynchronousSimulator(topology, nodes, backend="warp")
        with pytest.raises(SimulationError, match="warp"):
            set_default_backend("warp")
        with pytest.raises(SimulationError, match="warp"):
            with backend_scope("warp"):
                pass  # pragma: no cover - the scope must refuse to open
        with pytest.raises(ConfigurationError, match="warp"):
            run_experiments([_flooding_spec()], config=SweepConfig(backend="warp"))
        assert "warp" not in BACKENDS
