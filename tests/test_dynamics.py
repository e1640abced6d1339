"""Tests for the adversarial network dynamics subsystem (``repro.dynamics``).

The contract under test:

* every adversary model is a deterministic function of the run seed — the
  same (topology, seed, adversary) run is bit-identical wherever and
  however often it executes, and adversarial sweeps are identical between
  the serial and parallel experiment backends for any worker count;
* fault injection is observable: dropped/delayed counters in
  :class:`~repro.core.metrics.Metrics`, fault events in the trace, the
  adversary description in the run's parameters and checkpoint record;
* the adversary is part of a run's checkpoint identity, so resuming a
  sweep under a different fault model re-runs instead of replaying;
* safety under benign faults: the paper's irrevocable protocol never
  reports more than one leader under mild message loss (and the safety
  verification helpers catch algorithms that do split).
"""

from __future__ import annotations

import os
import pickle
import random

import pytest

from repro.analysis import ExperimentSpec, effective_runner, run_experiment
from repro.core import (
    DELIVER,
    DROP,
    FaultAdversary,
    Metrics,
    MetricsCollector,
    ProtocolNode,
    SynchronousSimulator,
    TraceRecorder,
    active_fault_factory,
    build_nodes,
    fault_scope,
)
from repro.core.errors import ConfigurationError
from repro.core.messages import Message
from repro.dynamics import (
    ADVERSARIES,
    AdversarySpec,
    AsynchronyAdversary,
    CrashStopAdversary,
    LinkChurnAdversary,
    MessageDelayAdversary,
    MessageLossAdversary,
    adversary_grid,
    make_adversary,
    parse_adversary_params,
    robustness_specs,
    run_with_adversary,
)
from repro.election.base import safety_violations, summarize_safety
from repro.graphs import (
    EffectiveTopologyView,
    complete,
    cycle,
    grid_2d,
    hypercube,
    path,
    star,
    torus_2d,
)
from repro.parallel import SweepConfig, expand_run_tasks, run_experiments
from repro.protocols import protocol_runner
from repro.workloads import DYNAMIC_SCENARIOS, dynamic_scenario

FLOODING = protocol_runner("flooding")
IRREVOCABLE = protocol_runner("irrevocable")

WORKER_COUNTS = sorted({2, 4} | {int(os.environ.get("REPRO_TEST_WORKERS", 2))})


class Ping(Message):
    pass


class ChatterNode(ProtocolNode):
    """Sends one message through every port each round; counts receptions."""

    def __init__(self, num_ports: int, rng: random.Random) -> None:
        super().__init__(num_ports, rng)
        self.received = 0
        self.stepped = 0

    def step(self, round_index, inbox):
        self.stepped += 1
        self.received += len(inbox)
        return {port: Ping() for port in self.ports()}

    def result(self):
        return {"received": self.received, "stepped": self.stepped}


def _chatter_simulator(topology, adversary=None, trace=None):
    nodes = build_nodes(topology, lambda i, p, rng: ChatterNode(p, rng), seed=0)
    return SynchronousSimulator(topology, nodes, adversary=adversary, trace=trace)


def _comparable(cells):
    rows = []
    for cell in cells:
        row = cell.as_dict()
        row.pop("mean_wall_clock_seconds")
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# core hook
# --------------------------------------------------------------------------- #


class TestFaultHook:
    def test_null_adversary_changes_nothing(self):
        plain = _chatter_simulator(cycle(8)).run(10)
        nulled = _chatter_simulator(cycle(8), adversary=FaultAdversary()).run(10)
        assert [n.result() for n in nulled.nodes] == [n.result() for n in plain.nodes]
        assert nulled.metrics.as_dict() == plain.metrics.as_dict()
        assert nulled.metrics.dropped_messages == 0

    def test_drop_everything(self):
        class DropAll(FaultAdversary):
            def on_message(self, *args):
                return DROP

        result = _chatter_simulator(cycle(8), adversary=DropAll()).run(5)
        assert all(node.received == 0 for node in result.nodes)
        # Senders still paid for every message (2 per node per round).
        assert result.metrics.messages == 8 * 2 * 5
        assert result.metrics.dropped_messages == 8 * 2 * 5

    def test_delay_shifts_arrival(self):
        class DelayTwo(FaultAdversary):
            def on_message(self, *args):
                return 2

        plain = _chatter_simulator(cycle(8)).run(10)
        delayed = _chatter_simulator(cycle(8), adversary=DelayTwo()).run(10)
        assert delayed.metrics.delayed_messages == plain.metrics.messages
        # Two rounds of traffic are still in flight at the end.
        received = sum(node.received for node in delayed.nodes)
        assert received == sum(node.received for node in plain.nodes) - 2 * 16

    def test_inactive_nodes_are_not_stepped(self):
        class FreezeNodeZero(FaultAdversary):
            def node_active(self, round_index, node):
                return node != 0

        result = _chatter_simulator(cycle(8), adversary=FreezeNodeZero()).run(5)
        assert result.nodes[0].stepped == 0
        assert all(node.stepped == 5 for node in result.nodes[1:])

    def test_fault_scope_installs_ambient_factory(self):
        assert active_fault_factory() is None
        adversary = FaultAdversary()
        with fault_scope(lambda: adversary):
            assert active_fault_factory() is not None
            simulator = _chatter_simulator(cycle(4))
            assert simulator.adversary is adversary
        assert active_fault_factory() is None
        assert _chatter_simulator(cycle(4)).adversary is None

    def test_fault_scope_is_invisible_to_other_threads(self, scope_in_other_thread):
        with scope_in_other_thread(fault_scope(FaultAdversary)) as leave:
            assert active_fault_factory() is None
            assert _chatter_simulator(cycle(4)).adversary is None
            adversary = FaultAdversary()
            with fault_scope(lambda: adversary):
                leave()
                # The helper closing its scope leaves this thread's alone.
                assert active_fault_factory() is not None
                assert _chatter_simulator(cycle(4)).adversary is adversary
            assert active_fault_factory() is None

    def test_explicit_adversary_wins_over_ambient(self):
        explicit = FaultAdversary()
        with fault_scope(FaultAdversary):
            simulator = _chatter_simulator(cycle(4), adversary=explicit)
        assert simulator.adversary is explicit


def _rng_states(adversary):
    """The RNG state of an adversary and of every part of a composition."""
    parts = getattr(adversary, "parts", [adversary])
    return [part._rng.getstate() for part in parts]


class TestQuietHorizon:
    """``FaultAdversary.quiescent_until``: the event core may skip rounds
    before the horizon, so the round hooks must be no-ops there."""

    @pytest.mark.parametrize(
        "spec",
        [
            AdversarySpec.create("loss", p=0.3),
            AdversarySpec.create("delay", p=0.3, max_delay=3),
            AdversarySpec.create(
                "composed", models="loss+delay", **{"loss.p": 0.3, "delay.p": 0.3}
            ),
        ],
        ids=lambda spec: spec.token(),
    )
    @pytest.mark.parametrize("start", [0, 7, 1000])
    def test_round_hooks_are_quiet_before_the_horizon(self, spec, start):
        topology = torus_2d(4, 4)
        metrics = MetricsCollector()
        trace = TraceRecorder()
        adversary = make_adversary(spec, 5)
        adversary.attach(topology, metrics, trace)
        horizon = adversary.quiescent_until(start)
        assert horizon > start
        rng_before = _rng_states(adversary)
        events_before = metrics.snapshot().as_dict()
        for round_index in range(start, min(horizon, start + 50)):
            adversary.begin_round(round_index)
            for node in range(topology.num_nodes):
                assert adversary.node_active(round_index, node)
                assert not adversary.node_crashed(round_index, node)
        assert _rng_states(adversary) == rng_before
        assert metrics.snapshot().as_dict() == events_before
        assert len(trace) == 0

    @pytest.mark.parametrize(
        "spec",
        [
            AdversarySpec.create("churn", p_down=0.1, p_up=0.5),
            AdversarySpec.create("crash", p=0.2, horizon=4),
            AdversarySpec.create("skew", p=0.4, max_skew=3),
            AdversarySpec.create(
                "composed", models="loss+churn", **{"churn.p_down": 0.1}
            ),
        ],
        ids=lambda spec: spec.token(),
    )
    @pytest.mark.parametrize("start", [0, 7, 1000])
    def test_models_with_round_hooks_keep_every_round(self, spec, start):
        adversary = make_adversary(spec, 5)
        adversary.attach(torus_2d(4, 4), MetricsCollector(), TraceRecorder())
        assert adversary.quiescent_until(start) == start

    def test_base_adversary_keeps_every_round(self):
        assert FaultAdversary().quiescent_until(3) == 3


# --------------------------------------------------------------------------- #
# concrete models
# --------------------------------------------------------------------------- #


class TestMessageLoss:
    def test_deterministic_per_seed(self):
        results = [
            _chatter_simulator(
                torus_2d(4, 4), adversary=MessageLossAdversary(p=0.2, seed=7)
            ).run(10)
            for _ in range(2)
        ]
        assert results[0].metrics.as_dict() == results[1].metrics.as_dict()
        assert results[0].metrics.dropped_messages > 0

    def test_different_seeds_differ(self):
        a = _chatter_simulator(
            torus_2d(4, 4), adversary=MessageLossAdversary(p=0.2, seed=1)
        ).run(10)
        b = _chatter_simulator(
            torus_2d(4, 4), adversary=MessageLossAdversary(p=0.2, seed=2)
        ).run(10)
        assert [n.received for n in a.nodes] != [n.received for n in b.nodes]

    def test_p_zero_is_baseline(self):
        plain = _chatter_simulator(cycle(8)).run(10)
        lossless = _chatter_simulator(
            cycle(8), adversary=MessageLossAdversary(p=0.0, seed=3)
        ).run(10)
        assert [n.received for n in lossless.nodes] == [
            n.received for n in plain.nodes
        ]
        assert lossless.metrics.dropped_messages == 0

    def test_p_one_drops_all(self):
        result = _chatter_simulator(
            cycle(8), adversary=MessageLossAdversary(p=1.0, seed=3)
        ).run(5)
        assert all(node.received == 0 for node in result.nodes)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            MessageLossAdversary(p=1.5)

    def test_rng_is_built_at_attach_only(self, monkeypatch):
        built = []
        original = random.Random.__init__

        def counted(self, *args):
            built.append(args)
            original(self, *args)

        monkeypatch.setattr(random.Random, "__init__", counted)
        adversary = MessageLossAdversary(p=0.2, seed=7)
        assert built == [] and not hasattr(adversary, "_rng")
        adversary.attach(cycle(4), MetricsCollector(), TraceRecorder())
        assert len(built) == 1 and built[0] != ()  # seeded, never from OS entropy


class TestMessageDelay:
    def test_delayed_messages_arrive_late_not_never(self):
        adversary = MessageDelayAdversary(p=0.5, max_delay=3, seed=11)
        result = _chatter_simulator(complete(5), adversary=adversary).run(30)
        metrics = result.metrics
        assert metrics.delayed_messages > 0
        received = sum(node.received for node in result.nodes)
        # Everything sent is either delivered, still in flight at the end
        # (bounded by max_delay rounds of traffic), or was dropped in a
        # delay collision.
        assert received + metrics.dropped_messages <= metrics.messages
        assert metrics.messages - received - metrics.dropped_messages <= 3 * 20

    def test_collisions_count_as_dropped(self):
        # Chatter keeps every port busy every round, so a delayed message
        # always lands on an occupied port and must be dropped.
        adversary = MessageDelayAdversary(p=0.3, max_delay=2, seed=5)
        result = _chatter_simulator(cycle(6), adversary=adversary).run(20)
        assert result.metrics.dropped_messages > 0

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            MessageDelayAdversary(p=0.1, max_delay=0)


class TestAsynchronySkew:
    def test_schedule_is_persistent_and_deterministic(self):
        schedules = []
        for _ in range(2):
            adversary = AsynchronyAdversary(p=0.5, max_skew=3, seed=7)
            _chatter_simulator(torus_2d(4, 4), adversary=adversary).run(1)
            schedules.append(dict(adversary._skew))
        assert schedules[0] == schedules[1]
        assert schedules[0]  # p=0.5 over 32 links: some skewed
        assert all(1 <= skew <= 3 for skew in schedules[0].values())

    def test_same_link_always_same_lateness(self):
        # The model's point: skew is per *link*, not per message — every
        # delayed arrival on one edge carries the identical lateness,
        # which no i.i.d. draw of MessageDelayAdversary guarantees.
        trace = TraceRecorder()
        adversary = AsynchronyAdversary(p=0.6, max_skew=4, seed=3)
        _chatter_simulator(cycle(8), adversary=adversary, trace=trace).run(10)
        delays_per_link = {}
        for event in trace.of_kind("message-delayed"):
            link = (event.node, event.detail["receiver"])
            delays_per_link.setdefault(link, set()).add(event.detail["delay"])
        assert delays_per_link
        assert all(len(delays) == 1 for delays in delays_per_link.values())

    def test_skewed_links_pipeline_instead_of_dropping(self):
        # With every link skewed by exactly one round the traffic still
        # flows, one round behind: no drops, and exactly one round's
        # worth of messages is still in flight at the end.
        plain = _chatter_simulator(cycle(8)).run(10)
        adversary = AsynchronyAdversary(p=1.0, max_skew=1, seed=5)
        skewed = _chatter_simulator(cycle(8), adversary=adversary).run(10)
        assert skewed.metrics.dropped_messages == 0
        assert skewed.metrics.delayed_messages == skewed.metrics.messages
        received = sum(node.received for node in skewed.nodes)
        assert received == sum(node.received for node in plain.nodes) - 16

    def test_p_zero_is_baseline(self):
        plain = _chatter_simulator(cycle(8)).run(10)
        unskewed = _chatter_simulator(
            cycle(8), adversary=AsynchronyAdversary(p=0.0, seed=3)
        ).run(10)
        assert [n.received for n in unskewed.nodes] == [
            n.received for n in plain.nodes
        ]
        assert unskewed.metrics.delayed_messages == 0

    def test_link_skew_accessor_and_metrics(self):
        adversary = AsynchronyAdversary(p=1.0, max_skew=2, seed=1)
        result = _chatter_simulator(cycle(6), adversary=adversary).run(3)
        assert result.metrics.events["fault.skewed-links"] == 6
        assert all(
            adversary.link_skew(u, v) >= 1 for u, v in adversary.topology.edges()
        )
        assert AsynchronyAdversary(p=0.0, seed=1).link_skew(0, 1) == 0

    def test_skew_events_traced_once(self):
        trace = TraceRecorder()
        adversary = AsynchronyAdversary(p=1.0, max_skew=3, seed=2)
        _chatter_simulator(cycle(6), adversary=adversary, trace=trace).run(5)
        events = trace.of_kind("link-skew")
        assert len(events) == 6  # once per skewed link, not per round
        assert all(1 <= event.detail["skew"] <= 3 for event in events)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            AsynchronyAdversary(p=1.5)
        with pytest.raises(ConfigurationError):
            AsynchronyAdversary(p=0.5, max_skew=0)

    def test_registered_and_composable(self):
        assert "skew" in ADVERSARIES
        spec = AdversarySpec.create("skew", p=0.25, max_skew=5)
        adversary = make_adversary(spec, seed=9)
        assert isinstance(adversary, AsynchronyAdversary)
        assert adversary.max_skew == 5
        composed = make_adversary(
            AdversarySpec.create(
                "composed", models="skew+loss", **{"skew.p": 0.3, "loss.p": 0.05}
            ),
            seed=9,
        )
        assert [part.name for part in composed.parts] == ["skew", "loss"]


class TestLinkChurn:
    def test_deterministic_schedule(self):
        runs = [
            _chatter_simulator(
                torus_2d(4, 4),
                adversary=LinkChurnAdversary(p_down=0.2, p_up=0.5, seed=9),
            ).run(15)
            for _ in range(2)
        ]
        assert runs[0].metrics.as_dict() == runs[1].metrics.as_dict()
        assert runs[0].metrics.events.get("fault.link-down-rounds", 0) > 0

    def test_down_links_drop_messages(self):
        adversary = LinkChurnAdversary(p_down=1.0, p_up=0.0, seed=1)
        result = _chatter_simulator(cycle(8), adversary=adversary).run(5)
        # Every link goes down in round 0 and never recovers.
        assert all(node.received == 0 for node in result.nodes)
        assert result.metrics.events["fault.disconnected-rounds"] == 5

    def test_effective_view_tracks_down_edges(self):
        adversary = LinkChurnAdversary(p_down=0.3, p_up=0.3, seed=2)
        simulator = _chatter_simulator(cycle(8), adversary=adversary)
        simulator.run(5)
        view = adversary.effective_view()
        assert isinstance(view, EffectiveTopologyView)
        assert view.num_edges == 8 - len(view.down_edges)
        for edge in view.down_edges:
            assert not view.is_up(*edge)

    def test_no_churn_is_baseline(self):
        plain = _chatter_simulator(cycle(8)).run(10)
        stable = _chatter_simulator(
            cycle(8), adversary=LinkChurnAdversary(p_down=0.0, p_up=1.0, seed=4)
        ).run(10)
        assert [n.received for n in stable.nodes] == [n.received for n in plain.nodes]


class TestCrashStop:
    def test_crash_schedule_is_deterministic(self):
        schedules = []
        for _ in range(2):
            adversary = CrashStopAdversary(p=0.5, horizon=10, seed=21)
            _chatter_simulator(cycle(8), adversary=adversary).run(1)
            schedules.append(adversary._crash_round)
        assert schedules[0] == schedules[1]
        assert any(r is not None for r in schedules[0])

    def test_crashed_nodes_stop_stepping_and_receiving(self):
        adversary = CrashStopAdversary(p=1.0, horizon=1, seed=3)
        result = _chatter_simulator(cycle(8), adversary=adversary).run(5)
        # Everyone crashes at round 1: exactly one round of participation.
        assert all(node.stepped == 1 for node in result.nodes)
        assert result.metrics.events["fault.node-crash"] == 8
        assert adversary.crashed_nodes(5) == list(range(8))

    def test_messages_to_crashed_nodes_dropped(self):
        adversary = CrashStopAdversary(p=1.0, horizon=1, seed=3)
        result = _chatter_simulator(cycle(8), adversary=adversary).run(5)
        # Round 0 traffic would arrive in round 1, when every node is down.
        assert all(node.received == 0 for node in result.nodes)
        assert result.metrics.dropped_messages == 16

    def test_p_zero_crashes_nobody(self):
        adversary = CrashStopAdversary(p=0.0, horizon=8, seed=3)
        result = _chatter_simulator(cycle(8), adversary=adversary).run(5)
        assert all(node.stepped == 5 for node in result.nodes)
        assert adversary.crashed_nodes(100) == []


# --------------------------------------------------------------------------- #
# specs, registry, grids
# --------------------------------------------------------------------------- #


class TestAdversarySpec:
    def test_registry_covers_all_models(self):
        assert {"loss", "delay", "churn", "crash"} <= set(ADVERSARIES)

    def test_create_validates_name_and_params(self):
        with pytest.raises(ConfigurationError):
            AdversarySpec.create("gremlin", p=0.5)
        with pytest.raises(ConfigurationError):
            AdversarySpec.create("loss", probability=0.5)  # bad kwarg
        with pytest.raises(ConfigurationError):
            AdversarySpec.create("loss", p=2.0)  # out of range

    def test_token_is_stable_and_order_insensitive(self):
        a = AdversarySpec.create("delay", p=0.1, max_delay=3)
        b = AdversarySpec.create("delay", max_delay=3, p=0.1)
        assert a == b
        assert a.token() == b.token() == "delay(max_delay=3,p=0.1)"

    def test_spec_is_picklable_and_hashable(self):
        spec = AdversarySpec.create("churn", p_down=0.1, p_up=0.5)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert spec in {spec}

    def test_make_adversary_binds_seed(self):
        spec = AdversarySpec.create("loss", p=0.25)
        adversary = make_adversary(spec, seed=42)
        assert isinstance(adversary, MessageLossAdversary)
        assert adversary.p == 0.25
        assert adversary.seed == 42

    def test_parse_adversary_params(self):
        parsed = parse_adversary_params(["p=0.05", "max_delay=3"])
        assert parsed == {"p": 0.05, "max_delay": 3}
        assert isinstance(parsed["max_delay"], int)
        with pytest.raises(ConfigurationError):
            parse_adversary_params(["p"])
        with pytest.raises(ConfigurationError):
            parse_adversary_params(["p=high"])

    def test_adversary_grid(self):
        specs = adversary_grid("loss", "p", [0.01, 0.05, 0.1])
        assert [dict(spec.params)["p"] for spec in specs] == [0.01, 0.05, 0.1]

    def test_dynamic_scenarios_are_well_formed(self):
        for name in DYNAMIC_SCENARIOS:
            ladder = dynamic_scenario(name)
            assert ladder[0] is None  # baseline rung first
            assert all(
                rung is None or rung.name in ADVERSARIES for rung in ladder
            )
        with pytest.raises(ConfigurationError):
            dynamic_scenario("sunny-day")

    def test_robustness_specs_names_are_unique(self):
        specs = robustness_specs(
            ["flooding", "uniform"],
            [cycle(8)],
            dynamic_scenario("lossy"),
            seeds=(0,),
        )
        names = [spec.name for spec in specs]
        assert len(set(names)) == len(names)
        assert "flooding" in names
        assert any(name.startswith("flooding@loss(") for name in names)


# --------------------------------------------------------------------------- #
# determinism through the experiment engine
# --------------------------------------------------------------------------- #

ADVERSARY_GRID = [
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


def _adversarial_spec(adversary, name="flooding-under-faults"):
    return ExperimentSpec(
        name=name,
        protocol="flooding",
        topologies=[cycle(8), star(8), grid_2d(3, 3)],
        seeds=(0, 1, 2),
        collect_profile=False,
        adversary=adversary,
    )


class TestAdversarialSweepEquivalence:
    @pytest.mark.parametrize("adversary", ADVERSARY_GRID, ids=lambda s: s.token())
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_serial_and_parallel_identical(self, adversary, workers):
        spec = _adversarial_spec(adversary)
        serial = run_experiment(spec)
        parallel = run_experiments([spec], config=SweepConfig(workers=workers))[0]
        assert _comparable(parallel.cells) == _comparable(serial.cells)

    def test_adversarial_runs_are_repeatable(self):
        spec = AdversarySpec.create("loss", p=0.2)
        a = run_with_adversary(FLOODING, torus_2d(4, 4), 3, spec)
        b = run_with_adversary(FLOODING, torus_2d(4, 4), 3, spec)
        assert a.as_dict() == b.as_dict()
        assert a.parameters["adversary"] == spec.as_dict()

    def test_effective_runner_is_picklable(self):
        runner = effective_runner(_adversarial_spec(ADVERSARY_GRID[0]))
        clone = pickle.loads(pickle.dumps(runner))
        assert clone(cycle(8), 0).as_dict() == runner(cycle(8), 0).as_dict()

    def test_adversary_changes_results(self):
        baseline = run_experiment(_adversarial_spec(None, name="plain"))
        perturbed = run_experiment(_adversarial_spec(ADVERSARY_GRID[0]))
        assert _comparable(perturbed.cells) != _comparable(baseline.cells)
        assert all(cell.mean_dropped_messages > 0 for cell in perturbed.cells)

    def test_task_keys_include_adversary(self):
        plain_keys = {t.key for t in expand_run_tasks(_adversarial_spec(None))}
        loss_keys = {
            t.key for t in expand_run_tasks(_adversarial_spec(ADVERSARY_GRID[0]))
        }
        assert plain_keys.isdisjoint(loss_keys)
        assert all("loss(p=0.1)" in key for key in loss_keys)

    def test_checkpointed_adversarial_sweep_matches(self, tmp_path):
        spec = _adversarial_spec(ADVERSARY_GRID[0])
        plain = run_experiment(spec)
        checkpointed = run_experiments(
            [spec],
            config=SweepConfig(workers=2, checkpoint=tmp_path / "sweep.json"),
        )[0]
        assert _comparable(checkpointed.cells) == _comparable(plain.cells)
        # Replaying from the checkpoint reproduces the same cells, fault
        # counters included.
        replayed = run_experiments(
            [spec],
            config=SweepConfig(checkpoint=tmp_path / "sweep.json"),
        )[0]
        assert _comparable(replayed.cells) == _comparable(plain.cells)

    def test_skew_sweep_bit_equivalent_across_all_backends(self, tmp_path):
        # The asynchrony adversary's full backend matrix in one place:
        # serial, pool (fork default), pool with the spawn start method,
        # and a 2-way sharded split merged and replayed — all cells
        # bit-identical (wall-clock aside).
        from repro.parallel import (
            manifest_path,
            merge_shard_checkpoints,
            run_experiments,
        )

        spec = _adversarial_spec(
            AdversarySpec.create("skew", p=0.4, max_skew=3),
            name="flooding-under-skew",
        )
        serial = run_experiment(spec)
        pooled = run_experiments([spec], config=SweepConfig(workers=2))[0]
        assert _comparable(pooled.cells) == _comparable(serial.cells)
        spawned = run_experiments(
            [spec],
            config=SweepConfig(workers=2, start_method="spawn"),
        )[0]
        assert _comparable(spawned.cells) == _comparable(serial.cells)

        checkpoint = tmp_path / "ck" / "sweep.json"
        for shard_index in (0, 1):
            run_experiments(
                [spec],
                config=SweepConfig(checkpoint=checkpoint, shard=(shard_index, 2)),
            )
        merge_shard_checkpoints(manifest_path(checkpoint), checkpoint)
        replayed = run_experiments([spec], config=SweepConfig(checkpoint=checkpoint))[0]
        assert _comparable(replayed.cells) == _comparable(serial.cells)

    def test_checkpoint_not_replayed_across_adversaries(self, tmp_path):
        checkpoint = tmp_path / "sweep.json"
        run_experiments(
            [_adversarial_spec(ADVERSARY_GRID[0])],
            config=SweepConfig(checkpoint=checkpoint),
        )
        direct = run_experiment(_adversarial_spec(ADVERSARY_GRID[1]))
        resumed = run_experiments(
            [_adversarial_spec(ADVERSARY_GRID[1])],
            config=SweepConfig(checkpoint=checkpoint),
        )[0]
        assert _comparable(resumed.cells) == _comparable(direct.cells)


# --------------------------------------------------------------------------- #
# safety under faults
# --------------------------------------------------------------------------- #

SAFETY_TOPOLOGIES = [
    cycle(8),
    star(8),
    grid_2d(3, 3),
    complete(6),
    hypercube(3),
    torus_2d(4, 4),
]


class TestSafetyUnderFaults:
    @pytest.mark.parametrize("p", [0.01, 0.02, 0.05])
    def test_irrevocable_never_elects_two_leaders_under_benign_loss(self, p):
        spec = AdversarySpec.create("loss", p=p)
        runs = [
            run_with_adversary(IRREVOCABLE, topology, seed, spec)
            for topology in SAFETY_TOPOLOGIES
            for seed in range(5)
        ]
        assert safety_violations(runs) == []
        summary = summarize_safety(runs)
        assert summary["safety_rate"] == 1.0
        assert summary["runs"] == len(SAFETY_TOPOLOGIES) * 5

    def test_safety_helpers_catch_split_elections(self):
        # Flooding max-ID is *not* safe under loss: with the pinned seed
        # below the largest candidate's announcements die and a second
        # candidate also keeps its flag up.  The helpers must report it.
        spec = AdversarySpec.create("loss", p=0.05)
        run = run_with_adversary(FLOODING, path(8), 3, spec)
        assert run.outcome.num_leaders == 2
        assert not run.outcome.safe
        summary = summarize_safety([run])
        assert summary["safe_runs"] == 0
        assert summary["violations"][0]["num_leaders"] == 2
        assert summary["violations"][0]["adversary"] == spec.as_dict()

    def test_safe_flag_on_outcomes(self):
        run = FLOODING(cycle(8), 0)
        assert run.outcome.safe
        assert summarize_safety([run])["safety_rate"] == 1.0


# --------------------------------------------------------------------------- #
# fault observability: metrics counters and trace events
# --------------------------------------------------------------------------- #


class TestFaultObservability:
    def test_dropped_and_delayed_in_metrics_dict(self):
        collector = MetricsCollector()
        collector.record_dropped(3)
        collector.record_delayed(2)
        snap = collector.snapshot()
        assert snap.dropped_messages == 3
        assert snap.delayed_messages == 2
        assert snap.as_dict()["dropped_messages"] == 3
        assert snap.as_dict()["delayed_messages"] == 2
        with pytest.raises(ValueError):
            collector.record_dropped(-1)

    def test_fault_counters_merge(self):
        a = MetricsCollector()
        a.record_dropped(1)
        b = MetricsCollector()
        b.record_dropped(2)
        b.record_delayed(5)
        a.merge(b)
        assert a.dropped_messages == 3
        assert a.delayed_messages == 5

    def test_metrics_roundtrip_defaults(self):
        # Records written before the fault counters existed load as zero.
        assert Metrics(rounds=1, messages=2, bits=3).dropped_messages == 0

    def test_drop_events_traced(self):
        trace = TraceRecorder()
        simulator = _chatter_simulator(
            cycle(8), adversary=MessageLossAdversary(p=0.5, seed=1), trace=trace
        )
        result = simulator.run(5)
        dropped = trace.of_kind("message-dropped")
        assert len(dropped) == result.metrics.dropped_messages
        assert all("receiver" in event.detail for event in dropped)

    def test_delay_events_traced(self):
        trace = TraceRecorder()
        simulator = _chatter_simulator(
            cycle(8), adversary=MessageDelayAdversary(p=0.5, max_delay=2, seed=1),
            trace=trace,
        )
        result = simulator.run(5)
        delayed = trace.of_kind("message-delayed")
        assert len(delayed) == result.metrics.delayed_messages
        assert all(event.detail["delay"] >= 1 for event in delayed)

    def test_churn_and_crash_events_traced(self):
        trace = TraceRecorder()
        _chatter_simulator(
            cycle(8),
            adversary=LinkChurnAdversary(p_down=0.5, p_up=0.5, seed=1),
            trace=trace,
        ).run(5)
        assert trace.of_kind("link-down")

        trace = TraceRecorder()
        _chatter_simulator(
            cycle(8), adversary=CrashStopAdversary(p=1.0, horizon=2, seed=1),
            trace=trace,
        ).run(5)
        assert len(trace.of_kind("node-crash")) == 8


# --------------------------------------------------------------------------- #
# effective topology views
# --------------------------------------------------------------------------- #


class TestEffectiveTopologyView:
    def test_full_view_matches_base(self):
        topology = torus_2d(4, 4)
        view = EffectiveTopologyView(topology)
        assert view.num_edges == topology.num_edges
        assert view.is_connected()
        assert view.neighbors(0) == topology.neighbors(0)

    def test_removing_edges_updates_degrees_and_connectivity(self):
        topology = cycle(6)
        view = EffectiveTopologyView(topology, [(0, 1), (3, 4)])
        assert view.num_edges == 4
        assert view.degree(0) == 1
        assert not view.is_connected()
        components = sorted(view.connected_components())
        assert components == [[0, 4, 5], [1, 2, 3]]

    def test_unknown_down_edge_rejected(self):
        from repro.core.errors import TopologyError

        with pytest.raises(TopologyError):
            EffectiveTopologyView(cycle(6), [(0, 3)])

    def test_as_topology_materialises_subgraph(self):
        view = EffectiveTopologyView(cycle(6), [(0, 1)])
        materialised = view.as_topology()
        assert materialised.num_edges == 5
        assert materialised.num_nodes == 6
        assert not materialised.has_edge(0, 1)

    def test_disconnected_base_reported_even_with_no_down_edges(self):
        snapshot = EffectiveTopologyView(cycle(6), [(0, 1), (3, 4)]).as_topology()
        assert not EffectiveTopologyView(snapshot).is_connected()


# --------------------------------------------------------------------------- #
# composed adversaries: loss + delay + churn (+ crash) in one run
# --------------------------------------------------------------------------- #


class TestComposedAdversary:
    def test_registered_and_created_via_spec(self):
        from repro.dynamics import ComposedAdversary

        assert "composed" in ADVERSARIES
        spec = AdversarySpec.create(
            "composed", models="loss+delay", **{"loss.p": 0.05}
        )
        adversary = make_adversary(spec, seed=3)
        assert isinstance(adversary, ComposedAdversary)
        assert [part.name for part in adversary.parts] == ["loss", "delay"]
        description = adversary.describe()
        assert description["models"] == "loss+delay"
        assert description["parts"][0]["p"] == 0.05

    def test_cli_spelling(self):
        from repro.dynamics import spec_from_cli

        spec = spec_from_cli(
            "composed:loss+delay", {"loss.p": 0.05, "delay.max_delay": 2}
        )
        assert spec.name == "composed"
        assert dict(spec.params)["models"] == "loss+delay"
        with pytest.raises(ConfigurationError, match="composed"):
            spec_from_cli("loss:delay", {})
        # Plain names still pass through unchanged.
        assert spec_from_cli("loss", {"p": 0.1}).name == "loss"

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="models"):
            AdversarySpec.create("composed")
        with pytest.raises(ConfigurationError, match="twice"):
            AdversarySpec.create("composed", models="loss+loss")
        with pytest.raises(ConfigurationError, match="cannot include"):
            AdversarySpec.create("composed", models="composed+loss")
        with pytest.raises(ConfigurationError, match="cannot include"):
            AdversarySpec.create("composed", models="gremlin")
        with pytest.raises(ConfigurationError, match="expected <model>.<param>"):
            AdversarySpec.create("composed", models="loss+delay", p=0.5)
        with pytest.raises(ConfigurationError, match="loss"):
            AdversarySpec.create("composed", models="loss", **{"loss.nope": 1})

    def test_composed_spec_helper(self):
        from repro.dynamics import composed_spec

        spec = composed_spec(
            AdversarySpec.create("loss", p=0.1),
            AdversarySpec.create("delay", p=0.2, max_delay=3),
        )
        assert spec == AdversarySpec.create(
            "composed",
            models="loss+delay",
            **{"loss.p": 0.1, "delay.p": 0.2, "delay.max_delay": 3},
        )
        with pytest.raises(ConfigurationError):
            composed_spec()

    def test_noop_parts_change_nothing(self):
        spec = AdversarySpec.create(
            "composed", models="loss+delay", **{"loss.p": 0.0, "delay.p": 0.0}
        )
        plain = FLOODING(cycle(8), 3)
        perturbed = run_with_adversary(FLOODING, cycle(8), 3, spec)
        assert perturbed.outcome.as_dict() == plain.outcome.as_dict()
        assert perturbed.metrics.dropped_messages == 0
        assert perturbed.metrics.delayed_messages == 0

    def test_all_parts_perturb(self):
        spec = AdversarySpec.create(
            "composed",
            models="loss+delay",
            **{"loss.p": 0.2, "delay.p": 0.3, "delay.max_delay": 2},
        )
        result = run_with_adversary(FLOODING, torus_2d(4, 4), 1, spec)
        assert result.metrics.dropped_messages > 0
        assert result.metrics.delayed_messages > 0

    def test_crash_part_deactivates_nodes(self):
        from repro.dynamics import make_adversary

        spec = AdversarySpec.create(
            "composed", models="loss+crash", **{"loss.p": 0.0, "crash.p": 1.0, "crash.horizon": 1}
        )
        adversary = make_adversary(spec, seed=0)
        simulator = _chatter_simulator(cycle(8), adversary=adversary)
        simulator.run(3)
        assert all(not adversary.node_active(2, node) for node in range(8))

    def test_rng_streams_are_separated_per_part(self):
        # The loss part of a composition must not replay the standalone
        # loss model's stream: otherwise composing adversaries would
        # correlate their schedules with single-model baselines.
        loss_alone = run_with_adversary(
            FLOODING, torus_2d(4, 4), 7, AdversarySpec.create("loss", p=0.3)
        )
        composed = run_with_adversary(
            FLOODING,
            torus_2d(4, 4),
            7,
            AdversarySpec.create(
                "composed", models="loss+delay", **{"loss.p": 0.3, "delay.p": 0.0}
            ),
        )
        assert (
            composed.metrics.dropped_messages != loss_alone.metrics.dropped_messages
            or composed.outcome.as_dict() != loss_alone.outcome.as_dict()
            or composed.metrics.messages != loss_alone.metrics.messages
        )

    def test_repeatable_and_token_stable(self):
        spec = AdversarySpec.create(
            "composed", models="loss+churn", **{"loss.p": 0.1, "churn.p_down": 0.05}
        )
        a = run_with_adversary(FLOODING, grid_2d(3, 3), 5, spec)
        b = run_with_adversary(FLOODING, grid_2d(3, 3), 5, spec)
        assert a.as_dict() == b.as_dict()
        assert "models='loss+churn'" in spec.token()
        # Parameter order never changes the token (and thus task keys).
        assert spec.token() == AdversarySpec.create(
            "composed", **{"churn.p_down": 0.05, "loss.p": 0.1}, models="loss+churn"
        ).token()

    def test_stormy_scenario_is_composed(self):
        ladder = dynamic_scenario("stormy")
        assert ladder[0] is None
        assert all(spec.name == "composed" for spec in ladder[1:])
        assert "stormy" in DYNAMIC_SCENARIOS

    def test_skewed_scenario_dials_up_link_coverage(self):
        ladder = dynamic_scenario("skewed")
        assert ladder[0] is None
        assert [spec.name for spec in ladder[1:]] == ["skew"] * 3
        coverages = [dict(spec.params)["p"] for spec in ladder[1:]]
        assert coverages == sorted(coverages)

    def test_asynchronous_scenario_composes_skew_with_jitter(self):
        ladder = dynamic_scenario("asynchronous")
        assert ladder[0] is None
        for rung in ladder[1:]:
            assert rung.name == "composed"
            assert "skew" in dict(rung.params)["models"]
            assert "delay" in dict(rung.params)["models"]


# --------------------------------------------------------------------------- #
# message conservation and delayed-message accounting
# --------------------------------------------------------------------------- #


class TestMessageConservationUnderFaults:
    """sent == delivered + dropped + pending, whatever the adversary does."""

    @pytest.mark.parametrize("adversary", ADVERSARY_GRID, ids=lambda s: s.token())
    def test_identity_on_every_adversarial_grid_entry(self, adversary):
        simulator = _chatter_simulator(
            torus_2d(4, 4), adversary=make_adversary(adversary, 7)
        )
        simulator.run(10)
        metrics = simulator.metrics
        assert metrics.sent_messages == (
            metrics.delivered_messages
            + metrics.dropped_messages
            + simulator.pending_delayed()
        )

    def test_pending_delayed_exposed_mid_run(self):
        adversary = MessageDelayAdversary(p=0.6, max_delay=5, seed=3)
        simulator = _chatter_simulator(torus_2d(4, 4), adversary=adversary)
        simulator.run(2)
        metrics = simulator.metrics
        assert simulator.pending_delayed() > 0
        assert metrics.sent_messages == (
            metrics.delivered_messages
            + metrics.dropped_messages
            + simulator.pending_delayed()
        )

    def test_delayed_messages_drain_across_run_calls(self):
        # Messages delayed past the end of one run() call must arrive in
        # the next, not leak: a single round-0 burst, delayed with
        # certainty, fully resolves once enough further rounds execute.
        class BurstNode(ProtocolNode):
            def step(self, round_index, inbox):
                if round_index == 0:
                    return {port: Ping() for port in self.ports()}
                return {}

        topology = cycle(8)
        nodes = build_nodes(topology, lambda i, p, rng: BurstNode(p, rng), seed=0)
        adversary = MessageDelayAdversary(p=1.0, max_delay=4, seed=5)
        simulator = SynchronousSimulator(topology, nodes, adversary=adversary)
        simulator.run(2)
        assert simulator.pending_delayed() > 0
        simulator.run(8)
        assert simulator.pending_delayed() == 0
        metrics = simulator.metrics
        assert metrics.sent_messages == 16
        assert metrics.delivered_messages + metrics.dropped_messages == 16

    def test_identity_under_composed_skew_delay(self):
        spec = AdversarySpec.create(
            "composed", models="skew+delay", **{"skew.p": 0.3, "delay.p": 0.2}
        )
        simulator = _chatter_simulator(
            torus_2d(4, 4), adversary=make_adversary(spec, 11)
        )
        simulator.run(6)
        metrics = simulator.metrics
        assert metrics.delayed_messages > 0
        assert metrics.sent_messages == (
            metrics.delivered_messages
            + metrics.dropped_messages
            + simulator.pending_delayed()
        )


# --------------------------------------------------------------------------- #
# crash-stop termination
# --------------------------------------------------------------------------- #


class TestCrashStopTermination:
    """A run whose every node crashed must stop, not spin to max_rounds."""

    def test_all_crashed_terminates_run_early(self):
        adversary = CrashStopAdversary(p=1.0, horizon=1, seed=3)
        result = _chatter_simulator(cycle(8), adversary=adversary).run(5)
        # Round 0 runs normally; round 1 executes the crashes (so their
        # fault events are recorded) and then the run terminates instead
        # of stepping a fully-dead network for three more rounds.
        assert result.rounds_executed == 2
        assert result.metrics.events["fault.node-crash"] == 8

    def test_no_crashes_still_runs_to_max_rounds(self):
        adversary = CrashStopAdversary(p=0.0, horizon=8, seed=3)
        result = _chatter_simulator(cycle(8), adversary=adversary).run(5)
        assert result.rounds_executed == 5

    def test_survivors_keep_the_run_alive(self):
        adversary = CrashStopAdversary(p=0.5, horizon=2, seed=21)
        result = _chatter_simulator(cycle(8), adversary=adversary).run(6)
        crashed = adversary.crashed_nodes(6)
        assert 0 < len(crashed) < 8
        assert result.rounds_executed == 6
