"""Tests for the first-class protocol API (:mod:`repro.protocols`).

The contract under test:

* the registry lists every election algorithm with a typed parameter
  schema, and configuration errors spell that schema out;
* :class:`ProtocolSpec` round-trips through its string form
  (``parse -> str -> parse`` is the identity) and coerces values to the
  schema's declared types, so equal configurations hash equal;
* specs and their runners are picklable (the parallel engine ships them
  to worker processes);
* a default-configuration spec runs bit-identically to
  :func:`run_protocol`, and parameter variants measurably change the run;
* the experiment layer keys tasks, cells and run stamps on one protocol
  token (empty for bare names, pinned by literal task keys), and exposes
  grid helpers (``param_grid``, the
  ``paper-constants`` ladder);
* the JSONL export sink streams one record per run, protocol token
  included, without retaining the runs.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.analysis import ExperimentSpec, JsonlSink, run_experiment
from repro.analysis.streaming import CollectingSink
from repro.core.errors import ConfigurationError
from repro.dynamics import AdversarySpec
from repro.graphs import cycle, grid_2d, star
from repro.parallel import SweepConfig, expand_run_tasks, run_experiments
from repro.protocols import (
    PROTOCOLS,
    ParamSpec,
    ProtocolRunner,
    ProtocolSpec,
    describe_protocols,
    protocol_by_name,
    protocol_runner,
    register_protocol,
    run_protocol,
)
from repro.workloads import PROTOCOL_SCENARIOS, param_grid, protocol_scenario, sweep_specs


#: Task-key tail of seed 3 on ``cycle(6)`` after the spec-name segment,
#: written down before bare names stopped taking a separate code path:
#: checkpoints and archives written before then must keep hitting.
PINNED_KEY_TAIL = "|0|cycle(n=6)|6006737bec0f0c44|0|3|"


def _flooding_c3(topology, seed):
    """A registered protocol that wraps a built-in one."""
    return run_protocol("flooding", topology, seed, c=3.0)


# --------------------------------------------------------------------------- #
# registry and schemas
# --------------------------------------------------------------------------- #


class TestRegistry:
    def test_all_algorithms_registered(self):
        assert {"irrevocable", "revocable", "flooding", "gilbert", "uniform"} <= set(
            PROTOCOLS
        )

    def test_describe_lists_every_protocol_with_schema(self):
        rows = {row["protocol"]: row for row in describe_protocols()}
        assert set(rows) == set(PROTOCOLS)
        assert "c (float, default 2.0)" in rows["irrevocable"]["parameters"]
        assert "x_multiplier (float, default 2.0)" in rows["irrevocable"]["parameters"]
        assert "epsilon (float, default 0.5)" in rows["revocable"]["parameters"]
        assert "extra_estimates (int, default 0)" in rows["revocable"]["parameters"]
        assert rows["uniform"]["parameters"] == "(no parameters)"

    def test_unknown_protocol_lists_available(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            protocol_by_name("gossip")

    def test_register_rejects_reserved_characters(self):
        for name in ("a:b", "a|b", "a,b", "a=b", ""):
            with pytest.raises(ConfigurationError):
                register_protocol(name, lambda topology, seed: None)

    def test_param_default_coerced_to_declared_type(self):
        spec = ParamSpec("c", float, 2)  # int default on a float param
        assert spec.default == 2.0 and isinstance(spec.default, float)
        assert spec.describe() == "c (float, default 2.0)"
        with pytest.raises(ConfigurationError, match="bad default"):
            ParamSpec("c", float, "lots")

    def test_param_names_reject_reserved_characters(self):
        for name in ("a,b", "a|b", "a:b", "a=b", ""):
            with pytest.raises(ConfigurationError):
                ParamSpec(name, int, 0)

    def test_register_rejects_schema_factory_default_drift(self):
        def factory(topology, seed, *, c: float = 2.5):
            return None

        with pytest.raises(ConfigurationError, match="does not match"):
            register_protocol(
                "drift-test", factory, params=(ParamSpec("c", float, 2.0),)
            )
        assert "drift-test" not in PROTOCOLS

    def test_register_rejects_schema_param_factory_lacks(self):
        def factory(topology, seed):
            return None

        with pytest.raises(ConfigurationError, match="does not accept"):
            register_protocol(
                "orphan-param-test", factory, params=(ParamSpec("c", float, 2.0),)
            )
        assert "orphan-param-test" not in PROTOCOLS

    def test_register_rejects_duplicates_without_replace(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_protocol("flooding", lambda topology, seed: None)

    def test_register_and_replace_custom_protocol(self):
        def factory(topology, seed, *, c: float = 1.0):
            return run_protocol("flooding", topology, seed, c=c)

        def retuned_factory(topology, seed, *, c: float = 3.0):
            return run_protocol("flooding", topology, seed, c=c)

        try:
            register_protocol(
                "custom-test", factory, params=(ParamSpec("c", float, 1.0),)
            )
            spec = ProtocolSpec.parse("custom-test:c=2")
            assert spec.params == (("c", 2.0),)
            register_protocol(
                "custom-test",
                retuned_factory,
                params=(ParamSpec("c", float, 3.0),),
                replace=True,
            )
            assert protocol_by_name("custom-test").schema.param("c").default == 3.0
        finally:
            PROTOCOLS.pop("custom-test", None)


class TestSchemaValidation:
    def test_unknown_parameter_spells_out_schema(self):
        with pytest.raises(ConfigurationError) as excinfo:
            ProtocolSpec.create("irrevocable", phase_budget=3)
        message = str(excinfo.value)
        assert "irrevocable accepts: c (float, default 2.0)" in message
        assert "x_multiplier (float, default 2.0)" in message

    def test_bad_value_spells_out_schema(self):
        with pytest.raises(ConfigurationError) as excinfo:
            ProtocolSpec.parse("irrevocable:c=lots")
        assert "irrevocable accepts:" in str(excinfo.value)

    def test_int_parameter_rejects_fractional(self):
        with pytest.raises(ConfigurationError, match="extra_estimates"):
            ProtocolSpec.create("revocable", extra_estimates=1.5)

    def test_int_parameter_accepts_integral_float(self):
        spec = ProtocolSpec.create("revocable", extra_estimates=2.0)
        assert spec.params == (("extra_estimates", 2),)

    def test_bool_parameter_spellings(self):
        for raw, expected in (
            ("true", True),
            ("False", False),
            ("YES", True),
            ("0", False),
        ):
            spec = ProtocolSpec.parse(f"flooding:all_nodes_compete={raw}")
            assert spec.params == (("all_nodes_compete", expected),)

    def test_bool_parameter_rejects_nonsense(self):
        with pytest.raises(ConfigurationError, match="all_nodes_compete"):
            ProtocolSpec.parse("flooding:all_nodes_compete=maybe")

    def test_float_parameter_rejects_bool(self):
        with pytest.raises(ConfigurationError, match="parameter 'c'"):
            ProtocolSpec.create("gilbert", c=True)

    @pytest.mark.parametrize(
        "text",
        [
            "revocable:epsilon=0",
            "revocable:epsilon=1.5",
            "revocable:xi=1",
            "revocable:extra_estimates=-1",
            "irrevocable:c=0",
            "irrevocable:x_multiplier=-2",
            "flooding:c=0",
        ],
    )
    def test_out_of_range_values_fail_at_construction(self, text):
        # Range checks fire at grid construction (with the schema spelled
        # out), not inside a worker process mid-sweep.
        with pytest.raises(ConfigurationError, match="accepts"):
            ProtocolSpec.parse(text)

    def test_check_rejects_bad_default_at_registration(self):
        from repro.protocols import ProtocolSchema
        from repro.protocols.schema import check_positive

        with pytest.raises(ConfigurationError, match="bad default"):
            ParamSpec("c", float, 0.0, check=check_positive)


# --------------------------------------------------------------------------- #
# spec string round-trips
# --------------------------------------------------------------------------- #


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "uniform",
            "irrevocable",
            "irrevocable:c=3,x_multiplier=1.5",
            "revocable:epsilon=0.25,extra_estimates=1",
            "revocable:xi=0.05",
            "flooding:all_nodes_compete=True,c=2.5",
            "gilbert:c=4.0",
        ],
    )
    def test_parse_str_parse_identity(self, text):
        spec = ProtocolSpec.parse(text)
        assert ProtocolSpec.parse(str(spec)) == spec
        # And the rendered form is a fixed point of the round-trip.
        assert str(ProtocolSpec.parse(str(spec))) == str(spec)

    def test_coercion_normalises_spellings(self):
        assert ProtocolSpec.parse("irrevocable:c=3") == ProtocolSpec.parse(
            "irrevocable:c=3.0"
        )
        assert ProtocolSpec.parse("irrevocable:c=3") == ProtocolSpec.create(
            "irrevocable", c=3
        )

    def test_token_is_stable_under_keyword_order(self):
        a = ProtocolSpec.create("irrevocable", c=3.0, x_multiplier=1.5)
        b = ProtocolSpec.create("irrevocable", x_multiplier=1.5, c=3.0)
        assert a == b
        assert a.token() == b.token() == "irrevocable:c=3.0,x_multiplier=1.5"
        assert hash(a) == hash(b)

    def test_bare_name_has_bare_token(self):
        assert ProtocolSpec.parse("uniform").token() == "uniform"

    def test_parse_rejects_malformed_params(self):
        for text in ("irrevocable:", "irrevocable:c", "irrevocable:=3",
                     "irrevocable:c=2,c=3"):
            with pytest.raises(ConfigurationError):
                ProtocolSpec.parse(text)

    def test_parse_rejects_unknown_protocol(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            ProtocolSpec.parse("gossip:fanout=3")

    def test_as_dict(self):
        spec = ProtocolSpec.parse("irrevocable:c=3")
        assert spec.as_dict() == {"name": "irrevocable", "params": {"c": 3.0}}


# --------------------------------------------------------------------------- #
# pickling (the parallel engine ships specs to workers)
# --------------------------------------------------------------------------- #


class TestPickling:
    def test_spec_pickles(self):
        spec = ProtocolSpec.parse("irrevocable:c=3,x_multiplier=1.5")
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_runner_pickles_and_runs(self):
        runner = protocol_runner("flooding:c=2.5")
        restored = pickle.loads(pickle.dumps(runner))
        assert restored.spec == runner.spec
        result = restored(cycle(8), 3)
        assert result.parameters["protocol"] == "flooding:c=2.5"

    def test_custom_protocol_survives_spawn_workers(self):
        # The runner carries its registry entry (factory pickled by
        # reference), so a spawn worker — a fresh interpreter that never
        # ran the parent's register_protocol — can still execute it.
        from repro.parallel import run_experiments
        from repro.protocols.registry import _flooding_factory

        try:
            register_protocol(
                "spawn-custom",
                _flooding_factory,
                params=(
                    ParamSpec("c", float, 2.0),
                    ParamSpec("all_nodes_compete", bool, False),
                ),
            )
            specs = sweep_specs(
                ["spawn-custom:c=3"], [cycle(8)], seeds=(0, 1), collect_profile=False
            )
            result = run_experiments(
                specs,
                config=SweepConfig(workers=2, start_method="spawn"),
            )[0]
            assert result.cells[0].runs == 2
            assert result.cells[0].protocol == "spawn-custom:c=3.0"
        finally:
            PROTOCOLS.pop("spawn-custom", None)

    def test_experiment_spec_with_protocol_pickles(self):
        spec = ExperimentSpec(
            name="grid",
            protocol=ProtocolSpec.parse("irrevocable:c=3"),
            topologies=[cycle(6)],
            seeds=(0,),
            collect_profile=False,
        )
        restored = pickle.loads(pickle.dumps(spec))
        assert restored.protocol == spec.protocol


# --------------------------------------------------------------------------- #
# execution semantics
# --------------------------------------------------------------------------- #


class TestExecution:
    def test_default_spec_matches_run_protocol(self):
        topology = cycle(9)
        via_spec = protocol_runner("irrevocable")(topology, 5)
        via_registry = run_protocol("irrevocable", topology, 5)
        assert via_spec.messages == via_registry.messages
        assert via_spec.rounds_executed == via_registry.rounds_executed
        assert via_spec.outcome.as_dict() == via_registry.outcome.as_dict()

    def test_parameters_change_the_run(self):
        topology = cycle(9)
        cheap = run_protocol("irrevocable", topology, 5, c=1.5)
        costly = run_protocol("irrevocable", topology, 5, c=4.0)
        assert costly.rounds_executed > cheap.rounds_executed

    def test_revocable_extra_estimates_lengthens_run(self):
        topology = cycle(5)
        base = run_protocol("revocable", topology, 1)
        extended = run_protocol("revocable", topology, 1, extra_estimates=1)
        assert extended.rounds_executed > base.rounds_executed

    def test_run_protocol_validates_params(self):
        with pytest.raises(ConfigurationError, match="accepts"):
            run_protocol("gilbert", cycle(5), 0, fanout=3)

    def test_runner_records_protocol_token(self):
        result = protocol_runner("irrevocable:c=3")(cycle(6), 0)
        assert result.parameters["protocol"] == "irrevocable:c=3.0"


# --------------------------------------------------------------------------- #
# experiment integration
# --------------------------------------------------------------------------- #


class TestExperimentIntegration:
    def test_spec_requires_a_protocol(self):
        with pytest.raises(TypeError, match="protocol"):
            ExperimentSpec(name="x", topologies=[cycle(5)])

    def test_spec_parses_protocol_strings(self):
        spec = ExperimentSpec(
            name="x", protocol="irrevocable:c=3", topologies=[cycle(5)]
        )
        assert spec.protocol == ProtocolSpec.create("irrevocable", c=3.0)
        assert spec.protocol_token() == "irrevocable:c=3.0"

    def test_cells_carry_the_protocol_token(self):
        spec = ExperimentSpec(
            name="x",
            protocol="irrevocable:c=3",
            topologies=[cycle(6)],
            seeds=(0, 1),
            collect_profile=False,
        )
        result = run_experiment(spec)
        assert [cell.protocol for cell in result.cells] == ["irrevocable:c=3.0"]
        assert result.cells[0].as_dict()["protocol"] == "irrevocable:c=3.0"

    def test_bare_name_cells_have_empty_protocol_column(self):
        spec = ExperimentSpec(
            name="irrevocable",
            protocol="irrevocable",
            topologies=[cycle(6)],
            seeds=(0,),
            collect_profile=False,
        )
        result = run_experiment(spec)
        assert result.cells[0].protocol == ""

    def test_variants_produce_distinct_cells(self):
        specs = sweep_specs(
            ["irrevocable:c=2", "irrevocable:c=3"],
            [cycle(6)],
            seeds=(0,),
            collect_profile=False,
        )
        assert [spec.name for spec in specs] == [
            "irrevocable:c=2.0",
            "irrevocable:c=3.0",
        ]
        results = [run_experiment(spec) for spec in specs]
        rounds = {result.cells[0].mean_rounds for result in results}
        assert len(rounds) == 2

    def test_sweep_specs_accepts_spec_objects_and_adversary(self):
        from repro.dynamics import AdversarySpec

        adversary = AdversarySpec.create("loss", p=0.05)
        specs = sweep_specs(
            param_grid("flooding", c=[2.0, 3.0]),
            [cycle(6)],
            seeds=(0,),
            adversary=adversary,
        )
        assert [spec.name for spec in specs] == [
            "flooding:c=2.0@loss(p=0.05)",
            "flooding:c=3.0@loss(p=0.05)",
        ]
        assert all(spec.adversary == adversary for spec in specs)

    @pytest.mark.parametrize(
        "name", ["flooding", "gilbert", "irrevocable", "revocable", "uniform"]
    )
    def test_legacy_names_keep_legacy_task_keys(self, name):
        spec = sweep_specs([name], [cycle(6)], seeds=(3,), collect_profile=False)[0]
        task = expand_run_tasks(spec)[0]
        assert task.protocol == ""
        assert task.key == name + PINNED_KEY_TAIL  # the pre-protocol 7-field format

    @pytest.mark.parametrize(
        "name, protocol, adversary, key",
        [
            # A bare name under an adversary, as robustness sweeps name it.
            (
                "flooding@loss(p=0.1)",
                "flooding",
                AdversarySpec.create("loss", p=0.1),
                "flooding@loss(p=0.1)" + PINNED_KEY_TAIL + "loss(p=0.1)",
            ),
            # An explicit default spec shares the bare-name key; its keys
            # ending in "|flooding" are misses (re-simulated), never hits.
            ("flooding", "flooding", None, "flooding" + PINNED_KEY_TAIL),
            # Another spec name, or parameters, keep the protocol segment,
            # so two protocols under one spec name never share keys.
            ("x", "flooding", None, "x" + PINNED_KEY_TAIL + "|flooding"),
            (
                "flooding",
                "flooding:c=3",
                None,
                "flooding" + PINNED_KEY_TAIL + "|flooding:c=3.0",
            ),
        ],
    )
    def test_task_key_rule(self, name, protocol, adversary, key):
        spec = ExperimentSpec(
            name=name,
            protocol=protocol,
            topologies=[cycle(6)],
            seeds=(3,),
            adversary=adversary,
        )
        assert expand_run_tasks(spec)[0].key == key

    @pytest.mark.parametrize("name, stamp", [("flooding", None), ("x", "flooding")])
    def test_run_stamp_is_the_task_key_token(self, name, stamp):
        spec = ExperimentSpec(
            name=name,
            protocol="flooding",
            topologies=[cycle(6)],
            seeds=(3,),
            collect_profile=False,
        )
        sink = CollectingSink()
        result = run_experiment(spec, sinks=[sink])
        run = sink.results_for(name, 0)[0]
        assert run.parameters.get("protocol") == stamp
        assert ("protocol" in run.parameters) == (stamp is not None)
        assert result.cells[0].protocol == (stamp or "")

    def test_variant_task_keys_carry_the_token(self):
        spec = sweep_specs(["flooding:c=3"], [cycle(6)], seeds=(0,))[0]
        task = expand_run_tasks(spec)[0]
        assert task.protocol == "flooding:c=3.0"
        assert task.key.endswith("|flooding:c=3.0")

    def test_custom_protocol_sweeps_by_bare_name(self):
        def factory(topology, seed):
            return run_protocol("flooding", topology, seed, c=3.0)

        try:
            register_protocol("custom-sweep-test", factory)
            specs = sweep_specs(
                ["custom-sweep-test"], [cycle(6)], seeds=(0,), collect_profile=False
            )
            assert specs[0].protocol == ProtocolSpec.create("custom-sweep-test")
            result = run_experiment(specs[0])
            assert result.cells[0].runs == 1
        finally:
            PROTOCOLS.pop("custom-sweep-test", None)

    def test_custom_bare_name_keeps_its_protocol_segment(self, register_fake_protocol):
        # Only the five built-ins predate protocol specs; a registered
        # protocol swept by its bare name names itself in its task keys,
        # its cells and its runs, exactly as before bare names stopped
        # taking a separate code path.
        register_fake_protocol("custom-sweep-test", _flooding_c3)
        spec = sweep_specs(
            ["custom-sweep-test"], [cycle(6)], seeds=(3,), collect_profile=False
        )[0]
        assert (
            expand_run_tasks(spec)[0].key
            == "custom-sweep-test" + PINNED_KEY_TAIL + "|custom-sweep-test"
        )
        sink = CollectingSink()
        result = run_experiment(spec, sinks=[sink])
        run = sink.results_for("custom-sweep-test", 0)[0]
        assert run.algorithm == "flooding-max-id"
        assert run.parameters["protocol"] == "custom-sweep-test"
        assert result.cells[0].protocol == "custom-sweep-test"

    def test_unknown_bare_name_reports_protocol_registry(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            sweep_specs(["gossip"], [cycle(6)], seeds=(0,))

    def test_equivalent_spellings_rejected_with_originals_quoted(self):
        with pytest.raises(ConfigurationError) as excinfo:
            sweep_specs(["flooding:c=2", "flooding:c=2.00"], [cycle(6)], seeds=(0,))
        message = str(excinfo.value)
        assert "'flooding:c=2'" in message and "'flooding:c=2.00'" in message

    def test_bare_name_vs_explicit_default_rejected(self):
        # "flooding" (bare name) and "flooding:c=2.0" (explicit default) run
        # the identical configuration; sweeping both is a duplicated cell.
        with pytest.raises(ConfigurationError, match="same configuration"):
            sweep_specs(["flooding", "flooding:c=2.0"], [cycle(6)], seeds=(0,))

    def test_canonical_fills_defaults(self):
        assert (
            ProtocolSpec.parse("flooding:c=2.0").canonical()
            == ProtocolSpec.parse("flooding").canonical()
            == "flooding:all_nodes_compete=False,c=2.0"
        )
        assert ProtocolSpec.parse("uniform").canonical() == "uniform"
        assert (
            ProtocolSpec.parse("flooding:c=3").canonical()
            != ProtocolSpec.parse("flooding").canonical()
        )


# --------------------------------------------------------------------------- #
# workload helpers
# --------------------------------------------------------------------------- #


class TestParamGrid:
    def test_single_axis(self):
        grid = param_grid("irrevocable", c=[1.5, 2.0, 3.0])
        assert [str(spec) for spec in grid] == [
            "irrevocable:c=1.5",
            "irrevocable:c=2.0",
            "irrevocable:c=3.0",
        ]

    def test_cross_product_with_pinned_scalar(self):
        grid = param_grid("irrevocable", c=[2.0, 3.0], x_multiplier=1.5)
        assert [str(spec) for spec in grid] == [
            "irrevocable:c=2.0,x_multiplier=1.5",
            "irrevocable:c=3.0,x_multiplier=1.5",
        ]

    def test_no_axes_yields_default_variant(self):
        assert param_grid("uniform") == [ProtocolSpec.create("uniform")]

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="must not be empty"):
            param_grid("irrevocable", c=[])

    def test_axis_values_validated(self):
        with pytest.raises(ConfigurationError, match="accepts"):
            param_grid("irrevocable", phase_budget=[1, 2])

    def test_paper_constants_scenario(self):
        ladder = protocol_scenario("paper-constants")
        assert ladder[0] == ProtocolSpec.create("irrevocable")
        tokens = [spec.token() for spec in ladder]
        assert len(set(tokens)) == len(tokens)
        assert "irrevocable:c=1.5" in tokens
        assert any("x_multiplier" in token for token in tokens)
        assert "paper-constants" in PROTOCOL_SCENARIOS

    def test_unknown_protocol_scenario(self):
        with pytest.raises(ConfigurationError, match="unknown protocol scenario"):
            protocol_scenario("nope")


# --------------------------------------------------------------------------- #
# JSONL export sink
# --------------------------------------------------------------------------- #


class TestJsonlSink:
    @pytest.fixture(autouse=True)
    def _fragile_protocol(self, register_fake_protocol):
        register_fake_protocol("fragile", _fail_on_seed_two)

    def _sweep(self, tmp_path, config=None):
        path = tmp_path / "runs.jsonl"
        spec = ExperimentSpec(
            name="grid",
            protocol="irrevocable:c=3",
            topologies=[cycle(6), star(6)],
            seeds=(0, 1),
            collect_profile=False,
        )
        sinks = [JsonlSink(path)]
        if config is None:
            result = run_experiment(spec, sinks=sinks)
        else:
            result = run_experiments([spec], config=config, sinks=sinks)[0]
        return path, result

    def test_streams_one_record_per_run(self, tmp_path):
        path, result = self._sweep(tmp_path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 4
        assert {record["protocol"] for record in records} == {"irrevocable:c=3.0"}
        assert {record["experiment"] for record in records} == {"grid"}
        assert all("messages" in record and "rounds" in record for record in records)

    def test_records_match_cell_aggregates(self, tmp_path):
        path, result = self._sweep(tmp_path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for topology_index, cell in enumerate(result.cells):
            mine = [r for r in records if r["topology_index"] == topology_index]
            assert sum(r["messages"] for r in mine) == pytest.approx(
                cell.mean_messages * cell.runs
            )

    def test_parallel_backend_writes_same_records(self, tmp_path):
        serial_path, _ = self._sweep(tmp_path / "serial")
        parallel_path, _ = self._sweep(
            tmp_path / "parallel", config=SweepConfig(workers=2)
        )

        def stable(path):
            records = [json.loads(line) for line in path.read_text().splitlines()]
            for record in records:
                record.pop("wall_clock_seconds")
            return sorted(records, key=lambda r: (r["topology_index"], r["seed_index"]))

        assert stable(serial_path) == stable(parallel_path)

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deeply" / "nested" / "runs.jsonl"
        spec = ExperimentSpec(
            name="x",
            protocol="irrevocable",
            topologies=[cycle(5)],
            seeds=(0,),
            collect_profile=False,
        )
        run_experiment(spec, sinks=[JsonlSink(path)])
        assert path.exists()

    def test_legacy_runs_have_empty_protocol_field(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        spec = ExperimentSpec(
            name="irrevocable",
            protocol="irrevocable",
            topologies=[cycle(5)],
            seeds=(0,),
            collect_profile=False,
        )
        run_experiment(spec, sinks=[JsonlSink(path)])
        record = json.loads(path.read_text().splitlines()[0])
        assert record["protocol"] == ""

    def test_close_without_emits_creates_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        sink = JsonlSink(path)
        sink.close()  # e.g. an empty shard slice: evidence the job ran
        assert path.exists() and path.read_text() == ""

    def test_abort_before_any_emit_touches_nothing(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"previous": "export"}\n')
        sink = JsonlSink(path)
        sink.abort()  # the drivers' failure path, reached before any emit
        assert path.read_text() == '{"previous": "export"}\n'
        assert not path.with_name(path.name + ".partial").exists()

    def test_success_inside_foreign_exception_handler_still_publishes(self, tmp_path):
        # The publish decision is explicit driver state, not ambient
        # sys.exc_info(): a sweep run from inside an unrelated except
        # block must still publish its export.
        path = tmp_path / "runs.jsonl"
        spec = ExperimentSpec(
            name="x",
            protocol="irrevocable",
            topologies=[cycle(5)],
            seeds=(0,),
            collect_profile=False,
        )
        try:
            raise RuntimeError("unrelated in-flight exception")
        except RuntimeError:
            run_experiment(spec, sinks=[JsonlSink(path)])
        assert len(path.read_text().splitlines()) == 1

    def test_crash_before_first_run_leaves_no_empty_marker(self, tmp_path):
        # An empty .jsonl is the "shard job completed with zero local
        # runs" signal; a sweep that dies before its first run must not
        # forge it.
        path = tmp_path / "runs.jsonl"
        spec = ExperimentSpec(
            name="dies-immediately",
            protocol="fragile",
            topologies=[cycle(8)],
            seeds=(2,),
            collect_profile=False,
        )
        with pytest.raises(ValueError):
            run_experiment(spec, sinks=[JsonlSink(path)])
        assert not path.exists()

    def test_shared_sink_accumulates_across_driver_calls(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        sink = JsonlSink(path)
        specs = sweep_specs(
            ["flooding:c=2", "flooding:c=3"],
            [cycle(6), star(6)],
            seeds=(0,),
            collect_profile=False,
        )
        for spec in specs:
            run_experiment(spec, sinks=[sink])
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 4  # both calls' records, not just the last
        assert {r["protocol"] for r in records} == {
            "flooding:c=2.0",
            "flooding:c=3.0",
        }

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        sink = JsonlSink(path)
        spec = ExperimentSpec(
            name="x",
            protocol="irrevocable",
            topologies=[cycle(5)],
            seeds=(0,),
            collect_profile=False,
        )
        run_experiment(spec, sinks=[sink])  # the driver closes the sink
        sink.close()  # a defensive caller-side close must not truncate
        assert len(path.read_text().splitlines()) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_completed_records_flushed_when_a_run_fails(self, tmp_path, workers):
        from repro.parallel import TaskExecutionError

        path = tmp_path / "runs.jsonl"
        spec = ExperimentSpec(
            name="fragile",
            protocol="fragile",
            topologies=[cycle(8)],
            seeds=(0, 1, 2),
            collect_profile=False,
        )
        with pytest.raises((TaskExecutionError, ValueError)):
            run_experiments(
                [spec],
                config=SweepConfig(workers=workers),
                sinks=[JsonlSink(path)],
            )
        # The sink was closed on the failure path: the completed runs'
        # records reached the .partial staging file intact, while the
        # export path itself was not published (the sweep is incomplete).
        assert not path.exists()
        staging = path.with_name(path.name + ".partial")
        records = [json.loads(line) for line in staging.read_text().splitlines()]
        assert len(records) >= 1
        assert all(record["experiment"] == "fragile" for record in records)

    def test_custom_sink_close_not_called_on_failure(self):
        from repro.analysis.streaming import ResultSink

        class PublishingSink(ResultSink):
            closed = False

            def close(self):
                self.closed = True

        sink = PublishingSink()
        spec = ExperimentSpec(
            name="fragile",
            protocol="fragile",
            topologies=[cycle(8)],
            seeds=(0, 2),
            collect_profile=False,
        )
        with pytest.raises(ValueError):
            run_experiment(spec, sinks=[sink])
        # close() still means "the sweep completed": a custom sink that
        # publishes on close must not be handed an incomplete sweep.
        assert not sink.closed

    def test_duck_typed_sink_without_abort_survives_failure(self):
        class LegacySink:  # emit/close contract, no ResultSink subclassing
            def emit(self, *args):
                pass

            def close(self):
                pass

        spec = ExperimentSpec(
            name="fragile",
            protocol="fragile",
            topologies=[cycle(8)],
            seeds=(2,),
            collect_profile=False,
        )
        # The original failure must propagate, not AttributeError('abort').
        with pytest.raises(ValueError, match="boom"):
            run_experiment(spec, sinks=[LegacySink()])

    def test_crashed_rerun_preserves_previous_complete_export(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        good = ExperimentSpec(
            name="fragile",
            protocol="fragile",
            topologies=[cycle(8)],
            seeds=(0, 1),
            collect_profile=False,
        )
        run_experiment(good, sinks=[JsonlSink(path)])
        complete = path.read_text()
        assert len(complete.splitlines()) == 2
        bad = ExperimentSpec(
            name="fragile",
            protocol="fragile",
            topologies=[cycle(8)],
            seeds=(0, 1, 2),
            collect_profile=False,
        )
        with pytest.raises(ValueError):
            run_experiment(bad, sinks=[JsonlSink(path)])
        # The rerun crashed mid-grid: the previous complete export stands,
        # the crashed attempt's records sit in the staging file.
        assert path.read_text() == complete
        staging = path.with_name(path.name + ".partial")
        assert len(staging.read_text().splitlines()) == 2


def _fail_on_seed_two(topology, seed):
    """Picklable protocol factory dying on one grid point (sink-flush tests)."""
    if seed == 2:
        raise ValueError("boom")
    return run_protocol("flooding", topology, seed)


# --------------------------------------------------------------------------- #
# CLI integration
# --------------------------------------------------------------------------- #


class TestCli:
    def test_protocols_subcommand_lists_everything(self, capsys):
        from repro.cli import main

        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        for name in PROTOCOLS:
            assert name in out
        assert "c (float, default 2.0)" in out

    def test_elect_with_parameters(self, capsys):
        from repro.cli import main

        code = main(
            [
                "elect",
                "--algorithm",
                "irrevocable:c=3,x_multiplier=1.5",
                "--topology",
                "cycle:10",
                "--seed",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "irrevocable:c=3.0,x_multiplier=1.5" in out

    def test_elect_unknown_parameter_reports_schema(self, capsys):
        from repro.cli import main

        code = main(
            ["elect", "--algorithm", "irrevocable:budget=3", "--topology", "cycle:8"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "irrevocable accepts: c (float, default 2.0)" in err

    def test_elect_unknown_algorithm_reports_registry(self, capsys):
        from repro.cli import main

        code = main(["elect", "--algorithm", "gossip", "--topology", "cycle:8"])
        assert code == 2
        assert "unknown protocol" in capsys.readouterr().err

    def test_sweep_parameter_variants_produce_distinct_rows(self, capsys):
        from repro.cli import main

        code = main(
            [
                "sweep",
                "--suite",
                "tiny",
                "--algorithms",
                "flooding:c=2",
                "flooding:c=3",
                "--seeds",
                "2",
                "--no-profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "flooding:c=2.0" in out
        assert "flooding:c=3.0" in out

    def test_sweep_jsonl_export(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "runs.jsonl"
        code = main(
            [
                "sweep",
                "--suite",
                "tiny",
                "--algorithms",
                "flooding:c=3",
                "--seeds",
                "2",
                "--no-profile",
                "--jsonl",
                str(path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 10  # 5 tiny-suite topologies x 2 seeds
        assert {record["protocol"] for record in records} == {"flooding:c=3.0"}

    def test_sharded_sweep_writes_per_shard_jsonl(self, capsys, tmp_path):
        from repro.cli import main

        base = [
            "sweep",
            "--suite",
            "tiny",
            "--algorithms",
            "flooding:c=3",
            "--seeds",
            "2",
            "--no-profile",
            "--checkpoint",
            str(tmp_path / "ck.json"),
            "--jsonl",
            str(tmp_path / "out.jsonl"),
        ]
        assert main(base + ["--shard", "0/2"]) == 0
        assert main(base + ["--shard", "1/2"]) == 0
        capsys.readouterr()
        shard0 = (tmp_path / "out.shard0of2.jsonl").read_text().splitlines()
        shard1 = (tmp_path / "out.shard1of2.jsonl").read_text().splitlines()
        assert len(shard0) + len(shard1) == 10  # 5 topologies x 2 seeds
        assert not (tmp_path / "out.jsonl").exists()

    def test_sweep_protocol_scenario(self, capsys):
        from repro.cli import main

        code = main(
            [
                "sweep",
                "--suite",
                "tiny",
                "--seeds",
                "1",
                "--no-profile",
                "--scenario",
                "paper-constants",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "irrevocable:c=1.5" in out
        assert "irrevocable:c=3.0" in out

    def test_sweep_protocol_scenario_rejects_explicit_algorithms(self, capsys):
        from repro.cli import main

        code = main(
            [
                "sweep",
                "--suite",
                "tiny",
                "--algorithms",
                "gilbert",
                "--scenario",
                "paper-constants",
                "--seeds",
                "1",
                "--no-profile",
            ]
        )
        assert code == 2
        assert "fixes the algorithm list" in capsys.readouterr().err

    def test_sweep_unknown_scenario_lists_both_registries(self, capsys):
        from repro.cli import main

        code = main(
            [
                "sweep",
                "--suite",
                "tiny",
                "--algorithms",
                "flooding",
                "--scenario",
                "nope",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "lossy" in err and "paper-constants" in err
