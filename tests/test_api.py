"""Tests for the ``repro.api`` facade, deprecations, and CLI exit codes.

Covers the redesigned entry points (``run`` / ``sweep`` / ``query`` /
``plan_sweep`` / ``SweepConfig``), warning-free built-in sweeps,
and the 0/1/2 exit-code contract shared by ``merge`` / ``stats`` /
``archive stats`` (0 clean, 1 findings/partial, 2 usage or error).
"""

from __future__ import annotations

import inspect
import warnings

import pytest

from repro import api
from repro.cli import main
from repro.core.errors import ConfigurationError
from repro.graphs import cycle, path
from repro.parallel.checkpoint import manifest_path
from repro.parallel.runner import run_experiments
from repro.workloads import sweep_specs


def strip_wall_clock(results):
    return [
        [
            {
                key: value
                for key, value in cell.as_dict().items()
                if key != "mean_wall_clock_seconds"
            }
            for cell in result.cells
        ]
        for result in results
    ]


# --------------------------------------------------------------------------- #
# SweepConfig
# --------------------------------------------------------------------------- #


class TestSweepConfig:
    def test_runner_kwargs_cover_run_experiments_signature(self):
        # drift guard: every run_experiments knob except the per-call ones
        # (specs, sinks) flows through the config object — a new runner
        # kwarg must be added here too
        signature = inspect.signature(run_experiments)
        runner_knobs = set(signature.parameters) - {"specs", "sinks"}
        assert set(api.SweepConfig().runner_kwargs()) == runner_knobs

    def test_defaults_are_valid_and_frozen(self):
        config = api.SweepConfig()
        assert config.workers == 1
        assert config.backend == "auto"
        with pytest.raises(Exception):
            config.workers = 4  # type: ignore[misc]

    def test_validation_errors(self, tmp_path):
        with pytest.raises(ConfigurationError, match="workers"):
            api.SweepConfig(workers=0)
        with pytest.raises(ConfigurationError, match="checkpoint_compact"):
            api.SweepConfig(checkpoint_compact=True)
        with pytest.raises(ConfigurationError, match="shard"):
            api.SweepConfig(shard=(0, 2))
        with pytest.raises(ConfigurationError, match="telemetry"):
            api.SweepConfig(profile="wall")

    def test_query_kwargs_reject_checkpoint_and_shard(self, tmp_path):
        config = api.SweepConfig(
            checkpoint=tmp_path / "ck.jsonl", shard=(0, 2)
        )
        with pytest.raises(ConfigurationError, match="archive is its checkpoint"):
            config.query_kwargs()
        # and without them, the reserved knobs are absent from the kwargs
        kwargs = api.SweepConfig(workers=2).query_kwargs()
        assert "checkpoint" not in kwargs
        assert "shard" not in kwargs
        assert "lease_timeout" not in kwargs
        assert kwargs["workers"] == 2


# --------------------------------------------------------------------------- #
# plan_sweep
# --------------------------------------------------------------------------- #


class TestPlanSweep:
    def test_default_plan_uses_mixed_suite_and_two_algorithms(self):
        specs, adversarial = api.plan_sweep(suite="tiny", seeds=2)
        assert not adversarial
        assert [spec.name for spec in specs] == ["flooding", "gilbert"]
        assert all(spec.seeds == (0, 1) for spec in specs)

    def test_explicit_topologies(self):
        specs, _ = api.plan_sweep(
            topologies=[cycle(6), path(5)], algorithms=["flooding"], seeds=1
        )
        assert len(specs) == 1
        assert len(specs[0].topologies) == 2

    def test_dynamic_scenario_is_adversarial(self):
        specs, adversarial = api.plan_sweep(
            suite="tiny", algorithms=["flooding"], scenario="lossy", seeds=1
        )
        assert adversarial
        # the robustness ladder includes a clean baseline point, so not
        # every spec carries an adversary — but the swept points do
        assert any(spec.adversary is not None for spec in specs)

    def test_mutual_exclusions(self):
        with pytest.raises(ConfigurationError, match="not both"):
            api.plan_sweep(suite="tiny", topologies=[cycle(6)])
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            api.plan_sweep(scenario="lossy", adversary="loss:p=0.1")
        with pytest.raises(ConfigurationError, match="requires adversary"):
            api.plan_sweep(adversary_params=["p=0.1"])
        with pytest.raises(ConfigurationError, match="seeds must be"):
            api.plan_sweep(seeds=0)
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            api.plan_sweep(scenario="sunny-day")
        with pytest.raises(ConfigurationError, match="protocol ladder"):
            api.plan_sweep(scenario="paper-constants", algorithms=["flooding"])


# --------------------------------------------------------------------------- #
# run / sweep facade
# --------------------------------------------------------------------------- #


class TestRunFacade:
    def test_run_is_deterministic_and_parses_string_topology(self):
        one = api.run("flooding", "cycle:5", seed=3)
        two = api.run("flooding", cycle(5), seed=3)
        assert one.as_dict() == two.as_dict()
        assert one.success

    def test_run_with_adversary_string(self):
        from repro.dynamics.spec import spec_from_cli

        via_cli_spelling = api.run(
            "flooding",
            cycle(5),
            seed=1,
            adversary="loss",
            adversary_params=["p=0.2"],
        )
        via_spec_object = api.run(
            "flooding",
            cycle(5),
            seed=1,
            adversary=spec_from_cli("loss", {"p": 0.2}),
        )
        assert via_cli_spelling.as_dict() == via_spec_object.as_dict()


class TestSweepFacade:
    def test_sweep_matches_run_experiments(self):
        specs = sweep_specs(
            ["flooding"], [cycle(6)], seeds=(0, 1), collect_profile=False
        )
        assert strip_wall_clock(api.sweep(specs)) == strip_wall_clock(
            run_experiments(specs)
        )

    def test_sweep_honours_config_checkpoint(self, tmp_path):
        specs = sweep_specs(
            ["flooding"], [cycle(6)], seeds=(0,), collect_profile=False
        )
        checkpoint = tmp_path / "ck.jsonl"
        api.sweep(specs, config=api.SweepConfig(checkpoint=checkpoint))
        assert checkpoint.exists()


# --------------------------------------------------------------------------- #
# deprecations
# --------------------------------------------------------------------------- #


class TestDeprecations:
    def test_builtin_sweep_specs_stay_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            specs = sweep_specs(
                ["flooding", "gilbert"],
                [cycle(5)],
                seeds=(0,),
                collect_profile=False,
            )
            run_experiments(specs)


# --------------------------------------------------------------------------- #
# exit-code contract (0 clean / 1 findings / 2 usage-or-error)
# --------------------------------------------------------------------------- #


class TestExitCodeContract:
    SWEEP = [
        "sweep",
        "--suite",
        "tiny",
        "--algorithms",
        "flooding",
        "--seeds",
        "1",
        "--no-profile",
    ]

    def test_partial_merge_exits_one(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "ck.jsonl")
        assert (
            main(self.SWEEP + ["--checkpoint", checkpoint, "--shard", "0/2"])
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "merge",
                "--manifest",
                str(manifest_path(checkpoint)),
                "--output",
                str(tmp_path / "merged.jsonl"),
                "--allow-partial",
            ]
        )
        assert code == 1
        assert "partial merge" in capsys.readouterr().err

    def test_complete_merge_exits_zero(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "ck.jsonl")
        for index in range(2):
            assert (
                main(
                    self.SWEEP
                    + ["--checkpoint", checkpoint, "--shard", f"{index}/2"]
                )
                == 0
            )
        code = main(
            [
                "merge",
                "--manifest",
                str(manifest_path(checkpoint)),
                "--output",
                str(tmp_path / "merged.jsonl"),
            ]
        )
        assert code == 0

    def test_merge_os_error_exits_two(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "ck.jsonl")
        for index in range(2):
            main(self.SWEEP + ["--checkpoint", checkpoint, "--shard", f"{index}/2"])
        capsys.readouterr()
        code = main(
            [
                "merge",
                "--manifest",
                str(manifest_path(checkpoint)),
                "--output",
                str(tmp_path),  # a directory: the write must fail cleanly
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_stats_with_no_runs_exits_one(self, capsys, tmp_path):
        telemetry = tmp_path / "empty.jsonl"
        telemetry.write_text("")
        assert main(["stats", str(telemetry)]) == 1
        assert "no task records found" in capsys.readouterr().err

    def test_stats_garbage_file_exits_two(self, capsys, tmp_path):
        telemetry = tmp_path / "garbage.jsonl"
        telemetry.write_text("{not json\n")
        assert main(["stats", str(telemetry)]) == 2
        assert "error:" in capsys.readouterr().err
