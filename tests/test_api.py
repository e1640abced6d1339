"""Tests for the ``repro.api`` facade, deprecations, and CLI exit codes.

Covers the redesigned entry points (``run`` / ``sweep`` / ``query`` /
``serve`` / ``plan_sweep`` / ``SweepConfig``), the module attributes
perfbench's tracer replaces, warning-free built-in sweeps,
and the 0/1/2 exit-code contract shared by ``merge`` / ``stats`` /
``archive stats`` (0 clean, 1 findings/partial, 2 usage or error).
"""

from __future__ import annotations

import json
import threading
import urllib.request
import warnings

import pytest

import repro.archive.query as query_module
import repro.archive.service as service_module
from repro import api
from repro.cli import main
from repro.core.errors import ConfigurationError
from repro.graphs import cycle, path
from repro.parallel import SweepConfig
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
    def test_facade_and_engine_share_one_config_class(self):
        assert api.SweepConfig is SweepConfig

    def test_defaults_are_valid_and_frozen(self):
        config = api.SweepConfig()
        assert config.workers == 1
        assert config.backend == "auto"
        with pytest.raises(Exception):
            config.workers = 4  # type: ignore[misc]

    def test_validation_errors(self, tmp_path):
        with pytest.raises(ConfigurationError, match="workers"):
            api.SweepConfig(workers=0)
        with pytest.raises(ConfigurationError, match="shard"):
            api.SweepConfig(shard=(0, 2))
        with pytest.raises(ConfigurationError, match="telemetry"):
            api.SweepConfig(profile="wall")
        # rejected when the config is built, whatever path would run it
        with pytest.raises(ConfigurationError, match="max_batch"):
            api.SweepConfig(max_batch=0)
        with pytest.raises(ConfigurationError, match="unknown simulator backend"):
            api.SweepConfig(backend="warp")
        with pytest.raises(ConfigurationError, match="task_timeout"):
            api.SweepConfig(task_timeout=-1)
        with pytest.raises(ConfigurationError, match="shard count"):
            api.SweepConfig(shard="0/0", checkpoint=tmp_path / "ck.jsonl")

    def test_base_seed_requires_derive_seeds(self):
        with pytest.raises(ConfigurationError, match="requires derive_seeds"):
            api.SweepConfig(base_seed=7)
        assert api.SweepConfig(derive_seeds=True, base_seed=7).base_seed == 7
        assert api.SweepConfig(derive_seeds=True).base_seed is None

    def test_query_kwargs_reject_checkpoint_and_shard(self, tmp_path):
        specs = sweep_specs(
            ["flooding"], [cycle(6)], seeds=(0,), collect_profile=False
        )
        config = api.SweepConfig(
            checkpoint=tmp_path / "ck.jsonl", shard=(0, 2)
        )
        with pytest.raises(ConfigurationError, match="archive is its checkpoint"):
            api.query(specs, archive=tmp_path / "a.sqlite", config=config)
        # the rejection comes before the archive is touched
        assert not (tmp_path / "a.sqlite").exists()


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

    def test_run_rejects_adversary_params_without_adversary(self):
        with pytest.raises(ConfigurationError, match="requires adversary"):
            api.run("flooding", cycle(5), seed=1, adversary_params=["p=0.9"])


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
# serve facade and the tracer seams
# --------------------------------------------------------------------------- #


def _query_over_http(archive, query):
    server = api.serve(archive=archive, port=0, block=False)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        with urllib.request.urlopen(f"http://{host}:{port}{query}") as response:
            return json.loads(response.read().decode("utf-8"))
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestServeFacade:
    def test_serve_rejects_a_checkpoint_config_before_binding(
        self, tmp_path, monkeypatch
    ):
        bound = []
        monkeypatch.setattr(
            service_module,
            "ArchiveHTTPServer",
            lambda *args, **kwargs: bound.append(args),
        )
        archive = tmp_path / "a.sqlite"
        config = api.SweepConfig(checkpoint=tmp_path / "ck.jsonl")
        with pytest.raises(ConfigurationError, match="archive is its checkpoint"):
            api.serve(archive=archive, port=0, block=False, config=config)
        assert bound == []
        assert not archive.exists()


class TestTracerSeams:
    """perfbench times the query layers by replacing module attributes of
    :mod:`repro.archive.query`; every caller must look them up per call."""

    QUERY = "/query?suite=tiny&algorithms=flooding&seeds=1"

    @staticmethod
    def _spy(monkeypatch, name):
        calls = []
        original = getattr(query_module, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(query_module, name, spy)
        return calls

    def test_query_experiments_seen_by_api_query_and_http(
        self, tmp_path, monkeypatch
    ):
        calls = self._spy(monkeypatch, "query_experiments")
        specs, _ = api.plan_sweep(
            suite="tiny", algorithms=["flooding"], seeds=1, collect_profile=False
        )
        archive = tmp_path / "a.sqlite"
        api.query(specs, archive=archive)
        assert calls == ["query_experiments"]
        answer = _query_over_http(archive, self.QUERY)
        assert answer["report"]["simulated_runs"] == 0
        assert calls == ["query_experiments", "query_experiments"]

    def test_run_experiments_seen_by_query_experiments(self, tmp_path, monkeypatch):
        calls = self._spy(monkeypatch, "run_experiments")
        specs = sweep_specs(
            ["flooding"], [cycle(6)], seeds=(0,), collect_profile=False
        )
        answer = query_module.query_experiments(specs, archive=tmp_path / "a.sqlite")
        assert answer.report.simulated_runs == 1
        assert calls == ["run_experiments"]


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
