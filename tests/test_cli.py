"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main, parse_topology
from repro.core.errors import ReproError
from repro.graphs.generators import cycle, erdos_renyi, random_regular


class TestParseTopology:
    def test_simple_family(self):
        topology = parse_topology("cycle:12")
        assert topology.num_nodes == 12

    def test_multi_argument_family(self):
        topology = parse_topology("torus_2d:4:5")
        assert topology.num_nodes == 20

    def test_random_family_uses_seed(self):
        a = parse_topology("random_regular:16:4", seed=3)
        b = parse_topology("random_regular:16:4", seed=3)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_random_family_without_seed_is_reproducible(self):
        a = parse_topology("random_regular:16:4")
        b = parse_topology("random_regular:16:4")
        assert a.fingerprint() == b.fingerprint()

    def test_unknown_family(self):
        with pytest.raises(ReproError):
            parse_topology("moebius:12")

    def test_bad_arguments(self):
        with pytest.raises(ReproError):
            parse_topology("cycle:3:4:5:6")

    def test_float_argument(self):
        topology = parse_topology("erdos_renyi:12:0.5")
        assert topology.name == "erdos_renyi(n=12,p=0.500)"
        assert topology.fingerprint() == erdos_renyi(12, 0.5, seed=0).fingerprint()

    def test_integer_arguments_parse_as_before(self):
        assert parse_topology("cycle:32").fingerprint() == cycle(32).fingerprint()
        topology = parse_topology("random_regular:128:8")
        assert topology.fingerprint() == random_regular(128, 8, seed=0).fingerprint()

    @pytest.mark.parametrize("spec", ["cycle:abc", "random_regular:16:x", "grid_2d:3:"])
    def test_non_numeric_argument(self, spec):
        with pytest.raises(ReproError, match="bad arguments for"):
            parse_topology(spec)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_elect_arguments(self):
        args = build_parser().parse_args(
            ["elect", "--algorithm", "flooding", "--topology", "cycle:8", "--seed", "5"]
        )
        assert args.algorithm == "flooding"
        assert args.seed == 5

    def test_all_election_runners_are_exposed(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        for name in ("irrevocable", "revocable", "flooding", "gilbert", "uniform"):
            assert name in out


class TestCommands:
    def test_analyze(self, capsys):
        assert main(["analyze", "--topology", "cycle:10"]) == 0
        out = capsys.readouterr().out
        assert "expansion profile" in out
        assert "mixing_time" in out

    def test_elect_flooding(self, capsys):
        code = main(
            ["elect", "--algorithm", "flooding", "--topology", "cycle:12", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "unique leader" in out

    def test_elect_irrevocable_with_explicit_extension(self, capsys):
        code = main(
            [
                "elect",
                "--algorithm",
                "irrevocable",
                "--topology",
                "cycle:10",
                "--seed",
                "4",
                "--explicit",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "explicit extension" in out

    def test_elect_unknown_topology_returns_error_code(self, capsys):
        code = main(["elect", "--algorithm", "flooding", "--topology", "moebius:3"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_elect_non_numeric_argument_returns_error_code(self, capsys):
        code = main(["elect", "--algorithm", "flooding", "--topology", "cycle:abc"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad arguments for cycle")
        assert "Traceback" not in err

    def test_analyze_float_argument(self, capsys):
        assert main(["analyze", "--topology", "erdos_renyi:12:0.5"]) == 0
        assert "expansion profile: erdos_renyi(n=12,p=0.500)" in capsys.readouterr().out

    def test_elect_trace_under_adversary_exports_fault_events(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        main(
            [
                "elect",
                "--algorithm",
                "flooding",
                "--topology",
                "cycle:8",
                "--seed",
                "1",
                "--adversary",
                "loss",
                "--adversary-param",
                "p=0.3",
                "--trace",
                str(trace),
            ]
        )
        out = capsys.readouterr().out
        assert "adversary            : loss(p=0.3)" in out
        assert "trace events" in out
        lines = [
            json.loads(line)
            for line in trace.read_text(encoding="utf-8").splitlines()
        ]
        assert lines[0]["kind"] == "trace"
        assert lines[0]["events"] == len(lines) - 1 > 0
        assert any(line["event"] == "message-dropped" for line in lines[1:])

    def test_elect_trace_without_adversary_exports_empty_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "elect",
                "--algorithm",
                "flooding",
                "--topology",
                "cycle:8",
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        assert "trace events         : 0" in capsys.readouterr().out
        assert trace.exists()

    def test_elect_adversary_param_requires_adversary(self, capsys):
        code = main(
            [
                "elect",
                "--algorithm",
                "flooding",
                "--topology",
                "cycle:8",
                "--adversary-param",
                "p=0.3",
            ]
        )
        assert code == 2
        assert "requires adversary" in capsys.readouterr().err

    LOSSY_ELECT = [
        "elect", "--algorithm", "flooding", "--topology", "cycle:6",
        "--adversary", "loss", "--adversary-param", "p=0.3",
    ]  # fmt: skip

    def test_elect_rejects_negative_trace_cap(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(
            self.LOSSY_ELECT + ["--trace", str(trace), "--trace-max-events", "-3"]
        )
        assert code == 2
        assert "max_events must be >= 0, got -3" in capsys.readouterr().err
        assert not trace.exists()

    def test_elect_zero_trace_cap_only_counts(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(
            self.LOSSY_ELECT + ["--trace", str(trace), "--trace-max-events", "0"]
        )
        assert code != 2  # a valid cap (lossy runs may elect nobody: exit 1)
        out = capsys.readouterr().out
        assert "trace events         : 0" in out
        assert "trace events dropped : 0" not in out
        header = json.loads(trace.read_text(encoding="utf-8").splitlines()[0])
        assert header["events"] == 0 < header["dropped"]

    @pytest.mark.parametrize("command", ["elect", "sweep", "query"])
    def test_adversary_help_spells_what_parses(self, command):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        (action,) = [
            action
            for action in subparsers[command]._actions
            if "--adversary" in action.option_strings
        ]
        # The help's example spellings are the ones the registry accepts,
        # not a NAME:K=V form that exits 2.
        assert "--adversary loss --adversary-param p=0.1" in action.help
        assert "composed:loss+delay" in action.help
        assert "loss:p=" not in action.help

    def test_compare_rejects_zero_seeds(self, capsys):
        code = main(["compare", "--topology", "cycle:6", "--seeds", "0"])
        assert code == 2
        assert "seeds must be >= 1, got 0" in capsys.readouterr().err

    def test_compare(self, capsys):
        code = main(
            [
                "compare",
                "--topology",
                "cycle:10",
                "--seeds",
                "1",
                "--algorithms",
                "flooding",
                "uniform",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "comparison on cycle(n=10)" in out
        assert "flooding" in out and "uniform" in out

    def test_sweep_serial(self, capsys):
        code = main(
            [
                "sweep",
                "--suite",
                "tiny",
                "--algorithms",
                "flooding",
                "--seeds",
                "2",
                "--no-profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep over suite 'tiny'" in out
        assert "flooding-max-id" in out

    def test_sweep_parallel_with_checkpoint_matches_serial(self, capsys, tmp_path):
        checkpoint = tmp_path / "sweep.json"
        args = [
            "sweep",
            "--suite",
            "tiny",
            "--algorithms",
            "flooding",
            "--seeds",
            "2",
            "--no-profile",
        ]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert (
            main(args + ["--workers", "2", "--checkpoint", str(checkpoint)]) == 0
        )
        parallel_out = capsys.readouterr().out
        assert checkpoint.exists()

        def rows_without_wall_clock(text):
            return [line.rsplit("|", 1)[0] for line in text.splitlines()[2:]]

        assert rows_without_wall_clock(parallel_out) == rows_without_wall_clock(
            serial_out
        )

    def test_sweep_unknown_suite_returns_error_code(self, capsys):
        code = main(["sweep", "--suite", "nope", "--algorithms", "flooding"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_rejects_non_positive_timeouts(self, capsys):
        base = ["sweep", "--suite", "tiny", "--algorithms", "flooding"]
        for bad in ("0", "-2.5", "nan"):
            assert main(base + ["--task-timeout", bad]) == 2
            assert "task_timeout" in capsys.readouterr().err

    def test_sweep_rejects_removed_auto_shard(self, capsys, tmp_path):
        code = main(
            [
                "sweep",
                "--suite",
                "tiny",
                "--algorithms",
                "flooding",
                "--checkpoint",
                str(tmp_path / "ck.json"),
                "--shard",
                "auto",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "work stealing" in err
        assert not list(tmp_path.iterdir())

    def test_sweep_derive_seeds(self, capsys):
        code = main(
            [
                "sweep",
                "--suite",
                "tiny",
                "--algorithms",
                "uniform",
                "--seeds",
                "2",
                "--derive-seeds",
                "--base-seed",
                "11",
                "--no-profile",
            ]
        )
        assert code == 0
        assert "uniform-id" in capsys.readouterr().out

    def test_impossibility_rejects_zero_trials(self, capsys):
        code = main(["impossibility", "--n", "4", "--trials", "0"])
        assert code == 2
        assert "seeds must not be empty" in capsys.readouterr().err

    def test_impossibility(self, capsys):
        code = main(["impossibility", "--n", "4", "--witnesses", "2", "--trials", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pumping-wheel demonstration" in out


class TestSweepDynamics:
    BASE = ["sweep", "--suite", "tiny", "--algorithms", "flooding", "--seeds", "2", "--no-profile"]

    def test_sweep_with_adversary_reports_safety(self, capsys):
        code = main(self.BASE + ["--adversary", "loss", "--adversary-param", "p=0.02"])
        out = capsys.readouterr().out
        assert "safety under faults" in out
        assert "mean_dropped_messages" in out
        assert code in (0, 1)  # 1 only on a safety violation

    def test_sweep_adversary_deterministic_across_workers(self, capsys):
        args = self.BASE + ["--adversary", "loss", "--adversary-param", "p=0.05"]
        main(args)
        serial_out = capsys.readouterr().out
        main(args + ["--workers", "2"])
        parallel_out = capsys.readouterr().out

        def rows_without_wall_clock(text):
            return [line.rsplit("|", 1)[0] for line in text.splitlines()[2:]]

        assert rows_without_wall_clock(parallel_out) == rows_without_wall_clock(
            serial_out
        )

    def test_sweep_scenario(self, capsys):
        code = main(self.BASE + ["--scenario", "lossy"])
        out = capsys.readouterr().out
        assert "flooding@loss(p=0.01)" in out
        assert "safety under faults" in out
        assert "robustness curves" in out
        assert code in (0, 1)

    def test_sweep_skewed_scenario_prints_curves(self, capsys):
        code = main(self.BASE + ["--scenario", "skewed"])
        out = capsys.readouterr().out
        assert "flooding@skew(max_skew=3,p=0.1)" in out
        assert "robustness curves" in out
        # The curve table has the baseline rung and every skew rung.
        curve_lines = [
            line for line in out.splitlines() if line.startswith("flooding-max-id")
        ]
        assert len(curve_lines) == 4
        assert code in (0, 1)

    def test_sweep_progress_reports_completed_over_total(self, capsys):
        code = main(self.BASE + ["--progress"])
        captured = capsys.readouterr()
        assert code == 0
        # tiny suite x 2 seeds = 10 runs; the final line always lands.
        assert "progress: 10/10 runs (100.0%)" in captured.err

    @pytest.mark.parametrize(
        "shard, runs", [("0/2", 5), ("1/3", 3)], ids=["even", "uneven"]
    )
    def test_sweep_progress_counts_the_shard_slice(self, capsys, tmp_path, shard, runs):
        # 10 runs: an even split, and an uneven one whose slice is 1, 4, 7.
        code = main(
            self.BASE
            + [
                "--progress",
                "--checkpoint",
                str(tmp_path / "sweep.json"),
                "--shard",
                shard,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert f"progress[shard {shard}]: {runs}/{runs} runs (100.0%)" in captured.err

    def test_sweep_rejects_bad_workers(self, capsys):
        code = main(self.BASE + ["--workers", "0"])
        assert code == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_sweep_rejects_unknown_adversary(self, capsys):
        code = main(self.BASE + ["--adversary", "gremlin"])
        assert code == 2
        assert "unknown adversary" in capsys.readouterr().err

    def test_sweep_rejects_bad_adversary_param(self, capsys):
        code = main(
            self.BASE + ["--adversary", "loss", "--adversary-param", "p=lots"]
        )
        assert code == 2
        assert "adversary-param" in capsys.readouterr().err

    def test_sweep_rejects_param_without_adversary(self, capsys):
        code = main(self.BASE + ["--adversary-param", "p=0.1"])
        assert code == 2
        assert "requires adversary" in capsys.readouterr().err

    def test_query_rejects_param_without_adversary(self, capsys, tmp_path):
        code = main(
            ["query", "--archive", str(tmp_path / "a.sqlite")]
            + self.BASE[1:]
            + ["--adversary-param", "p=0.1"]
        )
        assert code == 2
        assert "requires adversary" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_query_json_creates_its_parent_directory(self, capsys, tmp_path):
        out = tmp_path / "nodir" / "q.json"
        code = main(
            ["query", "--archive", str(tmp_path / "a.sqlite")]
            + self.BASE[1:]
            + ["--json", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8"))["cells"]
        assert f"wrote query JSON to {out}" in capsys.readouterr().out

    def test_query_json_write_error_exits_2(self, capsys, tmp_path):
        out = tmp_path / "q.json"
        out.mkdir()  # a directory where the JSON file should go
        code = main(
            ["query", "--archive", str(tmp_path / "a.sqlite")]
            + self.BASE[1:]
            + ["--json", str(out)]
        )
        assert code == 2
        assert f"cannot write query JSON to {out}" in capsys.readouterr().err

    def test_sweep_config_error_leaves_no_archive(self, capsys, tmp_path):
        archive = tmp_path / "a.sqlite"
        code = main(self.BASE + ["--archive", str(archive), "--task-timeout", "0"])
        assert code == 2
        assert "task_timeout" in capsys.readouterr().err
        assert not archive.exists()

    def test_archive_add_rejects_missing_checkpoint(self, capsys, tmp_path):
        archive = tmp_path / "new.sqlite"
        missing = tmp_path / "nodir" / "missing.json"
        code = main(["archive", "add", str(missing), "--archive", str(archive)])
        assert code == 2
        assert str(missing) in capsys.readouterr().err
        assert not archive.exists()
        assert not missing.parent.exists()

    def test_sweep_base_seed_requires_derive_seeds(self, capsys):
        code = main(self.BASE + ["--base-seed", "7"])
        assert code == 2
        assert "requires derive_seeds" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["merge", "--manifest", "sweep.manifest.json", "--compact"],
            ["archive", "add", "ck.json", "--archive", "a.sqlite", "--compact"],
        ],
    )
    def test_removed_compact_flags_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_rejects_adversary_and_scenario_together(self, capsys):
        code = main(
            self.BASE + ["--adversary", "loss", "--scenario", "lossy"]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_sweep_composed_adversary(self, capsys):
        code = main(
            self.BASE
            + [
                "--adversary",
                "composed:loss+delay",
                "--adversary-param",
                "loss.p=0.02",
                "--adversary-param",
                "delay.p=0.1",
            ]
        )
        out = capsys.readouterr().out
        assert "composed(" in out
        assert "safety under faults" in out
        assert code in (0, 1)

    def test_sweep_rejects_composed_suffix_on_plain_adversary(self, capsys):
        code = main(self.BASE + ["--adversary", "loss:delay"])
        assert code == 2
        assert "composed" in capsys.readouterr().err

    def test_sweep_checkpoint_records_carry_no_node_results(self, capsys, tmp_path):
        checkpoint = tmp_path / "ck.json"
        code = main(self.BASE + ["--checkpoint", str(checkpoint)])
        assert code == 0
        from repro.parallel import JsonlCheckpointStore

        runs = JsonlCheckpointStore(checkpoint).load()
        assert runs
        assert all("node_results" not in record for record in runs.values())
        capsys.readouterr()

    def test_sweep_archive_records_carry_no_node_results(self, capsys, tmp_path):
        import json
        import sqlite3
        from contextlib import closing

        archive = tmp_path / "a.sqlite"
        assert main(self.BASE + ["--archive", str(archive)]) == 0
        with closing(sqlite3.connect(str(archive))) as conn:
            rows = conn.execute("SELECT record FROM runs").fetchall()
        records = [json.loads(record) for (record,) in rows]
        assert len(records) == 10
        assert all("node_results" not in record for record in records)
        capsys.readouterr()

    def test_sweep_creates_missing_checkpoint_directories(self, capsys, tmp_path):
        checkpoint = tmp_path / "deeply" / "nested" / "ck.json"
        assert main(self.BASE + ["--checkpoint", str(checkpoint)]) == 0
        assert checkpoint.exists()
        capsys.readouterr()


class TestSweepSharding:
    BASE = [
        "sweep",
        "--suite",
        "tiny",
        "--algorithms",
        "flooding",
        "--seeds",
        "2",
        "--no-profile",
    ]

    def test_shard_requires_checkpoint(self, capsys):
        code = main(self.BASE + ["--shard", "0/2"])
        assert code == 2
        assert "requires a checkpoint path" in capsys.readouterr().err

    @pytest.mark.parametrize("shard", ["2/2", "3/2", "-1/2", "1/0", "x/y", "1"])
    def test_shard_rejects_bad_specs(self, capsys, tmp_path, shard):
        # --shard=... spelling: argparse would otherwise eat "-1/2" as an option.
        code = main(
            self.BASE
            + ["--checkpoint", str(tmp_path / "ck.json"), f"--shard={shard}"]
        )
        assert code == 2
        assert "shard" in capsys.readouterr().err

    def test_sharded_sweep_merge_replay_matches_unsharded(self, capsys, tmp_path):
        assert main(self.BASE) == 0
        unsharded_out = capsys.readouterr().out

        checkpoint = tmp_path / "sweep.json"
        sharded = self.BASE + ["--checkpoint", str(checkpoint)]
        assert main(sharded + ["--shard", "0/2"]) == 0
        shard_out = capsys.readouterr().out
        assert "shard 0/2" in shard_out
        assert main(sharded + ["--shard", "1/2"]) == 0
        capsys.readouterr()

        manifest = tmp_path / "sweep.manifest.json"
        assert manifest.exists()
        assert main(["merge", "--manifest", str(manifest)]) == 0
        merge_out = capsys.readouterr().out
        assert "shard merge" in merge_out
        assert "tasks_missing" in merge_out

        # Replaying the merged checkpoint reproduces the unsharded sweep
        # (wall-clock column aside).
        assert main(sharded) == 0
        merged_out = capsys.readouterr().out

        def rows_without_wall_clock(text):
            return [line.rsplit("|", 1)[0] for line in text.splitlines()[1:]]

        assert rows_without_wall_clock(merged_out) == rows_without_wall_clock(
            unsharded_out
        )

    def test_empty_slice_shard_job_exits_zero(self, capsys, tmp_path):
        # 5 tiny-suite topologies x 1 seed = 5 tasks split 8 ways: shards
        # 5..7 run nothing — which is success, not failure, for a job
        # scheduler watching exit codes.
        base = [
            "sweep",
            "--suite",
            "tiny",
            "--algorithms",
            "flooding",
            "--seeds",
            "1",
            "--no-profile",
            "--checkpoint",
            str(tmp_path / "ck.json"),
        ]
        for index in range(8):
            assert main(base + ["--shard", f"{index}/8"]) == 0
        capsys.readouterr()
        assert main(["merge", "--manifest", str(tmp_path / "ck.manifest.json")]) == 0
        out = capsys.readouterr().out
        summary = {
            key.strip(): value.strip()
            for key, _, value in (
                line.partition(":") for line in out.splitlines() if ":" in line
            )
        }
        assert summary["missing_shards"] == "0"
        assert summary["tasks_missing"] == "0"
        assert summary["tasks_merged"] == "5"

    def test_merge_missing_manifest_reports_error(self, capsys, tmp_path):
        code = main(["merge", "--manifest", str(tmp_path / "nope.manifest.json")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_merge_requires_derivable_output(self, capsys, tmp_path):
        path = tmp_path / "index.json"  # no ".manifest" in the name
        path.write_text("{}")
        code = main(["merge", "--manifest", str(path)])
        assert code == 2
        assert "--output" in capsys.readouterr().err
