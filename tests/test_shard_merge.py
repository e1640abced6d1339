"""Tests for distributed `--shard i/k` sweeps, shard-checkpoint merge, and
the streaming result pipeline.

The contract under test:

* an ``i/k`` split covers the grid exactly once, deterministically, with
  no coordination between the k jobs beyond the grid definition;
* merging the k shard checkpoints and replaying yields results
  bit-identical to an unsharded sweep (wall-clock readings aside), with
  zero re-executed runs;
* merge validation catches what multi-machine reality produces: missing
  shard files, partial coverage, conflicting records for one task key,
  shard files written before records dropped their per-node payload,
  and stale records from a re-run under a different adversary token;
* the streaming aggregation path (exact per-cell accumulators) is
  order-independent, so pool completion order and shard fold order can
  never change a cell.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import CellAggregate, ExperimentSpec, run_experiment
from repro.core.errors import ConfigurationError
from repro.graphs import cycle, grid_2d, star
from repro.parallel import (
    JsonlCheckpointStore,
    ShardManifest,
    SweepConfig,
    expand_run_tasks,
    manifest_path,
    merge_shard_checkpoints,
    parse_shard,
    result_to_record,
    run_experiments,
    select_shard,
    shard_checkpoint_path,
    shard_round_robin,
    validate_shard,
)
from repro.protocols import run_protocol

SEEDS = (0, 1, 2)
WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", 2))


def _spec(name: str = "flooding") -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        protocol=name,
        topologies=[cycle(8), star(8), grid_2d(3, 3)],
        seeds=SEEDS,
        collect_profile=False,
    )


def _specs():
    return [_spec("flooding"), _spec("uniform")]


def _comparable(cells):
    rows = []
    for cell in cells:
        row = cell.as_dict()
        row.pop("mean_wall_clock_seconds")
        rows.append(row)
    return rows


def count_file_runner(topology, seed):
    """Protocol factory logging each invocation (see test_parallel_runner)."""
    with open(os.environ["REPRO_TEST_COUNT_FILE"], "a", encoding="utf-8") as handle:
        handle.write(f"{topology.name} {seed}\n")
    return run_protocol("flooding", topology, seed)


# --------------------------------------------------------------------------- #
# shard selection and validation
# --------------------------------------------------------------------------- #


class TestShardSelection:
    def test_parse_shard(self):
        assert parse_shard("0/2") == (0, 2)
        assert parse_shard("3/4") == (3, 4)

    @pytest.mark.parametrize(
        "text", ["2/2", "5/4", "-1/2", "1/0", "1/-3", "x/y", "3", "1/2/3", "/2", "1/"]
    )
    def test_bad_shard_specs_rejected(self, text):
        with pytest.raises(ConfigurationError):
            parse_shard(text)

    @pytest.mark.parametrize("text", ["auto", "auto/4"])
    def test_auto_shard_is_rejected_with_the_replacement(self, text):
        with pytest.raises(ConfigurationError, match="work stealing") as info:
            parse_shard(text)
        assert "i/k" in str(info.value) and "merge" in str(info.value)

    def test_validate_shard_bounds(self):
        assert validate_shard(0, 1) == (0, 1)
        with pytest.raises(ConfigurationError):
            validate_shard(1, 1)
        with pytest.raises(ConfigurationError):
            validate_shard(0, 0)

    def test_select_shard_partitions_exactly(self):
        items = list(range(11))
        shards = [select_shard(items, index, 3) for index in range(3)]
        assert sorted(item for shard in shards for item in shard) == items
        assert shards[0] == [0, 3, 6, 9]
        # Deterministic: same inputs, same slice.
        assert select_shard(items, 0, 3) == shards[0]

    @pytest.mark.parametrize(
        "count, shards", [(0, 1), (1, 3), (7, 1), (7, 3), (9, 3), (10, 4), (5, 8)]
    )
    def test_round_robin_split_is_a_near_even_partition(self, tmp_path, count, shards):
        keys = [f"task-{index}" for index in range(count)]
        buckets = shard_round_robin(keys, shards)
        assert len(buckets) == shards
        assert sorted(key for bucket in buckets for key in bucket) == sorted(keys)
        sizes = [len(bucket) for bucket in buckets]
        assert max(sizes) - min(sizes) <= 1
        for index, bucket in enumerate(buckets):
            assert bucket == keys[index::shards]
            # Job-side selection and the manifest's coverage bookkeeping
            # apply the same assignment rule.
            assert select_shard(keys, index, shards) == bucket
        manifest = ShardManifest.plan(tmp_path / "ck.json", keys, shards)
        assert manifest.shard_tasks == tuple(tuple(bucket) for bucket in buckets)

    @pytest.mark.parametrize("shards", [0, -2])
    def test_round_robin_rejects_non_positive_shard_count(self, shards):
        with pytest.raises(ValueError, match="shards must be positive"):
            shard_round_robin([1, 2, 3], shards)

    @pytest.mark.parametrize("index, count", [(3, 3), (0, 0), (-1, 2)])
    def test_select_shard_validates_before_slicing(self, index, count):
        with pytest.raises(ConfigurationError, match="shard"):
            select_shard(list(range(6)), index, count)

    def test_shard_requires_checkpoint(self):
        with pytest.raises(ConfigurationError, match="requires a checkpoint"):
            run_experiments([_spec()], config=SweepConfig(shard=(0, 2)))

    def test_shard_validated_in_runner(self, tmp_path):
        with pytest.raises(ConfigurationError, match="shard index"):
            run_experiments(
                [_spec()],
                config=SweepConfig(checkpoint=tmp_path / "ck.json", shard=(2, 2)),
            )


# --------------------------------------------------------------------------- #
# the acceptance pin: sharded + merged == unsharded, bit for bit
# --------------------------------------------------------------------------- #


class TestShardedSweepEquivalence:
    def test_sharded_merge_replay_is_bit_identical(
        self, tmp_path, monkeypatch, register_fake_protocol
    ):
        specs = _specs()
        unsharded = run_experiments(specs, config=SweepConfig(workers=WORKERS))

        base = tmp_path / "sweep.json"
        for index in range(2):
            run_experiments(
                specs,
                config=SweepConfig(checkpoint=base, shard=(index, 2), workers=WORKERS),
            )

        merged = tmp_path / "merged.json"
        summary = merge_shard_checkpoints(manifest_path(base), merged)
        assert summary["tasks_missing"] == 0
        assert summary["tasks_merged"] == summary["tasks_expected"]

        # The replay must execute nothing: every run comes from the merge.
        count_file = tmp_path / "invocations.log"
        monkeypatch.setenv("REPRO_TEST_COUNT_FILE", str(count_file))
        for spec in specs:
            register_fake_protocol(spec.name, count_file_runner)
        replay_specs = [
            ExperimentSpec(
                name=spec.name,
                protocol=spec.name,
                topologies=spec.topologies,
                seeds=spec.seeds,
                collect_profile=False,
            )
            for spec in specs
        ]
        # NB: replay keys must match.  The counting stand-in is registered
        # under each spec's own name, so its keys are the bare-name keys
        # and it replays the stored records.
        replayed = run_experiments(replay_specs, config=SweepConfig(checkpoint=merged))
        assert not count_file.exists() or count_file.read_text() == ""

        for a, b in zip(unsharded, replayed):
            assert _comparable(a.cells) == _comparable(b.cells)

    def test_shard_runs_disjoint_slices(
        self, tmp_path, monkeypatch, register_fake_protocol
    ):
        register_fake_protocol("counted", count_file_runner)
        count_file = tmp_path / "invocations.log"
        monkeypatch.setenv("REPRO_TEST_COUNT_FILE", str(count_file))
        spec = ExperimentSpec(
            name="counted",
            protocol="counted",
            topologies=[cycle(8), star(8)],
            seeds=SEEDS,
            collect_profile=False,
        )
        base = tmp_path / "sweep.json"
        run_experiments([spec], config=SweepConfig(checkpoint=base, shard=(0, 2)))
        run_experiments([spec], config=SweepConfig(checkpoint=base, shard=(1, 2)))
        # Each of the 6 grid runs executed exactly once across both jobs.
        lines = count_file.read_text().splitlines()
        assert len(lines) == 6
        assert len(set(lines)) == 6

    def test_sharded_results_contain_only_local_cells(self, tmp_path):
        # One topology, two seeds, two shards: each job holds one run of
        # the only cell; a 3-topology grid sharded 3 ways can drop whole
        # cells from a shard's partial view.
        spec = ExperimentSpec(
            name="narrow",
            protocol="flooding",
            topologies=[cycle(8), star(8), grid_2d(3, 3)],
            seeds=(0,),
            collect_profile=False,
        )
        base = tmp_path / "sweep.json"
        partial = run_experiments(
            [spec],
            config=SweepConfig(checkpoint=base, shard=(0, 3)),
        )[0]
        assert len(partial.cells) == 1  # tasks 0,3,6,... -> only cycle(8)
        assert partial.cells[0].topology_name == "cycle(n=8)"
        assert partial.cells[0].runs == 1

    def test_empty_slice_shards_still_merge(self, tmp_path):
        # More shards than tasks: the jobs whose round-robin slice is
        # empty must still write their (empty) shard checkpoints, and the
        # merge of the fully-executed split must validate as complete.
        spec = ExperimentSpec(
            name="small",
            protocol="flooding",
            topologies=[cycle(8)],
            seeds=(0, 1),
            collect_profile=False,
        )
        base = tmp_path / "sweep.json"
        for index in range(4):
            run_experiments(
                [spec],
                config=SweepConfig(checkpoint=base, shard=(index, 4)),
            )
            assert shard_checkpoint_path(base, index, 4).exists()
        summary = merge_shard_checkpoints(manifest_path(base), tmp_path / "m.json")
        assert summary["missing_shards"] == 0
        assert summary["tasks_missing"] == 0
        assert summary["tasks_merged"] == 2

    def test_resumed_shard_skips_completed_runs(
        self, tmp_path, monkeypatch, register_fake_protocol
    ):
        register_fake_protocol("counted", count_file_runner)
        count_file = tmp_path / "invocations.log"
        monkeypatch.setenv("REPRO_TEST_COUNT_FILE", str(count_file))
        spec = ExperimentSpec(
            name="counted",
            protocol="counted",
            topologies=[cycle(8), star(8)],
            seeds=SEEDS,
            collect_profile=False,
        )
        base = tmp_path / "sweep.json"
        run_experiments([spec], config=SweepConfig(checkpoint=base, shard=(0, 2)))
        executed = len(count_file.read_text().splitlines())
        run_experiments(
            [spec],
            config=SweepConfig(checkpoint=base, shard=(0, 2)),
        )  # resume: replay
        assert len(count_file.read_text().splitlines()) == executed

    def test_single_shard_split_covers_grid_and_merge_matches_serial(self, tmp_path):
        # A 0/1 split is one job owning the whole grid: its shard file
        # holds every run and merges into a replay of the serial sweep.
        serial = run_experiment(_spec())
        base = tmp_path / "sweep.json"
        run_experiments([_spec()], config=SweepConfig(checkpoint=base, shard=(0, 1)))
        keys = {task.key for task in expand_run_tasks(_spec())}
        assert set(JsonlCheckpointStore(shard_checkpoint_path(base, 0, 1)).load()) == keys
        merged = tmp_path / "merged.json"
        summary = merge_shard_checkpoints(manifest_path(base), merged)
        assert summary["shards"] == summary["shards_found"] == 1
        assert summary["tasks_merged"] == summary["tasks_expected"] == len(keys)
        replayed = run_experiments([_spec()], config=SweepConfig(checkpoint=merged))
        assert _comparable(replayed[0].cells) == _comparable(serial.cells)


# --------------------------------------------------------------------------- #
# the shard manifest
# --------------------------------------------------------------------------- #


class TestShardManifest:
    def test_every_job_writes_the_same_manifest(self, tmp_path):
        base = tmp_path / "sweep.json"
        run_experiments([_spec()], config=SweepConfig(checkpoint=base, shard=(0, 2)))
        first = manifest_path(base).read_text()
        run_experiments([_spec()], config=SweepConfig(checkpoint=base, shard=(1, 2)))
        assert manifest_path(base).read_text() == first

    def test_manifest_round_trip(self, tmp_path):
        keys = [f"task-{index}" for index in range(7)]
        manifest = ShardManifest.plan(tmp_path / "ck.json", keys, 3)
        manifest.write(manifest_path(tmp_path / "ck.json"))
        loaded = ShardManifest.load(manifest_path(tmp_path / "ck.json"))
        assert loaded == manifest
        assert set(loaded.expected_keys()) == set(keys)
        assert loaded.expected_keys()["task-4"] == 1  # round-robin: 4 % 3

    def test_conflicting_manifest_rejected(self, tmp_path):
        # A shard job of a *different* grid (here: a different adversary,
        # which changes every task key) pointed at the same checkpoint
        # base must fail loudly instead of corrupting the split.
        from repro.dynamics import AdversarySpec

        base = tmp_path / "sweep.json"
        run_experiments([_spec()], config=SweepConfig(checkpoint=base, shard=(0, 2)))
        adversarial = ExperimentSpec(
            name="flooding",
            protocol="flooding",
            topologies=[cycle(8), star(8), grid_2d(3, 3)],
            seeds=SEEDS,
            collect_profile=False,
            adversary=AdversarySpec.create("loss", p=0.01),
        )
        with pytest.raises(ConfigurationError, match="different sweep"):
            run_experiments(
                [adversarial],
                config=SweepConfig(checkpoint=base, shard=(1, 2)),
            )

    def test_pre_change_static_manifest_still_matches_a_fresh_plan(self, tmp_path):
        # Manifests used to carry a "mode" key; a static one already on
        # disk must keep matching the plan a resumed shard job computes.
        base = tmp_path / "sweep.json"
        keys = [task.key for task in expand_run_tasks(_spec())]
        manifest = ShardManifest.plan(base, keys, 2)
        assert "mode" not in manifest.as_payload()
        manifest_path(base).write_text(
            json.dumps({**manifest.as_payload(), "mode": "static"}, indent=1)
        )
        assert ShardManifest.load(manifest_path(base)) == manifest
        manifest.write(manifest_path(base))  # idempotent, not a conflict

    def test_auto_manifest_from_before_the_change_merges(
        self, tmp_path, monkeypatch, register_fake_protocol
    ):
        # What a `--shard auto/3` sweep left on disk: a manifest with
        # "mode": "auto" over contiguous task-key blocks, one block
        # checkpoint per shard file.
        serial = run_experiment(_spec())
        base = tmp_path / "sweep.json"
        full = tmp_path / "full.json"
        run_experiments([_spec()], config=SweepConfig(checkpoint=full))
        records = JsonlCheckpointStore(full).load()
        keys = [task.key for task in expand_run_tasks(_spec())]
        blocks = [keys[0:3], keys[3:6], keys[6:9]]
        shards = []
        for index, block in enumerate(blocks):
            shard_file = shard_checkpoint_path(base, index, len(blocks))
            JsonlCheckpointStore(shard_file).write_fresh(
                {key: records[key] for key in block}
            )
            shards.append({"index": index, "file": shard_file.name, "tasks": block})
        manifest_path(base).write_text(
            json.dumps(
                {
                    "version": 1,
                    "kind": "shard-manifest",
                    "mode": "auto",
                    "shard_count": len(blocks),
                    "shards": shards,
                },
                indent=1,
                sort_keys=True,
            )
        )

        merged = tmp_path / "merged.json"
        summary = merge_shard_checkpoints(manifest_path(base), merged)
        assert summary["tasks_merged"] == summary["tasks_expected"] == 9

        count_file = tmp_path / "invocations.log"
        monkeypatch.setenv("REPRO_TEST_COUNT_FILE", str(count_file))
        register_fake_protocol("flooding", count_file_runner)
        replayed = run_experiments([_spec()], config=SweepConfig(checkpoint=merged))
        assert not count_file.exists()
        assert _comparable(replayed[0].cells) == _comparable(serial.cells)

    def test_manifest_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "not-manifest.json"
        path.write_text(json.dumps({"version": 1, "runs": {}}))
        with pytest.raises(ConfigurationError, match="not a shard manifest"):
            ShardManifest.load(path)

    def test_manifest_rejects_other_format_version(self, tmp_path):
        manifest = ShardManifest.plan(tmp_path / "ck.json", ["a", "b"], 2)
        path = manifest_path(tmp_path / "ck.json")
        path.write_text(json.dumps({**manifest.as_payload(), "version": 2}))
        with pytest.raises(ConfigurationError, match="format version 2"):
            ShardManifest.load(path)

    def test_missing_manifest_names_the_sharded_sweep(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist.*--shard i/k"):
            ShardManifest.load(tmp_path / "absent.manifest.json")

    def test_manifest_that_is_not_json_rejected(self, tmp_path):
        path = tmp_path / "sweep.manifest.json"
        path.write_text('{"version": 1, "kind": "shard-mani')
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            ShardManifest.load(path)

    @pytest.mark.parametrize("shard_count", [0, -1])
    def test_plan_rejects_non_positive_shard_count(self, tmp_path, shard_count):
        with pytest.raises(ConfigurationError, match="shard count must be >= 1"):
            ShardManifest.plan(tmp_path / "ck.json", ["a"], shard_count)

    @pytest.mark.parametrize(
        "base, index, count, suffix, expected",
        [
            ("sweep.json", 0, 2, ".json", "sweep.shard0of2.json"),
            ("sweep", 1, 3, ".json", "sweep.shard1of3.json"),
            ("runs/grid.jsonl", 3, 4, ".json", "runs/grid.shard3of4.jsonl"),
            ("telemetry", 0, 1, ".jsonl", "telemetry.shard0of1.jsonl"),
        ],
    )
    def test_shard_checkpoint_path_naming(
        self, tmp_path, base, index, count, suffix, expected
    ):
        path = shard_checkpoint_path(
            tmp_path / base, index, count, default_suffix=suffix
        )
        assert path == tmp_path / expected

    @pytest.mark.parametrize(
        "base, expected",
        [("sweep.json", "sweep.manifest.json"), ("sweep", "sweep.manifest.json")],
    )
    def test_manifest_path_naming(self, tmp_path, base, expected):
        assert manifest_path(tmp_path / base) == tmp_path / expected

    def test_write_creates_parents_and_leaves_no_temp_file(self, tmp_path):
        base = tmp_path / "nested" / "dir" / "sweep.json"
        manifest = ShardManifest.plan(base, ["a", "b", "c"], 2)
        manifest.write(manifest_path(base))
        assert ShardManifest.load(manifest_path(base)) == manifest
        assert sorted(p.name for p in base.parent.iterdir()) == [
            "sweep.manifest.json"
        ]

    def test_shard_files_resolve_next_to_the_manifest(self, tmp_path):
        base = tmp_path / "sweep.json"
        manifest = ShardManifest.plan(base, ["a", "b", "c"], 3)
        assert manifest.shard_files == (
            "sweep.shard0of3.json",
            "sweep.shard1of3.json",
            "sweep.shard2of3.json",
        )
        assert manifest.shard_file_paths(manifest_path(base)) == [
            shard_checkpoint_path(base, index, 3) for index in range(3)
        ]
        assert manifest.expected_keys() == {"a": 0, "b": 1, "c": 2}


# --------------------------------------------------------------------------- #
# merge validation
# --------------------------------------------------------------------------- #


def _sharded_run(tmp_path, specs=None, shards=2):
    base = tmp_path / "sweep.json"
    specs = specs if specs is not None else [_spec()]
    for index in range(shards):
        run_experiments(
            specs,
            config=SweepConfig(checkpoint=base, shard=(index, shards)),
        )
    return base


class TestMergeValidation:
    def test_missing_shard_rejected_then_allowed(self, tmp_path):
        base = _sharded_run(tmp_path)
        shard_checkpoint_path(base, 1, 2).unlink()
        with pytest.raises(ConfigurationError, match="missing shard"):
            merge_shard_checkpoints(manifest_path(base), tmp_path / "m.json")
        summary = merge_shard_checkpoints(
            manifest_path(base), tmp_path / "m.json", allow_partial=True
        )
        assert summary["missing_shards"] == 1
        assert 0 < summary["tasks_merged"] < summary["tasks_expected"]
        assert summary["tasks_missing"] > 0

    def test_overlapping_identical_records_deduplicate(self, tmp_path):
        base = _sharded_run(tmp_path)
        # Copy one record of shard 0 into shard 1: an overlap from a
        # re-run, with identical measurements — legal, deduplicated.
        store0 = JsonlCheckpointStore(shard_checkpoint_path(base, 0, 2))
        store1 = JsonlCheckpointStore(shard_checkpoint_path(base, 1, 2))
        key, record = next(iter(store0.load().items()))
        store1.add(key, record)
        store1.flush()
        summary = merge_shard_checkpoints(manifest_path(base), tmp_path / "m.json")
        assert summary["tasks_merged"] == summary["tasks_expected"]

    def test_conflicting_records_rejected(self, tmp_path):
        base = _sharded_run(tmp_path)
        store0 = JsonlCheckpointStore(shard_checkpoint_path(base, 0, 2))
        store1 = JsonlCheckpointStore(shard_checkpoint_path(base, 1, 2))
        key, record = next(iter(store0.load().items()))
        forged = dict(record)
        forged["metrics"] = dict(forged["metrics"])
        forged["metrics"]["messages"] = forged["metrics"]["messages"] + 1
        store1.add(key, forged)
        store1.flush()
        with pytest.raises(ConfigurationError, match="conflicting records"):
            merge_shard_checkpoints(manifest_path(base), tmp_path / "m.json")

    def test_old_and_new_shape_shards_merge(self, tmp_path, pre_change_records):
        specs = [_spec()]
        base = tmp_path / "sweep.json"
        run_experiments(specs, config=SweepConfig(checkpoint=base, shard=(0, 2)))
        # Shard 1 as an earlier build wrote it: every record carries the
        # run's per-node results.
        tasks = [task for spec in specs for task in expand_run_tasks(spec)]
        JsonlCheckpointStore(shard_checkpoint_path(base, 1, 2)).write_fresh(
            pre_change_records(select_shard(tasks, 1, 2))
        )
        merged = tmp_path / "merged.json"
        summary = merge_shard_checkpoints(manifest_path(base), merged)
        assert summary["tasks_missing"] == 0
        stored = merged.read_text()
        replayed = run_experiments(specs, config=SweepConfig(checkpoint=merged))
        # Nothing re-executed: a pure replay leaves the file byte-identical.
        assert merged.read_text() == stored
        plain = run_experiments(specs)
        for a, b in zip(plain, replayed):
            assert _comparable(a.cells) == _comparable(b.cells)

    def test_stale_records_from_other_adversary_token_dropped(self, tmp_path):
        # A shard file resumed from an earlier sweep under a different
        # adversary carries records whose task keys the manifest does not
        # know: they are dropped from the merge and reported, and
        # coverage of the *current* grid still validates.
        from repro.dynamics import AdversarySpec

        adversarial = ExperimentSpec(
            name="flooding",
            protocol="flooding",
            topologies=[cycle(8), star(8), grid_2d(3, 3)],
            seeds=SEEDS,
            collect_profile=False,
            adversary=AdversarySpec.create("loss", p=0.01),
        )
        base = _sharded_run(tmp_path)
        stale_keys = [task.key for task in expand_run_tasks(adversarial)]
        store0 = JsonlCheckpointStore(shard_checkpoint_path(base, 0, 2))
        result = run_protocol("flooding", cycle(8), 0)
        store0.add(stale_keys[0], result_to_record(result, 0.1))
        store0.flush()
        summary = merge_shard_checkpoints(manifest_path(base), tmp_path / "m.json")
        assert summary["extraneous_records_dropped"] == 1
        assert summary["tasks_missing"] == 0
        assert stale_keys[0] not in JsonlCheckpointStore(tmp_path / "m.json").load()

    def test_pre_jsonl_shard_file_rejected_before_output_is_written(self, tmp_path):
        # A shard file in the whole-file JSON format of earlier builds is
        # refused by name; the merge writes no output and leaves the
        # shard file as it was.
        base = _sharded_run(tmp_path)
        shard = shard_checkpoint_path(base, 1, 2)
        runs = JsonlCheckpointStore(shard).load()
        shard.write_text(json.dumps({"version": 1, "runs": runs}))
        before = shard.read_bytes()
        output = tmp_path / "m.json"
        with pytest.raises(ConfigurationError, match="predates the JSONL format") as info:
            merge_shard_checkpoints(manifest_path(base), output)
        assert str(shard) in str(info.value)
        assert not output.exists()
        assert shard.read_bytes() == before


# --------------------------------------------------------------------------- #
# streaming aggregation: exact, order-independent folds
# --------------------------------------------------------------------------- #


class TestStreamingAggregates:
    def _runs(self):
        return [(run_protocol("flooding", cycle(8), seed), 0.25) for seed in range(5)]

    def test_fold_order_never_changes_the_aggregate(self):
        runs = self._runs()
        forward, backward = CellAggregate(), CellAggregate()
        for run, elapsed in runs:
            forward.add(run, elapsed)
        for run, elapsed in reversed(runs):
            backward.add(run, elapsed)
        assert forward.mean_messages == backward.mean_messages
        assert forward.stdev_messages == backward.stdev_messages
        assert forward.min_messages == backward.min_messages
        assert forward.max_rounds == backward.max_rounds
        assert forward.safety.summary() == backward.safety.summary()

    def test_merge_of_partial_aggregates_equals_total(self):
        runs = self._runs()
        total = CellAggregate()
        left, right = CellAggregate(), CellAggregate()
        for index, (run, elapsed) in enumerate(runs):
            total.add(run, elapsed)
            (left if index % 2 == 0 else right).add(run, elapsed)
        left.merge(right)
        assert left.count == total.count
        assert left.mean_messages == total.mean_messages
        assert left.stdev_messages == total.stdev_messages
        assert left.min_messages == total.min_messages
        assert left.max_messages == total.max_messages
        assert left.safety.summary() == total.safety.summary()

    def test_cell_min_max_fields(self):
        spec = ExperimentSpec(
            name="flooding",
            protocol="flooding",
            topologies=[cycle(8)],
            seeds=SEEDS,
            collect_profile=False,
        )
        cell = run_experiment(spec).cells[0]
        messages = [run_protocol("flooding", cycle(8), seed).messages for seed in SEEDS]
        assert cell.min_messages == min(messages)
        assert cell.max_messages == max(messages)
        assert cell.min_rounds <= cell.max_rounds
        assert cell.safety is not None
        assert cell.safety.runs == len(SEEDS)

    def test_custom_sink_sees_every_run(self, tmp_path):
        from repro.analysis import ResultSink

        class Recorder(ResultSink):
            def __init__(self):
                self.seen = []
                self.closed = False

            def emit(self, spec_name, topology_index, seed_index, result, wall):
                self.seen.append((spec_name, topology_index, seed_index))

            def close(self):
                self.closed = True

        spec = _spec()
        serial, parallel = Recorder(), Recorder()
        run_experiment(spec, sinks=[serial])
        run_experiments([spec], config=SweepConfig(workers=2), sinks=[parallel])
        assert sorted(serial.seen) == sorted(parallel.seen)
        assert len(serial.seen) == len(spec.topologies) * len(SEEDS)
        assert serial.closed and parallel.closed

    def test_checkpoint_parent_directories_created_at_construction(self, tmp_path):
        store = JsonlCheckpointStore(tmp_path / "a" / "b" / "ck.json")
        assert (tmp_path / "a" / "b").is_dir()
        result = run_protocol("flooding", cycle(8), 0)
        store.add("k", result_to_record(result, 0.1))
        assert store.path.exists()


class TestProtocolGridSharding:
    """The acceptance pin for the protocol axis: a parameterised grid
    (two variants of one algorithm) shards, merges and replays
    bit-identically to the unsharded sweep, with protocol-qualified task
    keys throughout."""

    def _grid_specs(self):
        from repro.workloads import sweep_specs

        return sweep_specs(
            ["flooding:c=2", "flooding:c=3"],
            [cycle(8), star(8)],
            seeds=SEEDS,
            collect_profile=False,
        )

    def test_sharded_protocol_grid_merge_replay_is_bit_identical(self, tmp_path):
        specs = self._grid_specs()
        unsharded = run_experiments(specs, config=SweepConfig(workers=WORKERS))

        base = tmp_path / "grid.json"
        for index in range(2):
            run_experiments(
                specs,
                config=SweepConfig(checkpoint=base, shard=(index, 2), workers=WORKERS),
            )

        merged = tmp_path / "merged.json"
        summary = merge_shard_checkpoints(manifest_path(base), merged)
        assert summary["tasks_missing"] == 0
        assert summary["tasks_merged"] == 2 * 2 * len(SEEDS)

        replayed = run_experiments(specs, config=SweepConfig(checkpoint=merged))
        for a, b in zip(unsharded, replayed):
            assert _comparable(a.cells) == _comparable(b.cells)
        # Distinct variants stayed distinct through the split and merge.
        assert _comparable(replayed[0].cells) != _comparable(replayed[1].cells)

    def test_manifest_task_keys_carry_protocol_tokens(self, tmp_path):
        specs = self._grid_specs()
        base = tmp_path / "grid.json"
        run_experiments(specs, config=SweepConfig(checkpoint=base, shard=(0, 2)))
        manifest = json.loads(manifest_path(base).read_text())
        keys = [key for shard in manifest["shards"] for key in shard["tasks"]]
        assert len(keys) == 2 * 2 * len(SEEDS)
        assert all("|flooding:c=" in key for key in keys)

    def test_variant_cells_report_their_token(self, tmp_path):
        specs = self._grid_specs()
        results = run_experiments(
            specs,
            config=SweepConfig(checkpoint=tmp_path / "grid.json"),
        )
        tokens = {
            cell.protocol for result in results for cell in result.cells
        }
        assert tokens == {"flooding:c=2.0", "flooding:c=3.0"}
