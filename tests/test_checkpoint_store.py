"""Append-only JSONL checkpoint store tests.

Pins the on-disk contract of :class:`repro.parallel.store.JsonlCheckpointStore`:
one header line plus one line per completed run, flushes that append
rather than rewrite, transparent reads of legacy whole-file JSON
checkpoints (migrated to JSONL on the first real flush, with nothing
re-executed), tolerance of a torn trailing line from a writer killed
mid-append, compaction once dead lines outnumber live records, and the
staged partial/publish discipline the work-stealing shard path uses.
"""

import json
import os
from pathlib import Path

import pytest

from repro.analysis import ExperimentSpec, run_experiment
from repro.core.errors import ConfigurationError
from repro.graphs import cycle, star
from repro.parallel import (
    JsonlCheckpointStore,
    SweepConfig,
    result_to_record,
    run_experiments,
)
from repro.protocols import run_protocol

SEEDS = (0, 1, 2)


def _spec(seeds=SEEDS, name="flooding"):
    return ExperimentSpec(
        name=name,
        protocol=name,
        topologies=[cycle(8), star(8)],
        seeds=seeds,
        collect_profile=False,
    )


def _comparable(cells):
    rows = []
    for cell in cells:
        row = cell.as_dict()
        row.pop("mean_wall_clock_seconds")
        rows.append(row)
    return rows


def _records(count):
    out = {}
    for seed in range(count):
        result = run_protocol("flooding", cycle(8), seed)
        out[f"key-{seed}"] = result_to_record(result, 0.1 * (seed + 1))
    return out


def _write_legacy(path, records):
    """Write a whole-file JSON checkpoint, the format earlier builds wrote."""
    path.write_text(
        json.dumps({"version": 1, "runs": records}, indent=1, sort_keys=True),
        encoding="utf-8",
    )


def _counted_runner(topology, seed):
    with open(os.environ["REPRO_STORE_COUNT_FILE"], "a", encoding="utf-8") as f:
        f.write(f"{topology.name} {seed}\n")
    return run_protocol("flooding", topology, seed)


class TestJsonlFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ck.json"
        store = JsonlCheckpointStore(path, flush_interval_seconds=0.0)
        records = _records(3)
        for key, record in records.items():
            store.add(key, record)
        store.flush()
        reloaded = JsonlCheckpointStore(path).load()
        assert reloaded == records
        # The records survive a JSON round-trip untouched (same contract
        # as the legacy store).
        assert json.loads(json.dumps(reloaded)) == reloaded

    def test_header_line_identifies_format(self, tmp_path):
        path = tmp_path / "ck.json"
        store = JsonlCheckpointStore(path, flush_interval_seconds=0.0)
        store.add("k", _records(1)["key-0"])
        store.flush()
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"format": "jsonl", "kind": "checkpoint", "version": 1}

    def test_flushes_append_instead_of_rewriting(self, tmp_path):
        path = tmp_path / "ck.json"
        store = JsonlCheckpointStore(path, flush_interval_seconds=0.0)
        records = _records(4)
        keys = list(records)
        store.add(keys[0], records[keys[0]])
        store.add(keys[1], records[keys[1]])
        store.flush()
        first = path.read_bytes()
        store.add(keys[2], records[keys[2]])
        store.add(keys[3], records[keys[3]])
        store.flush()
        second = path.read_bytes()
        # Append-only: the earlier flush is a byte prefix of the later one.
        assert second.startswith(first)
        assert len(second.splitlines()) == 1 + 4
        assert JsonlCheckpointStore(path).load() == records

    def test_identical_re_add_writes_nothing(self, tmp_path):
        path = tmp_path / "ck.json"
        store = JsonlCheckpointStore(path, flush_interval_seconds=0.0)
        record = _records(1)["key-0"]
        store.add("k", record)
        store.flush()
        before = path.read_bytes()
        again = JsonlCheckpointStore(path, flush_interval_seconds=0.0)
        again.add("k", dict(record))
        again.flush()
        assert path.read_bytes() == before

    def test_unreadable_future_version_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(
            json.dumps({"format": "jsonl", "kind": "checkpoint", "version": 99})
            + "\n"
        )
        with pytest.raises(ConfigurationError, match="version"):
            JsonlCheckpointStore(path).load()


class TestLegacyTransparency:
    def test_reads_legacy_whole_file_json(self, tmp_path):
        path = tmp_path / "ck.json"
        records = _records(3)
        _write_legacy(path, records)
        assert json.loads(path.read_text())["runs"] == records
        assert JsonlCheckpointStore(path).load() == records

    def test_migrates_to_jsonl_on_first_flush(self, tmp_path):
        path = tmp_path / "ck.json"
        records = _records(2)
        _write_legacy(path, records)
        store = JsonlCheckpointStore(path, flush_interval_seconds=0.0)
        extra = _records(3)["key-2"]
        store.add("key-2", extra)
        store.flush()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == "jsonl"
        assert JsonlCheckpointStore(path).load() == {**records, "key-2": extra}

    def test_legacy_resume_executes_only_missing_runs(
        self, tmp_path, monkeypatch, register_fake_protocol
    ):
        """The satellite pin: a legacy-JSON checkpoint resumes through the
        JSONL default with zero re-execution, and the results are
        bit-identical to an uncheckpointed serial sweep."""
        register_fake_protocol("counted", _counted_runner)
        count_file = tmp_path / "runs.log"
        monkeypatch.setenv("REPRO_STORE_COUNT_FILE", str(count_file))
        checkpoint = tmp_path / "ck.json"
        serial = run_experiment(_spec(name="counted"))
        count_file.write_text("")

        # Interrupted sweep, 2 of 3 seeds done, its runs then saved in
        # the legacy format.
        partial = tmp_path / "partial.jsonl"
        run_experiments(
            [_spec(seeds=(0, 1), name="counted")],
            config=SweepConfig(checkpoint=partial),
        )
        assert len(count_file.read_text().splitlines()) == 4
        _write_legacy(checkpoint, JsonlCheckpointStore(partial).load())
        assert "runs" in json.loads(checkpoint.read_text())

        # Resume with the JSONL default: only the 2 missing runs execute,
        # the file migrates, and the cells match the serial sweep exactly.
        resumed = run_experiments(
            [_spec(name="counted")],
            config=SweepConfig(workers=2, checkpoint=checkpoint),
        )[0]
        assert len(count_file.read_text().splitlines()) == 6
        assert _comparable(resumed.cells) == _comparable(serial.cells)
        header = json.loads(checkpoint.read_text().splitlines()[0])
        assert header["format"] == "jsonl"

        # A further pass is a pure replay: nothing executes, and the
        # checkpoint is byte-identical afterwards.
        before = checkpoint.read_bytes()
        replayed = run_experiments(
            [_spec(name="counted")],
            config=SweepConfig(checkpoint=checkpoint),
        )[0]
        assert len(count_file.read_text().splitlines()) == 6
        assert _comparable(replayed.cells) == _comparable(serial.cells)
        assert checkpoint.read_bytes() == before


class TestCorruptionTolerance:
    def test_torn_trailing_line_is_dropped_and_repaired(self, tmp_path):
        path = tmp_path / "ck.json"
        store = JsonlCheckpointStore(path, flush_interval_seconds=0.0)
        records = _records(3)
        for key, record in records.items():
            store.add(key, record)
        store.flush()
        # A writer died mid-append: the last line is torn.
        torn = path.read_text()[: -20]
        path.write_text(torn)
        reloaded = JsonlCheckpointStore(path, flush_interval_seconds=0.0)
        runs = reloaded.load()
        assert set(runs) == set(list(records)[:2])
        # The repair lands on the next flush: a rewrite with only intact
        # lines (plus whatever was re-added).
        reloaded.add("key-2", records["key-2"])
        reloaded.flush()
        assert JsonlCheckpointStore(path).load() == records
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_corrupt_interior_line_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        store = JsonlCheckpointStore(path, flush_interval_seconds=0.0)
        for key, record in _records(2).items():
            store.add(key, record)
        store.flush()
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-5]  # corrupt a non-trailing record line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="corrupt"):
            JsonlCheckpointStore(path).load()

    def test_non_checkpoint_json_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"not": "a checkpoint"}))
        with pytest.raises(ConfigurationError, match="runs"):
            JsonlCheckpointStore(path).load()


class TestCompaction:
    def test_superseded_lines_trigger_rewrite(self, tmp_path):
        path = tmp_path / "ck.json"
        store = JsonlCheckpointStore(path, flush_interval_seconds=0.0)
        record = _records(1)["key-0"]
        store.add("k", record)
        store.flush()
        # Re-add the same key with changing payloads: every version but
        # the last is a dead line.
        for i in range(70):
            changed = dict(record)
            changed["elapsed_seconds"] = float(i)
            store.add("k", changed)
        store.flush()
        # Once dead lines outnumber max(64, live records) a flush rewrites:
        # the file stays bounded instead of holding all 71 versions.
        lines = path.read_text().splitlines()
        assert len(lines) < 20
        assert JsonlCheckpointStore(path).load()["k"]["elapsed_seconds"] == 69.0

    def test_explicit_compact_strips_node_results(self, tmp_path):
        path = tmp_path / "ck.json"
        store = JsonlCheckpointStore(path, flush_interval_seconds=0.0)
        for key, record in _records(2).items():
            store.add(key, record)
        store.flush()
        store = JsonlCheckpointStore(path, flush_interval_seconds=0.0)
        assert store.compact() == 2
        store.flush()
        runs = JsonlCheckpointStore(path).load()
        assert all("node_results" not in record for record in runs.values())
        # Fully-compacted stores are byte-deterministic: header + records
        # sorted by key.
        keys = [json.loads(line)["key"] for line in path.read_text().splitlines()[1:]]
        assert keys == sorted(keys)

    def test_write_fresh_replaces_the_file_unread(self, tmp_path):
        path = tmp_path / "ck.json"
        records = _records(3)
        stale = JsonlCheckpointStore(path, flush_interval_seconds=0.0)
        stale.add("stale", records["key-0"])
        stale.flush()
        JsonlCheckpointStore(path, compact=True).write_fresh(
            {key: records[key] for key in ("key-2", "key-0", "key-1")}
        )
        lines = path.read_text().splitlines()
        assert [json.loads(line)["key"] for line in lines[1:]] == [
            "key-0",
            "key-1",
            "key-2",
        ]
        runs = JsonlCheckpointStore(path).load()
        assert all("node_results" not in record for record in runs.values())
        assert not list(tmp_path.glob("*.tmp"))

    def test_flush_interval_validation(self, tmp_path):
        for bad in (-1.0, float("nan")):
            with pytest.raises(ConfigurationError, match="flush_interval_seconds"):
                JsonlCheckpointStore(tmp_path / "ck.json", flush_interval_seconds=bad)
        # Zero (flush on every add) stays legal.
        JsonlCheckpointStore(tmp_path / "ok.json", flush_interval_seconds=0.0)


class TestStagedMode:
    def test_partial_sidecar_then_atomic_publish(self, tmp_path):
        path = tmp_path / "block.json"
        records = _records(2)
        staged = JsonlCheckpointStore(
            path, flush_interval_seconds=0.0, staged=True
        )
        for key, record in records.items():
            staged.add(key, record)
        staged.flush()
        # Flushes land in the writer-unique partial; the real path does
        # not exist until publish.
        (partial,) = tmp_path.glob(f"block.json.{os.getpid()}-*.partial")
        assert partial == staged._partial_path() and not path.exists()
        staged.publish()
        assert path.exists() and not partial.exists()
        assert JsonlCheckpointStore(path).load() == records

    def test_load_folds_in_dead_writers_partial(self, tmp_path):
        # A dead job flushed one run to its partial but never published:
        # the thief's store resumes that progress instead of redoing it.
        path = tmp_path / "block.json"
        records = _records(2)
        dead_partial = Path(f"{path}.99999.partial")
        dead_partial.write_text(
            json.dumps(
                {"format": "jsonl", "kind": "checkpoint", "version": 1},
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
            + json.dumps(
                {"key": "key-0", "record": records["key-0"]},
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
        )
        thief = JsonlCheckpointStore(
            path, flush_interval_seconds=0.0, staged=True
        )
        assert thief.load() == {"key-0": records["key-0"]}
        thief.add("key-1", records["key-1"])
        thief.publish()
        assert not dead_partial.exists()
        assert JsonlCheckpointStore(path).load() == records
