"""Append-only JSONL checkpoint store tests.

Pins the on-disk contract of :class:`repro.parallel.store.JsonlCheckpointStore`:
one header line plus one line per completed run, flushes that append
rather than rewrite, refusal of header-less files (such as the whole-file
JSON checkpoints of earlier builds) before anything is written,
tolerance of a torn trailing line from a writer killed mid-append, and
compaction once dead lines outnumber live records.
"""

import json

import pytest

from repro.analysis import ExperimentSpec
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


def _spec():
    return ExperimentSpec(
        name="flooding",
        protocol="flooding",
        topologies=[cycle(8), star(8)],
        seeds=SEEDS,
        collect_profile=False,
    )


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

    def test_run_store_reads_see_only_stored_keys(self, tmp_path):
        path = tmp_path / "ck.json"
        records = _records(3)
        JsonlCheckpointStore(path).write_fresh(records)
        store = JsonlCheckpointStore(path)
        assert len(store) == 3
        assert "key-1" in store and "key-9" not in store
        assert store.get("key-2") == records["key-2"]
        assert store.get("key-9") is None
        assert store.fetch(["key-0", "key-9", "key-2"]) == {
            "key-0": records["key-0"],
            "key-2": records["key-2"],
        }

    def test_unreadable_future_version_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(
            json.dumps({"format": "jsonl", "kind": "checkpoint", "version": 99})
            + "\n"
        )
        with pytest.raises(ConfigurationError, match="version"):
            JsonlCheckpointStore(path).load()


class TestPreJsonlFiles:
    def test_whole_file_json_checkpoint_rejected_before_any_write(self, tmp_path):
        path = tmp_path / "ck.json"
        _write_legacy(path, _records(2))
        before = path.read_bytes()
        with pytest.raises(ConfigurationError, match="predates the JSONL format") as info:
            run_experiments([_spec()], config=SweepConfig(checkpoint=path))
        assert str(path) in str(info.value)
        store = JsonlCheckpointStore(path, flush_interval_seconds=0.0)
        with pytest.raises(ConfigurationError, match="predates the JSONL format"):
            store.add("key-9", _records(1)["key-0"])
        assert path.read_bytes() == before

    @pytest.mark.parametrize(
        "content, problem",
        [
            ('{"version": 1, "runs": {}}', "has no JSONL header line"),
            ("[]", "has no JSONL header line"),
            ('{"key": "k", "record": {}}\n', "has no JSONL header line"),
            (
                '{"key": "a", "record": {}}\n{"key": "b", "record": {}}\n',
                "neither a JSONL checkpoint nor valid JSON",
            ),
            ("leader elected\n", "neither a JSONL checkpoint nor valid JSON"),
        ],
    )
    def test_header_less_file_rejected_at_load_by_path(self, tmp_path, content, problem):
        path = tmp_path / "ck.json"
        path.write_text(content, encoding="utf-8")
        store = JsonlCheckpointStore(path, flush_interval_seconds=0.0)
        with pytest.raises(ConfigurationError, match=problem) as info:
            store.load()
        assert str(path) in str(info.value)
        assert "predates the JSONL format" in str(info.value)
        assert path.read_text(encoding="utf-8") == content


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

    def test_write_fresh_replaces_the_file_unread(self, tmp_path):
        path = tmp_path / "ck.json"
        records = _records(3)
        stale = JsonlCheckpointStore(path, flush_interval_seconds=0.0)
        stale.add("stale", records["key-0"])
        stale.flush()
        JsonlCheckpointStore(path).write_fresh(
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

    def test_appends_and_rewrites_leave_only_the_checkpoint(self, tmp_path):
        path = tmp_path / "ck.json"
        store = JsonlCheckpointStore(path, flush_interval_seconds=0.0)
        records = _records(2)
        for key, record in records.items():
            store.add(key, record)  # two appending flushes
        # Superseding one record 70 times leaves more dead lines than
        # max(64, live records): the last flush is an atomic rewrite.
        for i in range(70):
            changed = dict(records["key-0"])
            changed["wall_clock_seconds"] = float(i)
            store.add("key-0", changed)
        assert len(path.read_text().splitlines()) < 20
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]
        assert set(JsonlCheckpointStore(path).load()) == set(records)

    def test_flush_interval_validation(self, tmp_path):
        for bad in (-1.0, float("nan")):
            with pytest.raises(ConfigurationError, match="flush_interval_seconds"):
                JsonlCheckpointStore(tmp_path / "ck.json", flush_interval_seconds=bad)
        # Zero (flush on every add) stays legal.
        JsonlCheckpointStore(tmp_path / "ok.json", flush_interval_seconds=0.0)
