"""Tests for the result archive and the memoized query layer.

The load-bearing guarantees:

* equivalence — archive-backed query results (hits + filled misses, any
  worker count, any populate path: live sink, checkpoint add, sharded
  merge) are bit-identical to a direct ``run_experiments`` sweep, the
  wall-clock column aside;
* memoization — the second identical query simulates zero cells;
* failure modes — torn/corrupt SQLite files and schema-version
  mismatches are refused with a clear ``ConfigurationError``, and
  concurrent writers archiving overlapping shards converge by task key.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import shutil
import sqlite3
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.analysis.experiments import summarize_results
from repro.archive import service as service_module
from repro.archive import (
    SCHEMA_VERSION,
    ArchiveSink,
    ResultArchive,
    parse_task_key,
    query_experiments,
)
from repro.baselines import run_flooding_election
from repro.cli import main
from repro.core.errors import ConfigurationError
from repro.graphs import cycle, path
from repro.parallel.runner import SweepConfig, run_experiments
from repro.parallel.sharding import expand_run_tasks
from repro.parallel.store import JsonlCheckpointStore
from repro.workloads import sweep_specs


def small_specs(algorithms=("flooding",), seeds=(0, 1)):
    return sweep_specs(
        list(algorithms),
        [cycle(6), path(5)],
        seeds=tuple(seeds),
        collect_profile=False,
    )


def stripped_cells(results):
    """Per-cell dict rows without the one nondeterministic column."""
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
# store
# --------------------------------------------------------------------------- #


class TestResultArchiveStore:
    def test_roundtrip_and_merge_by_key(self, tmp_path):
        db = tmp_path / "a.sqlite"
        records = {
            "s|0|cycle_6|f1|0|0|": {"seed": 0, "payload": 1},
            "s|0|cycle_6|f1|1|1|": {"seed": 1, "payload": 2},
        }
        with ResultArchive(db) as archive:
            assert archive.add_records(records) == 2
            # replacing the same keys adds nothing new
            assert archive.add_records(records) == 0
            assert len(archive) == 2
            assert "s|0|cycle_6|f1|0|0|" in archive
            fetched = archive.fetch(list(records) + ["missing|0|x|f|0|0|"])
        assert fetched == records

    def test_stats_counts_specs(self, tmp_path):
        with ResultArchive(tmp_path / "a.sqlite") as archive:
            archive.add_records(
                {
                    "a|0|t|f|0|0|": {"x": 1},
                    "a|0|t|f|1|1|": {"x": 2},
                    "b|0|t|f|0|0|loss:p=0.1|irrevocable:c=2": {"x": 3},
                }
            )
            stats = archive.stats()
        assert stats["runs"] == 3
        assert stats["specs"] == 2
        assert stats["distinct_adversaries"] == 1
        assert stats["distinct_protocols"] == 1
        assert stats["schema_version"] == SCHEMA_VERSION

    def test_parse_task_key_roundtrip(self):
        specs = small_specs()
        for task in expand_run_tasks(specs[0]):
            coords = parse_task_key(task.key)
            assert coords.spec_name == task.spec_name
            assert coords.topology_index == task.topology_index
            assert coords.seed_index == task.seed_index
            assert coords.seed == task.seed
            assert coords.fingerprint == task.fingerprint

    def test_parse_task_key_rejects_malformed(self):
        with pytest.raises(ConfigurationError):
            parse_task_key("only|three|parts")
        with pytest.raises(ConfigurationError):
            parse_task_key("s|zero|t|f|not-an-int|0|")

    def test_malformed_key_rejected_before_any_write(self, tmp_path):
        with ResultArchive(tmp_path / "a.sqlite") as archive:
            archive.add_records({"s|0|t|f|0|0|": {"x": 1}})
            with pytest.raises(ConfigurationError):
                archive.add_records(
                    {"s|0|t|f|1|1|": {"x": 2}, "torn": {"x": 3}}
                )
            # the failed batch left the archive at its previous state
            assert len(archive) == 1


class TestArchiveFailureModes:
    def test_garbage_file_refused(self, tmp_path):
        db = tmp_path / "junk.sqlite"
        db.write_text("this is not a sqlite database, not even close\n")
        with pytest.raises(ConfigurationError, match="not a result archive"):
            ResultArchive(db)

    def test_torn_write_truncated_file_refused_with_clear_error(self, tmp_path):
        db = tmp_path / "torn.sqlite"
        with ResultArchive(db) as archive:
            archive.add_records(
                {f"s|0|t|f|{i}|{i}|": {"x": i} for i in range(50)}
            )
        # a crash mid-write tears the file: keep the header, lose the rest
        raw = db.read_bytes()
        db.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ConfigurationError, match="re-populate"):
            with ResultArchive(db) as archive:
                archive.fetch(["s|0|t|f|0|0|"])

    def test_schema_version_mismatch_refused(self, tmp_path):
        db = tmp_path / "future.sqlite"
        ResultArchive(db).close()
        conn = sqlite3.connect(str(db))
        with conn:
            conn.execute(
                "UPDATE archive_meta SET value='999' WHERE key='schema_version'"
            )
        conn.close()
        with pytest.raises(ConfigurationError, match="schema version 999"):
            ResultArchive(db)

    def test_foreign_sqlite_database_refused(self, tmp_path):
        db = tmp_path / "foreign.sqlite"
        conn = sqlite3.connect(str(db))
        with conn:
            conn.execute("CREATE TABLE users (id INTEGER PRIMARY KEY)")
        conn.close()
        with pytest.raises(ConfigurationError, match="foreign"):
            ResultArchive(db)

    def test_open_and_fetch_do_not_wait_for_a_held_write_lock(self, tmp_path):
        db = tmp_path / "busy.sqlite"
        with ResultArchive(db) as archive:
            archive.add_records({"s|0|t|f|0|0|": {"x": 1}})
        writer = sqlite3.connect(str(db))
        writer.execute("BEGIN IMMEDIATE")
        try:
            with ResultArchive(db, timeout_seconds=0.5) as archive:
                assert archive.fetch(["s|0|t|f|0|0|"]) == {"s|0|t|f|0|0|": {"x": 1}}
        finally:
            writer.rollback()
            writer.close()

    def test_locked_archive_reported_busy_not_corrupt(self, tmp_path):
        db = tmp_path / "locked.sqlite"
        ResultArchive(db).close()
        writer = sqlite3.connect(str(db))
        writer.execute("BEGIN EXCLUSIVE")
        try:
            with pytest.raises(ConfigurationError, match="is busy") as caught:
                ResultArchive(db, timeout_seconds=0.1)
            assert "re-populate" not in str(caught.value)
        finally:
            writer.rollback()
            writer.close()
        with ResultArchive(db) as archive:
            assert len(archive) == 0

    def test_concurrent_writers_overlapping_shards_dedupe_by_key(self, tmp_path):
        db = tmp_path / "shared.sqlite"
        ResultArchive(db).close()
        keys = [f"s|0|t|f|{i}|{i}|" for i in range(120)]
        # two writers cover overlapping halves [0, 80) and [40, 120), in
        # small batches, concurrently — the archive must converge to one
        # row per key with a valid record
        slices = [(0, 80), (40, 120)]
        failures = []

        def writer(lo, hi):
            try:
                with ResultArchive(db, timeout_seconds=60.0) as archive:
                    for start in range(lo, hi, 10):
                        archive.add_records(
                            {
                                key: {"value": index}
                                for index, key in enumerate(
                                    keys[start : start + 10], start
                                )
                            }
                        )
            except ConfigurationError as error:  # pragma: no cover - fail loud
                failures.append(error)

        threads = [threading.Thread(target=writer, args=s) for s in slices]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        with ResultArchive(db) as archive:
            assert len(archive) == 120
            fetched = archive.fetch(keys)
        assert set(fetched) == set(keys)
        for index, key in enumerate(keys):
            assert fetched[key] == {"value": index}


# --------------------------------------------------------------------------- #
# live archiving sink
# --------------------------------------------------------------------------- #


class TestArchiveSink:
    def test_sweep_with_sink_populates_archive(self, tmp_path):
        db = tmp_path / "a.sqlite"
        specs = small_specs()
        run_experiments(specs, sinks=[ArchiveSink(db, specs)])
        wanted = {task.key for spec in specs for task in expand_run_tasks(spec)}
        with ResultArchive(db) as archive:
            assert set(archive.keys()) == wanted

    def test_emit_outside_specs_is_rejected(self, tmp_path):
        specs = small_specs()
        sink = ArchiveSink(tmp_path / "a.sqlite", specs)
        with pytest.raises(ConfigurationError, match="outside its specs"):
            sink.emit("not-a-spec", 0, 0, object(), 0.0)
        sink.close()

    def test_abort_keeps_completed_runs(self, tmp_path):
        db = tmp_path / "a.sqlite"
        specs = small_specs(seeds=(0,))
        sink = ArchiveSink(db, specs, flush_every=1000)
        results = run_experiments(specs, sinks=[])
        # emit one real run, then abort: the measurement must survive
        tasks = expand_run_tasks(specs[0])
        record_source = JsonlCheckpointStore(tmp_path / "ck.jsonl")
        del record_source, results
        from repro.analysis.experiments import execute_run, effective_runner
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            runner = effective_runner(specs[0])
        run, elapsed = execute_run(runner, tasks[0].topology, tasks[0].seed)
        sink.emit(specs[0].name, 0, 0, run, elapsed)
        sink.abort()
        with ResultArchive(db) as archive:
            assert tasks[0].key in archive


# --------------------------------------------------------------------------- #
# memoized query equivalence
# --------------------------------------------------------------------------- #


class TestQueryEquivalence:
    def test_cold_then_warm_query_matches_direct_sweep(self, tmp_path):
        db = tmp_path / "a.sqlite"
        specs = small_specs()
        direct = run_experiments(specs)

        cold = query_experiments(specs, archive=db)
        assert cold.report.requested_runs == 4
        assert cold.report.simulated_runs == 4
        assert cold.report.archive_added == 4

        warm = query_experiments(specs, archive=db)
        assert warm.report.simulated_runs == 0
        assert warm.report.simulated_cells == 0
        assert warm.report.archived_runs == 4
        assert warm.report.hit_rate == 1.0

        assert (
            stripped_cells(direct)
            == stripped_cells(cold.results)
            == stripped_cells(warm.results)
        )

    def test_query_with_workers_matches_serial_direct_sweep(self, tmp_path):
        specs = small_specs()
        direct = run_experiments(specs)
        answer = query_experiments(
            specs,
            archive=tmp_path / "a.sqlite",
            config=SweepConfig(workers=2),
        )
        assert stripped_cells(direct) == stripped_cells(answer.results)

    def test_partial_archive_fills_only_missing_cells(self, tmp_path):
        db = tmp_path / "a.sqlite"
        narrow = small_specs(seeds=(0,))
        query_experiments(narrow, archive=db)

        wide = small_specs(seeds=(0, 1, 2))
        direct = run_experiments(wide)
        answer = query_experiments(wide, archive=db)
        assert answer.report.requested_runs == 6
        assert answer.report.archived_runs == 2
        assert answer.report.simulated_runs == 4
        assert stripped_cells(direct) == stripped_cells(answer.results)

    def test_sharded_populate_then_merge_then_add_hits_everything(self, tmp_path):
        db = tmp_path / "a.sqlite"
        specs = small_specs()
        checkpoint = tmp_path / "sweep.jsonl"
        for index in range(2):
            run_experiments(
                specs,
                config=SweepConfig(checkpoint=checkpoint, shard=(index, 2)),
            )
        from repro.parallel import merge_shard_checkpoints
        from repro.parallel.checkpoint import manifest_path

        merged = tmp_path / "merged.jsonl"
        merge_shard_checkpoints(manifest_path(checkpoint), merged)
        with ResultArchive(db) as archive:
            archive.add_records(JsonlCheckpointStore(merged).load())

        direct = run_experiments(specs)
        answer = query_experiments(specs, archive=db)
        assert answer.report.simulated_runs == 0
        assert stripped_cells(direct) == stripped_cells(answer.results)

    def test_adversarial_query_preserves_safety_and_curves(self, tmp_path):
        from repro.analysis.robustness import curves_as_dicts, fold_experiments

        specs, adversarial = api.plan_sweep(
            topologies=[cycle(6)],
            algorithms=["flooding"],
            scenario="lossy",
            seeds=1,
            collect_profile=False,
        )
        assert adversarial
        direct = run_experiments(specs)
        cold = query_experiments(specs, archive=tmp_path / "a.sqlite")
        warm = query_experiments(specs, archive=tmp_path / "a.sqlite")
        assert warm.report.simulated_cells == 0
        assert (
            curves_as_dicts(fold_experiments(specs, direct))
            == curves_as_dicts(fold_experiments(specs, cold.results))
            == curves_as_dicts(fold_experiments(specs, warm.results))
        )

    def test_reserved_runner_kwargs_rejected(self, tmp_path):
        specs = small_specs()
        checkpoint = tmp_path / "ck.jsonl"
        for config in (
            SweepConfig(checkpoint=checkpoint),
            SweepConfig(checkpoint=checkpoint, shard=(0, 2)),
        ):
            with pytest.raises(ConfigurationError, match="does not accept"):
                query_experiments(
                    specs, archive=tmp_path / "a.sqlite", config=config
                )


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #


class TestArchiveCli:
    BASE = [
        "--suite",
        "tiny",
        "--algorithms",
        "flooding",
        "--seeds",
        "1",
        "--no-profile",
    ]

    def test_sweep_archive_then_query_simulates_nothing(self, capsys, tmp_path):
        db = str(tmp_path / "a.sqlite")
        assert main(["sweep"] + self.BASE + ["--archive", db]) == 0
        capsys.readouterr()
        assert main(["query"] + self.BASE + ["--archive", db]) == 0
        out = capsys.readouterr().out
        assert "simulated_runs  : 0" in out
        assert "simulated_cells : 0" in out

    def test_query_json_is_bit_identical_across_passes(self, capsys, tmp_path):
        db = str(tmp_path / "a.sqlite")
        args = ["query"] + self.BASE + ["--archive", db]
        assert main(args + ["--json", str(tmp_path / "one.json")]) == 0
        assert main(args + ["--json", str(tmp_path / "two.json")]) == 0
        capsys.readouterr()
        one = json.loads((tmp_path / "one.json").read_text())
        two = json.loads((tmp_path / "two.json").read_text())
        assert two["report"]["simulated_cells"] == 0
        assert one["curves"] == two["curves"]

        def strip(cells):
            return [
                {k: v for k, v in cell.items() if k != "mean_wall_clock_seconds"}
                for cell in cells
            ]

        assert strip(one["cells"]) == strip(two["cells"])

    def test_archive_add_and_stats_roundtrip(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "ck.jsonl")
        db = str(tmp_path / "a.sqlite")
        assert main(["sweep"] + self.BASE + ["--checkpoint", checkpoint]) == 0
        capsys.readouterr()
        assert main(["archive", "add", checkpoint, "--archive", db]) == 0
        out = capsys.readouterr().out
        assert "records_added" in out
        assert main(["archive", "stats", "--archive", db]) == 0
        out = capsys.readouterr().out
        assert "runs per spec" in out

    def test_archive_stats_empty_archive_exits_one(self, capsys, tmp_path):
        db = str(tmp_path / "empty.sqlite")
        ResultArchive(db).close()
        assert main(["archive", "stats", "--archive", db]) == 1

    def test_archive_add_garbage_checkpoint_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{definitely not json")
        code = main(
            ["archive", "add", str(bad), "--archive", str(tmp_path / "a.sqlite")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_query_corrupt_archive_exits_two(self, capsys, tmp_path):
        db = tmp_path / "junk.sqlite"
        db.write_text("not sqlite")
        code = main(["query"] + self.BASE + ["--archive", str(db)])
        assert code == 2
        assert "not a result archive" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# HTTP service
# --------------------------------------------------------------------------- #


@pytest.fixture
def archive_server(tmp_path):
    server = api.serve(
        archive=tmp_path / "served.sqlite", host="127.0.0.1", port=0, block=False
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


#: The gated protocol signals ``entered`` from inside its run (and so
#: inside any fault scope around it) and finishes once ``release`` is set.
_GATE_ENTERED = threading.Event()
_GATE_RELEASE = threading.Event()


def gated_flooding(topology, seed):
    """Flooding that holds its run open until the test releases it."""
    _GATE_ENTERED.set()
    _GATE_RELEASE.wait(timeout=60)
    return run_flooding_election(topology, seed=seed)


def get_json(url):
    with urllib.request.urlopen(url) as response:
        return json.loads(response.read().decode("utf-8"))


def without_wall_clock(payload):
    """A query payload without the one nondeterministic cell column."""
    cells = [
        {k: v for k, v in cell.items() if k != "mean_wall_clock_seconds"}
        for cell in payload["cells"]
    ]
    return {**payload, "cells": cells}


class TestArchiveService:
    QUERY = "/query?suite=tiny&algorithms=flooding&seeds=1"

    def test_health_and_stats(self, archive_server):
        health = get_json(archive_server + "/health")
        assert health["status"] == "ok"
        assert health["runs"] == 0
        stats = get_json(archive_server + "/stats")
        assert stats["schema_version"] == SCHEMA_VERSION

    def test_query_twice_second_pass_simulates_nothing(self, archive_server):
        one = get_json(archive_server + self.QUERY)
        assert one["report"]["simulated_runs"] == 5
        two = get_json(archive_server + self.QUERY)
        assert two["report"]["simulated_cells"] == 0
        assert two["report"]["archived_runs"] == 5

        def strip(cells):
            return [
                {k: v for k, v in cell.items() if k != "mean_wall_clock_seconds"}
                for cell in cells
            ]

        assert strip(one["cells"]) == strip(two["cells"])
        assert get_json(archive_server + "/health")["runs"] == 5

    def test_bad_parameters_return_400_with_json_error(self, archive_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(archive_server + "/query?scenario=sunny-day")
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert "unknown scenario" in body["error"]

    @pytest.mark.parametrize(
        "query, message",
        [
            ("suit=tiny", "unknown /query parameter(s) suit"),
            ("suite=tiny&seed=", "unknown /query parameter(s) seed"),
            ("suite=tiny&profile=yes", "must be 0, 1, true or false"),
            ("suite=tiny&algorithms=&seeds=2", "blank /query parameter(s) algorithms"),
            ("suite=&algorithms=flooding&seeds=1", "blank /query parameter(s) suite"),
            ("suite=tiny&algorithms=flooding&profile=", "blank /query parameter(s) profile"),
            ("suite=tiny&algorithms=,&seeds=1", "algorithms must name at least one"),
            ("suite=tiny&algorithms=flooding&seeds=x", "parameter 'seeds' must be an integer, got 'x'"),
        ],
        ids=[
            "unknown-name", "unknown-blank-name", "bad-profile",
            "blank-algorithms", "blank-suite", "blank-profile",
            "no-algorithm", "non-integer-seeds",
        ],  # fmt: skip
    )
    def test_unknown_parameter_returns_400_and_runs_nothing(
        self, archive_server, query, message
    ):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(archive_server + "/query?" + query)
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read().decode("utf-8"))["error"]
        assert message in error
        if "suit=" in query:
            for name in (
                "suite", "algorithms", "scenario", "adversary",
                "adversary_param", "seeds", "profile",
            ):  # fmt: skip
                assert name in error
        # Nothing was planned, simulated or archived.
        assert get_json(archive_server + "/health")["runs"] == 0

    def test_planner_rejects_an_algorithm_list_naming_none(self):
        with pytest.raises(ConfigurationError, match="algorithms must name"):
            api.plan_sweep(suite="tiny", algorithms=[], seeds=1)

    @pytest.mark.parametrize(
        "cli_args, url_args",
        [
            (["--no-profile"], ""),
            ([], "&profile=1"),
            (
                ["--no-profile", "--adversary", "loss", "--adversary-param", "p=0.2"],
                "&adversary=loss&adversary_param=p=0.2",
            ),
        ],
        ids=["unprofiled", "profiled", "loss"],
    )
    def test_query_json_and_http_query_give_one_answer(
        self, archive_server, tmp_path, capsys, cli_args, url_args
    ):
        out = tmp_path / "answer.json"
        argv = [
            "query", "--suite", "tiny", "--algorithms", "flooding", "gilbert",
            "--seeds", "2", *cli_args,
            "--archive", str(tmp_path / "served.sqlite"), "--json", str(out),
        ]  # fmt: skip
        # The first pass fills the archive; the warm passes compare, so
        # both reports read "everything archived".
        assert main(argv) == 0
        assert main(argv) == 0
        capsys.readouterr()
        cli = json.loads(out.read_text(encoding="utf-8"))
        http = get_json(
            archive_server + "/query?suite=tiny&algorithms=flooding,gilbert&seeds=2"
            + url_args
        )
        assert cli["report"]["simulated_runs"] == 0
        assert cli["report"]["archived_runs"] == 20
        assert without_wall_clock(http) == without_wall_clock(cli)

    def test_concurrent_queries_run_under_their_own_adversaries(
        self, archive_server, tmp_path, register_fake_protocol
    ):
        register_fake_protocol("gated-flooding", gated_flooding)
        _GATE_ENTERED.clear()
        _GATE_RELEASE.clear()
        lossy = {}
        request_a = threading.Thread(
            target=lambda: lossy.update(
                get_json(
                    archive_server + "/query?suite=tiny&seeds=2"
                    "&algorithms=gated-flooding&adversary=loss&adversary_param=p%3D0.5"
                )
            )
        )
        request_a.start()
        try:
            # Request A now holds a run open inside its fault scope while
            # request B simulates its fault-free grid.
            assert _GATE_ENTERED.wait(timeout=60)
            clean = get_json(archive_server + "/query?suite=tiny&seeds=2&algorithms=flooding")
        finally:
            _GATE_RELEASE.set()
            request_a.join(timeout=60)
        assert lossy["report"]["simulated_runs"] == 10

        specs, _ = api.plan_sweep(
            suite="tiny", algorithms=["flooding"], seeds=2, collect_profile=False
        )
        expected = {"cells": summarize_results(api.sweep(specs))}
        assert without_wall_clock(clean)["cells"] == without_wall_clock(expected)["cells"]
        conn = sqlite3.connect(str(tmp_path / "served.sqlite"))
        try:
            rows = conn.execute("SELECT record FROM runs WHERE adversary = ''").fetchall()
        finally:
            conn.close()
        assert len(rows) == 10
        assert all(json.loads(record)["metrics"]["dropped_messages"] == 0 for (record,) in rows)

    def test_unknown_path_returns_404(self, archive_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(archive_server + "/nope")
        assert excinfo.value.code == 404

    def test_queries_keep_one_connection_open(self, tmp_path):
        server = api.serve(
            archive=tmp_path / "served.sqlite", host="127.0.0.1", port=0, block=False
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            payloads, sockets = [], []
            for _ in range(2):
                connection.request("GET", self.QUERY)
                response = connection.getresponse()
                assert response.status == 200
                assert not response.will_close
                payloads.append(json.loads(response.read().decode("utf-8")))
                sockets.append(connection.sock)
            assert sockets[0] is not None and sockets[0] is sockets[1]
            assert payloads[0]["report"]["simulated_runs"] == 5
            assert payloads[1]["report"]["simulated_runs"] == 0
            fresh = get_json(f"http://{host}:{port}{self.QUERY}")
            assert without_wall_clock(payloads[1]) == without_wall_clock(fresh)
            # The open client connection does not hold the shutdown up.
            closer = threading.Thread(target=server.shutdown, daemon=True)
            closer.start()
            closer.join(timeout=10)
            assert not closer.is_alive()
        finally:
            connection.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


# --------------------------------------------------------------------------- #
# one archive handle per HTTP connection, one plan per suite
# --------------------------------------------------------------------------- #


GRID = "/query?suite=tiny&algorithms=flooding,gilbert&seeds={seeds}"


@contextlib.contextmanager
def serving(archive):
    """A running server over ``archive``; yields the server."""
    server = api.serve(archive=archive, host="127.0.0.1", port=0, block=False)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def connect(server):
    host, port = server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=60)


def ask(connection, path):
    """``(status, payload)`` of one GET on a kept-alive connection."""
    connection.request("GET", path)
    response = connection.getresponse()
    payload = json.loads(response.read().decode("utf-8"))
    assert not response.will_close
    return response.status, payload


def grid_specs(seeds):
    specs, _ = api.plan_sweep(
        suite="tiny", algorithms=["flooding", "gilbert"], seeds=seeds,
        collect_profile=False,
    )  # fmt: skip
    return specs


@pytest.fixture
def pristine(tmp_path):
    """An archive holding the 2-seed tiny flooding/gilbert grid (20 runs)."""
    archive = tmp_path / "pristine.sqlite"
    assert api.query(grid_specs(2), archive=archive).report.archive_added == 20
    return archive


def header(path):
    """The 16 header bytes SQLite compares to tell a changed file from its cache."""
    with open(path, "rb") as handle:
        return handle.read(40)[24:]


class TestConnectionArchiveHandle:
    def test_keepalive_connection_sees_every_rewrite_of_the_file(
        self, tmp_path, pristine
    ):
        live = tmp_path / "live.sqlite"
        shutil.copyfile(pristine, live)
        with serving(live) as server:
            connection = connect(server)
            try:
                status, cold = ask(connection, GRID.format(seeds=3))
                assert status == 200 and cold["report"]["simulated_runs"] == 10
                status, warm = ask(connection, GRID.format(seeds=3))
                assert status == 200 and warm["report"]["simulated_runs"] == 0

                # A pristine copy written over the live file, as the
                # repository benchmark does between passes.
                shutil.copyfile(pristine, live)
                status, again = ask(connection, GRID.format(seeds=3))
                assert status == 200
                assert again["report"]["simulated_runs"] == 10
                assert again["report"]["archive_added"] == 10
                direct = summarize_results(api.sweep(grid_specs(3)))
                assert without_wall_clock(again)["cells"] == without_wall_clock(
                    {"cells": direct}
                )["cells"]

                bumped = tmp_path / "bumped.sqlite"
                shutil.copyfile(pristine, bumped)
                conn = sqlite3.connect(str(bumped))
                with conn:
                    conn.execute(
                        "UPDATE archive_meta SET value = ? WHERE key = 'schema_version'",
                        (str(SCHEMA_VERSION + 1),),
                    )
                conn.close()
                shutil.copyfile(bumped, live)
                status, refused = ask(connection, GRID.format(seeds=3))
                assert status == 400
                assert "schema version" in refused["error"]
                status, _ = ask(connection, "/health")
                assert status == 400
            finally:
                connection.close()

    @pytest.mark.parametrize("replace", ["copyfile", "rename"])
    def test_file_replaced_under_an_unchanged_header_is_reread(
        self, tmp_path, pristine, replace
    ):
        # SQLite keeps a connection's page cache while the file's change
        # counter, page count and freelist read the same; a different
        # archive with the same header must still be read afresh.
        live = tmp_path / "live.sqlite"
        other = tmp_path / "other.sqlite"
        shutil.copyfile(pristine, live)
        shutil.copyfile(pristine, other)
        with serving(live) as server:
            connection = connect(server)
            try:
                writer = sqlite3.connect(str(live))
                with writer:
                    writer.execute("INSERT INTO archive_meta VALUES ('note', 'kept')")
                writer.close()
                assert ask(connection, "/stats")[1]["per_spec"] == [
                    {"spec": "flooding", "runs": 10},
                    {"spec": "gilbert", "runs": 10},
                ]
                # One write on each file, neither changing its size: the
                # header SQLite compares reads the same on both.
                with ResultArchive(other) as archive:
                    renamed = [key for key in archive.keys() if key.startswith("gilbert|")][0]
                writer = sqlite3.connect(str(other))
                with writer:
                    writer.execute(
                        "UPDATE runs SET spec_name = 'GILBERT' WHERE task_key = ?",
                        (renamed,),
                    )
                writer.close()
                assert header(other) == header(live)
                if replace == "copyfile":
                    shutil.copyfile(other, live)
                else:
                    os.replace(other, live)
                # A request that never reaches the archive must not mask it.
                assert ask(connection, "/query?suit=tiny")[0] == 400
                assert ask(connection, "/stats")[1]["per_spec"] == [
                    {"spec": "GILBERT", "runs": 1},
                    {"spec": "flooding", "runs": 10},
                    {"spec": "gilbert", "runs": 9},
                ]
            finally:
                connection.close()

    def test_cold_queries_share_the_suites_topologies(self, tmp_path, monkeypatch):
        from repro.graphs import spectral

        measured = []
        compute = spectral._mixing_time

        def spy(topology, matrix, max_steps):
            measured.append(topology)
            return compute(topology, matrix, max_steps)

        monkeypatch.setattr(spectral, "_mixing_time", spy)
        with serving(tmp_path / "served.sqlite") as server:
            connection = connect(server)
            try:
                for seeds in (1, 2):
                    status, answer = ask(
                        connection, f"/query?suite=tiny&algorithms=gilbert&seeds={seeds}"
                    )
                    assert status == 200
                    assert answer["report"]["simulated_runs"] == 5
            finally:
                connection.close()
            # One t_mix per topology of the suite, on the server's instances.
            assert len(measured) == 5
            assert [id(t) for t in measured] == [id(t) for t in server.suites["tiny"]]

    def test_racing_first_requests_plan_one_suite(self, tmp_path):
        import sys

        server = service_module.make_server(archive=tmp_path / "served.sqlite", port=0)
        seen, barrier = [], threading.Barrier(8)

        def plan():
            barrier.wait(timeout=30)
            seen.append(server.suite("tiny"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=plan) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            server.server_close()
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8
        assert all(suite is server.suites["tiny"] for suite in seen)

    def test_unknown_suite_is_refused_and_not_cached(self, tmp_path):
        with serving(tmp_path / "served.sqlite") as server:
            connection = connect(server)
            try:
                status, answer = ask(connection, "/query?suite=nope&algorithms=flooding")
                assert status == 400
                assert "unknown suite 'nope'" in answer["error"]
            finally:
                connection.close()
            assert server.suites == {}

    def test_no_archive_handle_outlives_its_connection(self, tmp_path):
        descriptors = "/proc/self/fd"
        if not os.path.isdir(descriptors):
            pytest.skip("no /proc/self/fd on this platform")
        archive = tmp_path / "served.sqlite"

        def open_on_archive():
            found = []
            for name in os.listdir(descriptors):
                with contextlib.suppress(OSError):
                    if os.readlink(os.path.join(descriptors, name)).startswith(
                        str(archive)
                    ):
                        found.append(name)
            return found

        with serving(archive) as server:
            for seeds in (1, 1, 2):
                connection = connect(server)
                try:
                    for path in (
                        f"/query?suite=tiny&algorithms=flooding&seeds={seeds}",
                        "/health",
                        "/stats",
                    ):
                        assert ask(connection, path)[0] == 200
                finally:
                    connection.close()
            # The handler thread closes its handle once it sees the close.
            deadline = time.monotonic() + 10
            while open_on_archive() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert open_on_archive() == []
