"""Tests for the telemetry layer (:mod:`repro.obs`).

Three contracts are pinned down here:

* the span API is a strict no-op when no collector is active, and a
  nestable innermost-wins scope when one is;
* telemetry observes but never perturbs: sweep results are bit-identical
  with telemetry (and profiling) on or off, across serial, pooled,
  spawn-start and sharded execution;
* the JSONL export round-trips: feeding an exported file back through
  ``summarize_telemetry`` (or ``repro-le stats``) reproduces the live
  sink's summary exactly.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import ExperimentSpec, run_experiment
from repro.archive import query_experiments
from repro.cli import main
from repro.core.errors import ConfigurationError
from repro.graphs import cycle, grid_2d, star
from repro.obs import (
    ProfileAggregate,
    SpanCollector,
    SpanStats,
    Stopwatch,
    TaskProfiler,
    TaskTelemetry,
    TelemetrySink,
    TASK_RECORD_FIELDS,
    TELEMETRY_VERSION,
    active_collector,
    collect_spans,
    read_telemetry,
    span,
    summarize_telemetry,
    validate_profiler,
)
from repro.parallel import SweepConfig, run_experiments

SEEDS = (0, 1, 2)

WORKER_COUNTS = sorted({1, 2} | {int(os.environ.get("REPRO_TEST_WORKERS", 2))})


def _spec(name: str = "flooding") -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        protocol="flooding",
        topologies=[cycle(8), star(8), grid_2d(3, 3)],
        seeds=SEEDS,
    )


def _comparable(cells):
    rows = []
    for cell in cells:
        row = cell.as_dict()
        row.pop("mean_wall_clock_seconds")
        rows.append(row)
    return rows


class TestSpanApi:
    def test_disabled_span_is_a_shared_noop(self):
        assert active_collector() is None
        # No allocation on the off path: the same object every time.
        assert span("simulate") is span("anything")

    def test_collector_is_invisible_to_other_threads(self, scope_in_other_thread):
        with scope_in_other_thread(collect_spans()) as leave:
            assert active_collector() is None
            with collect_spans() as mine:
                leave()
                # The helper closing its scope leaves this thread's alone.
                assert active_collector() is mine
                with span("work"):
                    pass
            assert active_collector() is None
        assert mine.totals()["work"]["count"] == 1

    def test_spans_record_into_active_collector(self):
        with collect_spans() as spans:
            with span("work"):
                pass
            with span("work"):
                pass
        assert active_collector() is None
        totals = spans.totals()
        assert totals["work"]["count"] == 2
        assert totals["work"]["total_seconds"] >= 0.0
        assert spans.total_seconds("missing") == 0.0

    def test_nested_collectors_innermost_wins(self):
        with collect_spans() as outer:
            with span("outer-only"):
                pass
            with collect_spans() as inner:
                with span("inner-only"):
                    pass
            assert active_collector() is outer
        assert "inner-only" not in outer.totals()
        assert "outer-only" not in inner.totals()
        assert inner.totals()["inner-only"]["count"] == 1

    def test_span_records_on_exception(self):
        with collect_spans() as spans:
            with pytest.raises(RuntimeError):
                with span("doomed"):
                    raise RuntimeError("boom")
        assert spans.totals()["doomed"]["count"] == 1

    def test_stats_merge_dict(self):
        stats = SpanStats()
        stats.add(2.0)
        stats.merge_dict(
            {"count": 3, "total_seconds": 6.0, "min_seconds": 0.5, "max_seconds": 4.0}
        )
        assert stats.count == 4
        assert stats.total_seconds == 8.0
        assert stats.min_seconds == 0.5
        assert stats.max_seconds == 4.0

    def test_collector_merge_totals(self):
        a, b = SpanCollector(), SpanCollector()
        a.record("x", 1.0)
        b.record("x", 3.0)
        b.record("y", 2.0)
        a.merge_totals(b.totals())
        totals = a.totals()
        assert totals["x"]["count"] == 2
        assert totals["x"]["total_seconds"] == 4.0
        assert totals["y"]["count"] == 1
        assert len(a) == 2


class TestStopwatch:
    def test_elapsed_and_restart_with_injected_clock(self):
        readings = iter([10.0, 12.5, 20.0, 21.0])
        watch = Stopwatch(lambda: next(readings))
        assert watch.elapsed() == 2.5
        watch.restart()
        assert watch.elapsed() == 1.0


class TestTelemetrySink:
    def _populate(self, sink: TelemetrySink) -> None:
        sink.begin_sweep(workers=2, backend="event")
        sink.emit_telemetry(
            TaskTelemetry(
                task_key="k1",
                experiment="flooding",
                topology="cycle(8)",
                topology_index=0,
                seed=0,
                seed_index=0,
                worker="pid-1",
                backend="event",
                queue_wait_seconds=0.25,
                simulate_seconds=1.5,
                task_seconds=2.0,
                spans={"simulate": {"count": 1, "total_seconds": 1.5,
                                    "min_seconds": 1.5, "max_seconds": 1.5}},
                fold_seconds=0.125,
                checkpoint_seconds=0.5,
            )
        )
        sink.record_driver(
            elapsed_seconds=4.0, restored=0, spans={}, profile_hotspots=None
        )

    def test_staging_then_atomic_publish(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        sink = TelemetrySink(path)
        self._populate(sink)
        partial = tmp_path / "tel.jsonl.partial"
        assert partial.exists()
        assert not path.exists()
        sink.close()
        sink.close()  # idempotent
        assert path.exists()
        assert not partial.exists()

    def test_abort_keeps_partial_and_never_publishes(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        sink = TelemetrySink(path)
        self._populate(sink)
        sink.abort()
        assert not path.exists()
        assert (tmp_path / "tel.jsonl.partial").exists()

    def test_zero_record_sweep_still_publishes_a_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        sink = TelemetrySink(path)
        sink.close()
        assert path.exists()
        assert path.read_text(encoding="utf-8") == ""

    def test_task_records_match_the_schema(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        sink = TelemetrySink(path)
        self._populate(sink)
        sink.close()
        records = read_telemetry(path)
        header = records[0]
        assert header["kind"] == "sweep"
        assert header["version"] == TELEMETRY_VERSION
        tasks = [r for r in records if r["kind"] == "task"]
        assert tasks
        for record in tasks:
            assert tuple(sorted(record)) == tuple(sorted(TASK_RECORD_FIELDS))
        assert records[-1]["kind"] == "driver"

    def test_summary_aggregates_the_emitted_records(self, tmp_path):
        sink = TelemetrySink(tmp_path / "tel.jsonl")
        self._populate(sink)
        sink.close()
        summary = sink.summary()
        assert summary["runs"] == 1
        assert summary["workers"] == 2
        assert summary["totals"]["simulate_seconds"] == 1.5
        assert summary["checkpoint_io_share"] == 0.5 / 4.0
        (worker,) = summary["worker_utilization"]
        assert worker["worker"] == "pid-1"
        assert worker["utilization"] == 2.0 / 4.0
        (cell,) = summary["cells"]
        assert cell["runs"] == 1
        assert cell["p50_simulate_seconds"] == 1.5
        (straggler,) = summary["stragglers"]
        assert straggler["task_key"] == "k1"

    def test_post_hoc_summary_reproduces_live_summary_exactly(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        sink = TelemetrySink(path)
        self._populate(sink)
        sink.close()
        assert summarize_telemetry(read_telemetry(path)) == sink.summary()

    def test_several_files_fold_their_driver_records(self):
        # Driver records as three per-shard exports end; the task and
        # header records fold as before.
        def driver(restored, elapsed, load_seconds, batches, max_batch):
            load = {"count": 1, "total_seconds": load_seconds}
            load["min_seconds"] = load["max_seconds"] = load_seconds
            return {
                "kind": "driver",
                "elapsed_seconds": elapsed,
                "restored": restored,
                "spans": {"checkpoint.load": load},
                "scheduler": {
                    "batches": batches,
                    "max_batch_size": max_batch,
                    "worker_restarts": 1,
                },
            }

        summary = summarize_telemetry(
            [
                driver(5, 2.0, 0.25, 3, 4),
                driver(7, 1.0, 0.5, 2, 8),
                driver(0, 3.0, 1.0, 1, 2),
            ]
        )
        assert summary["restored"] == 12
        assert summary["scheduler"] == {
            "batches": 6, "max_batch_size": 8, "worker_restarts": 3
        }
        assert summary["driver_spans"]["checkpoint.load"] == {
            "count": 3,
            "total_seconds": 1.75,
            "min_seconds": 0.25,
            "max_seconds": 1.0,
        }
        assert summary["elapsed_seconds"] == 3.0  # the last file's, as before


class TestTelemetryDoesNotPerturbResults:
    """Results with telemetry on must be bit-identical to telemetry off."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_pooled_results_identical(self, workers, tmp_path):
        spec = _spec()
        baseline = run_experiments([spec], config=SweepConfig(workers=workers))[0]
        sink = TelemetrySink(tmp_path / "tel.jsonl")
        instrumented = run_experiments(
            [spec],
            config=SweepConfig(workers=workers, telemetry=sink),
        )[0]
        assert _comparable(instrumented.cells) == _comparable(baseline.cells)
        summary = summarize_telemetry(read_telemetry(sink.path))
        assert summary["runs"] == 3 * len(SEEDS)
        assert summary["workers"] == workers

    def test_spawn_results_identical(self, tmp_path):
        spec = _spec()
        baseline = run_experiments([spec], config=SweepConfig(workers=2))[0]
        sink = TelemetrySink(tmp_path / "tel.jsonl")
        instrumented = run_experiments(
            [spec],
            config=SweepConfig(workers=2, start_method="spawn", telemetry=sink),
        )[0]
        assert _comparable(instrumented.cells) == _comparable(baseline.cells)
        workers = {
            record["worker"]
            for record in read_telemetry(sink.path)
            if record["kind"] == "task"
        }
        assert workers  # pool workers are pid-labelled
        assert all(label.startswith("pid-") for label in workers)

    def test_sharded_results_identical(self, tmp_path):
        spec = _spec()
        baseline_shards = [
            run_experiments(
                [spec],
                config=SweepConfig(
                    workers=2,
                    shard=(i, 2),
                    checkpoint=tmp_path / f"base-{i}.json",
                ),
            )
            for i in range(2)
        ]
        instrumented_shards = []
        for i in range(2):
            sink = TelemetrySink(tmp_path / f"tel-{i}.jsonl")
            instrumented_shards.append(
                run_experiments(
                    [spec],
                    config=SweepConfig(
                        workers=2,
                        shard=(i, 2),
                        checkpoint=tmp_path / f"inst-{i}.json",
                        telemetry=sink,
                    ),
                )
            )
            summary = summarize_telemetry(read_telemetry(sink.path))
            assert summary["shard"] == f"{i}/2"
            assert summary["runs"] > 0
        for baseline, instrumented in zip(baseline_shards, instrumented_shards):
            for base_result, inst_result in zip(baseline, instrumented):
                assert _comparable(inst_result.cells) == _comparable(
                    base_result.cells
                )
        # The two shards together cover the full grid exactly once.
        total = sum(
            cell.runs
            for results in instrumented_shards
            for result in results
            for cell in result.cells
        )
        assert total == 3 * len(SEEDS)

    def test_checkpointed_telemetry_counts_restored_runs(self, tmp_path):
        spec = _spec()
        checkpoint = tmp_path / "ckpt.json"
        run_experiments([spec], config=SweepConfig(workers=1, checkpoint=checkpoint))
        sink = TelemetrySink(tmp_path / "tel.jsonl")
        resumed = run_experiments(
            [spec],
            config=SweepConfig(workers=1, checkpoint=checkpoint, telemetry=sink),
        )[0]
        summary = summarize_telemetry(read_telemetry(sink.path))
        assert summary["runs"] == 0  # nothing re-executed...
        assert summary["restored"] == 3 * len(SEEDS)  # ...everything replayed
        baseline = run_experiment(spec)
        assert _comparable(resumed.cells) == _comparable(baseline.cells)


    def test_archive_spans_do_not_perturb_query_results(self, tmp_path):
        """Spans at the archive boundary time its reads and writes without
        changing a query's cells: cold (``archive.add``), warm
        (``archive.fetch_fold_fields``) and warm with telemetry, which
        reads fold fields too: the export is no result sink."""
        spec = _spec()
        baseline = query_experiments([spec], archive=tmp_path / "plain.sqlite")
        db = tmp_path / "traced.sqlite"
        with collect_spans() as cold_spans:
            cold = query_experiments([spec], archive=db)
        with collect_spans() as warm_spans:
            warm = query_experiments([spec], archive=db)
        sink = TelemetrySink(tmp_path / "tel.jsonl")
        rebuilt = query_experiments(
            [spec], archive=db, config=SweepConfig(telemetry=sink)
        )
        expected = _comparable(baseline.results[0].cells)
        for answer in (cold, warm, rebuilt):
            assert _comparable(answer.results[0].cells) == expected
        assert warm.results == rebuilt.results
        assert cold_spans.totals()["archive.add"]["count"] == 1
        assert warm_spans.totals()["archive.fetch_fold_fields"]["count"] == 1
        assert not {"archive.fetch", "archive.add"} & set(warm_spans.totals())
        # The telemetry file's closing record carries the sweep's own spans.
        records = read_telemetry(sink.path)
        sweep_spans = records[-1]["spans"]
        assert sweep_spans["archive.fetch_fold_fields"]["count"] == 1
        assert "archive.fetch" not in sweep_spans
        assert summarize_telemetry(records)["restored"] == 3 * len(SEEDS)


class TestSingletonTaskRecords:
    """In-process runs and ``max_batch=1`` pools both ship one task per
    batch; their records come from the same worker body."""

    @pytest.mark.parametrize("workers, max_batch", [(1, None), (2, 1)])
    def test_records_carry_singleton_batch_and_first_attempt(
        self, workers, max_batch, tmp_path
    ):
        path = tmp_path / "tel.jsonl"
        run_experiments(
            [_spec()],
            config=SweepConfig(
                workers=workers,
                max_batch=max_batch,
                telemetry=TelemetrySink(path),
            ),
        )
        records = read_telemetry(path)
        tasks = [r for r in records if r["kind"] == "task"]
        assert len(tasks) == 3 * len(SEEDS)
        assert {(r["batch_size"], r["attempt"]) for r in tasks} == {(1, 1)}
        scheduler = records[-1].get("scheduler")
        if workers == 1:
            assert scheduler is None  # no pool, no scheduler
        else:
            assert scheduler["max_batch_size"] == 1
            assert scheduler["batches"] == scheduler["dispatched_tasks"]


class TestProfiling:
    def test_validate_profiler(self):
        assert validate_profiler("cprofile") == "cprofile"
        with pytest.raises(ValueError):
            validate_profiler("perf")

    def test_task_profiler_payload_is_flat_and_mergeable(self):
        with TaskProfiler() as profiler:
            sum(range(1000))
        payload = profiler.payload()
        assert payload
        for function, counters in payload.items():
            assert function.count(":") >= 2
            assert len(counters) == 4
        aggregate = ProfileAggregate()
        assert not aggregate
        aggregate.merge(payload)
        aggregate.merge(payload)
        assert aggregate.tasks == 2
        hotspots = aggregate.hotspots(top=5)
        assert len(hotspots) <= 5
        assert all(row["calls"] >= 2 for row in hotspots)

    def test_profiled_sweep_keeps_results_and_reports_hotspots(self, tmp_path):
        spec = _spec()
        baseline = run_experiments([spec], config=SweepConfig(workers=2))[0]
        sink = TelemetrySink(tmp_path / "tel.jsonl")
        profiled = run_experiments(
            [spec],
            config=SweepConfig(workers=2, telemetry=sink, profile="cprofile"),
        )[0]
        assert _comparable(profiled.cells) == _comparable(baseline.cells)
        summary = summarize_telemetry(read_telemetry(sink.path))
        assert summary["profile"] == "cprofile"
        assert summary["profile_hotspots"]
        assert any(
            "flooding" in row["function"] for row in summary["profile_hotspots"]
        )

    def test_profile_requires_telemetry(self):
        with pytest.raises(ConfigurationError):
            run_experiments(
                [_spec()],
                config=SweepConfig(workers=2, profile="cprofile"),
            )

    def test_unknown_profiler_rejected(self, tmp_path):
        sink = TelemetrySink(tmp_path / "tel.jsonl")
        with pytest.raises(ConfigurationError):
            run_experiments(
                [_spec()],
                config=SweepConfig(workers=2, telemetry=sink, profile="perf"),
            )


class TestStatsCommand:
    def _export(self, tmp_path):
        sink = TelemetrySink(tmp_path / "tel.jsonl")
        run_experiments([_spec()], config=SweepConfig(workers=2, telemetry=sink))
        return sink.path

    def test_stats_reproduces_sweep_summary(self, tmp_path, capsys):
        path = self._export(tmp_path)
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "worker utilization" in out
        assert "per-cell simulate latency" in out
        assert "top straggler tasks" in out

    def test_stats_top_limits_stragglers(self, tmp_path, capsys):
        path = self._export(tmp_path)
        assert main(["stats", str(path), "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("flooding|") >= 1

    def test_stats_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        assert main(["stats", str(bad)]) != 0

    def test_summarize_rejects_non_positive_top(self):
        for bad in (0, -3, float("nan"), 2.5):
            with pytest.raises(ConfigurationError, match="top"):
                summarize_telemetry([], top=bad)

    def test_stats_cli_rejects_non_positive_top(self, tmp_path, capsys):
        path = tmp_path / "tel.jsonl"
        path.write_text("", encoding="utf-8")
        assert main(["stats", str(path), "--top", "0"]) == 2
        assert "top" in capsys.readouterr().err

    def test_sweep_telemetry_flag_exports_and_prints(self, tmp_path, capsys):
        path = tmp_path / "tel.jsonl"
        code = main(
            [
                "sweep",
                "--suite",
                "tiny",
                "--algorithms",
                "flooding",
                "--seeds",
                "2",
                "--telemetry",
                str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep telemetry" in out
        records = read_telemetry(path)
        assert records[0]["kind"] == "sweep"
        assert any(record["kind"] == "task" for record in records)

    def test_sweep_profile_requires_telemetry_flag(self, capsys):
        code = main(
            [
                "sweep",
                "--suite",
                "tiny",
                "--algorithms",
                "flooding",
                "--profile",
                "cprofile",
            ]
        )
        assert code != 0
        assert "--telemetry" in capsys.readouterr().err
