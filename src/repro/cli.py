"""Command-line interface.

A small operational layer over the library so that elections, graph
analysis and the impossibility demonstration can be driven without writing
Python.  Installed as the ``repro-le`` console script and runnable as
``python -m repro``.

Examples::

    repro-le analyze   --topology random_regular:64:4
    repro-le protocols                          # registered protocols + schemas
    repro-le elect     --algorithm irrevocable --topology torus_2d:8:8 --seed 3
    repro-le elect     --algorithm irrevocable:c=3,x_multiplier=1.5 \
                       --topology torus_2d:8:8
    repro-le elect     --algorithm revocable   --topology complete:5 --explicit
    repro-le compare   --topology random_regular:64:4 --seeds 2
    repro-le sweep     --suite mixed --algorithms flooding gilbert \
                       --seeds 3 --workers 4 --checkpoint sweep.json
    repro-le sweep     --suite tiny --algorithms irrevocable:c=1.5 \
                       irrevocable:c=2 irrevocable:c=3 --seeds 3 \
                       --jsonl runs.jsonl       # cost-vs-c curve, per-run export
    repro-le sweep     --suite tiny --scenario paper-constants
    repro-le sweep     --suite mixed --algorithms flooding --seeds 3 \
                       --adversary loss --adversary-param p=0.05
    repro-le sweep     --suite mixed --algorithms flooding --seeds 3 \
                       --adversary composed:loss+delay \
                       --adversary-param loss.p=0.05 --adversary-param delay.p=0.1
    repro-le sweep     --suite tiny --algorithms flooding --scenario lossy
    repro-le sweep     --suite mixed --algorithms flooding --seeds 5 \
                       --checkpoint sweep.json --shard 0/4   # one of 4 jobs
    repro-le sweep     --suite mixed --algorithms flooding --seeds 5 \
                       --workers 4 --telemetry tel.jsonl \
                       --profile cprofile       # sweep telemetry + hotspots
    repro-le stats     tel.jsonl --top 5        # post-hoc telemetry summary
    repro-le merge     --manifest sweep.manifest.json --output sweep.json
    repro-le sweep     --suite tiny --algorithms flooding --seeds 3 \
                       --archive results.sqlite # archive runs live
    repro-le archive   add sweep.json --archive results.sqlite
    repro-le archive   stats --archive results.sqlite
    repro-le query     --suite tiny --algorithms flooding --seeds 3 \
                       --archive results.sqlite # hits replay, misses run
    repro-le serve     --archive results.sqlite --port 8765
    repro-le impossibility --n 6 --witnesses 4 --trials 10

Topology specifications are ``family:arg[:arg...]`` using the generator
registry of :mod:`repro.graphs.generators`, e.g. ``cycle:32``,
``random_regular:64:4``, ``torus_2d:8:8``, ``barbell:16``.  Algorithm
specifications are ``name[:param=value,...]`` using the protocol registry
of :mod:`repro.protocols` (``repro-le protocols`` lists every protocol
with its parameter schema).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .analysis import render_kv, render_table
from .core.errors import ConfigurationError, ReproError
from .election.explicit import extend_to_explicit
from .graphs import Topology, expansion_profile
from .graphs.generators import GENERATORS
from .impossibility import demonstrate_impossibility
from .protocols import ProtocolSpec, describe_protocols

__all__ = ["main", "parse_topology", "build_parser"]

def parse_topology(spec: str, *, seed: int = 0) -> Topology:
    """Parse a ``family:arg[:arg...]`` topology specification.

    ``seed`` is the graph seed of the random families, so one spec names
    one graph in every process.
    """
    parts = spec.split(":")
    family = parts[0]
    if family not in GENERATORS:
        raise ReproError(
            f"unknown topology family {family!r}; available: {sorted(GENERATORS)}"
        )
    generator = GENERATORS[family]
    try:
        args = [_parse_number(part) for part in parts[1:]]
        if family in ("random_regular", "erdos_renyi"):
            return generator(*args, seed=seed)
        return generator(*args)
    except (TypeError, ValueError) as error:
        raise ReproError(f"bad arguments for {family}: {error}") from error


def _parse_number(text: str) -> Union[int, float]:
    """``text`` as an ``int`` if it spells one, else as a ``float``."""
    try:
        return int(text)
    except ValueError:
        return float(text)


# --------------------------------------------------------------------------- #
# sub-commands
# --------------------------------------------------------------------------- #


def _cmd_analyze(args: argparse.Namespace) -> int:
    topology = parse_topology(args.topology, seed=args.topology_seed)
    profile = expansion_profile(topology)
    print(render_kv(profile.as_dict(), title=f"expansion profile: {topology.name}"))
    return 0


def _cmd_protocols(args: argparse.Namespace) -> int:
    from .protocols import PROTOCOLS

    print(render_table(describe_protocols(), title="registered protocols"))
    for name, definition in sorted(PROTOCOLS.items()):
        if not definition.schema.params:
            continue
        print(f"\n{name} parameters:")
        width = max(len(param.describe()) for param in definition.schema.params)
        for param in definition.schema.params:
            doc = f"  {param.doc}" if param.doc else ""
            print(f"  {param.describe().ljust(width)}{doc}")
    return 0


def _cmd_elect(args: argparse.Namespace) -> int:
    from .api import run as run_election

    topology = parse_topology(args.topology, seed=args.topology_seed)
    spec = ProtocolSpec.parse(args.algorithm)
    recorder = None
    scope = contextlib.nullcontext()
    if args.trace:
        from .core.tracing import TraceRecorder, trace_scope

        recorder = TraceRecorder(max_events=args.trace_max_events)
        scope = trace_scope(recorder)
    with scope:
        result = run_election(
            spec,
            topology,
            seed=args.seed,
            adversary=args.adversary,
            adversary_params=args.adversary_param,
        )
    summary = {
        "algorithm": result.algorithm,
        "topology": result.topology_name,
        "unique leader": result.success,
        "leaders": result.outcome.num_leaders,
        "candidates": len(result.outcome.candidate_indices),
        "messages": result.messages,
        "bits": result.bits,
        "rounds": result.rounds_executed,
    }
    if spec.params:
        summary = {"algorithm": summary["algorithm"], "protocol": str(spec), **summary}
    adversary = result.parameters.get("adversary")
    if adversary is not None:
        from .dynamics import AdversarySpec

        summary["adversary"] = AdversarySpec(
            adversary["name"], tuple(sorted(adversary["params"].items()))
        ).token()
    if recorder is not None:
        trace_summary = recorder.summary()
        recorder.to_jsonl(args.trace)
        summary["trace events"] = trace_summary["events"]
        # Dropped events surface in the output even when zero: a bounded
        # trace must say whether it is complete.
        summary["trace events dropped"] = trace_summary["dropped"]
        summary["trace file"] = str(args.trace)
    print(render_kv(summary, title="election result"))
    if args.explicit:
        if not result.success:
            print("cannot extend to explicit election: no unique leader", file=sys.stderr)
            return 1
        explicit = extend_to_explicit(topology, result, seed=args.seed)
        print()
        print(render_kv(explicit.as_dict(), title="explicit extension"))
        return 0 if explicit.all_know_leader else 1
    return 0 if result.success else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    from .api import run as run_election

    if args.seeds < 1:
        raise ConfigurationError(f"seeds must be >= 1, got {args.seeds}")
    topology = parse_topology(args.topology, seed=args.topology_seed)
    rows: List[dict] = []
    for name in args.algorithms:
        spec = ProtocolSpec.parse(name)
        for seed in range(args.seeds):
            result = run_election(spec, topology, seed=seed)
            rows.append(
                {
                    "algorithm": str(spec),
                    "seed": seed,
                    "unique leader": result.success,
                    "messages": result.messages,
                    "rounds": result.rounds_executed,
                }
            )
    print(render_table(rows, title=f"comparison on {topology.name}"))
    return 0 if all(row["unique leader"] for row in rows) else 1


def build_sweep_specs(args: argparse.Namespace, topologies: Sequence[Topology]):
    """Expand the parsed ``sweep``/``query`` arguments into experiment specs.

    Returns ``(specs, adversarial)`` where ``adversarial`` says whether
    the grid injects faults (and the sweep's exit criterion becomes the
    safety verdict).  A thin argparse adapter over
    :func:`repro.api.plan_sweep` — the CLI, the library facade and the
    HTTP endpoint all plan grids through the same function, so their
    spellings cannot drift.  Kept as a named seam so the scenario
    registries' CLI spelling stays testable without running a sweep.
    """
    from .api import plan_sweep

    return plan_sweep(
        topologies=topologies,
        algorithms=args.algorithms,
        scenario=args.scenario,
        adversary=args.adversary,
        adversary_params=args.adversary_param,
        seeds=args.seeds,
        collect_profile=not args.no_profile,
    )


def _sweep_config(args: argparse.Namespace, *, grid: bool = True, **fields):
    """The engine config of a command's parsed engine options.

    ``grid`` adds the grid's seed options (``serve`` parses none: its
    queries use the default seeds); ``fields`` are the command's own
    extra :class:`~repro.api.SweepConfig` fields.
    """
    from .api import SweepConfig

    if grid:
        fields.update(derive_seeds=args.derive_seeds, base_seed=args.base_seed)
    return SweepConfig(
        workers=args.workers,
        backend=args.backend,
        start_method=args.start_method,
        **fields,
    )


def _print_curves(curves: Sequence[Dict[str, object]]) -> None:
    """Print robustness curves (``curves_as_dicts`` records) as one table."""
    rows = [
        {"protocol": curve["protocol"], "adversary": curve["adversary"], **point}
        for curve in curves
        for point in curve["points"]
    ]
    if rows:
        print()
        print(render_table(rows, title="robustness curves (success/safety vs p)"))


def _print_telemetry_summary(summary: Dict[str, object], *, title: str) -> None:
    """Render a telemetry summary (live after a sweep, or from ``stats``).

    One printer for both consumers, so the post-hoc report is the live
    report — the round-trip guarantee the telemetry layer tests.
    """
    totals = summary.get("totals") or {}
    headline: Dict[str, object] = {
        "runs measured": summary.get("runs"),
        "runs restored": summary.get("restored"),
        "workers": summary.get("workers"),
        "backend": summary.get("backend"),
        "elapsed seconds": summary.get("elapsed_seconds"),
        "simulate seconds (sum)": totals.get("simulate_seconds"),
        "queue-wait seconds (sum)": totals.get("queue_wait_seconds"),
        "fold seconds (sum)": totals.get("fold_seconds"),
        "checkpoint seconds (sum)": totals.get("checkpoint_seconds"),
        "checkpoint I/O share": summary.get("checkpoint_io_share"),
    }
    if summary.get("shard"):
        headline["shard"] = summary["shard"]
    if summary.get("profile"):
        headline["profiler"] = summary["profile"]
    print(render_kv(headline, title=title))
    dispatch = dict(summary.get("dispatch") or {})
    # The driver-side scheduler record (batches dispatched, re-dispatches
    # after worker deaths/timeouts) folds into the same
    # section: one dispatch story, measured from both sides.
    dispatch.update(summary.get("scheduler") or {})
    if dispatch:
        print()
        print(render_kv(dispatch, title="dispatch"))
    imbalance = summary.get("load_imbalance")
    if imbalance:
        print()
        print(
            render_kv(
                {
                    "workers": imbalance.get("workers"),
                    "max busy seconds": imbalance.get("max_busy_seconds"),
                    "mean busy seconds": imbalance.get("mean_busy_seconds"),
                    "max/mean imbalance": imbalance.get("imbalance"),
                },
                title="load imbalance",
            )
        )
    for rows, section in (
        (summary.get("worker_utilization"), "worker utilization"),
        (summary.get("queue_wait_by_worker"), "queue wait percentiles (per worker, seconds)"),
        (summary.get("cells"), "per-cell simulate latency (seconds)"),
        (summary.get("stragglers"), "top straggler tasks"),
        (summary.get("profile_hotspots"), "profile hotspots (pool-wide)"),
    ):
        if rows:
            print()
            print(render_table(rows, title=section))


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis import summarize_results
    from .analysis.streaming import JsonlSink, ProgressSink
    from .api import sweep as run_sweep
    from .election.base import SafetyTally
    from .obs import TelemetrySink
    from .parallel import parse_shard, select_shard, shard_checkpoint_path
    from .workloads import DYNAMIC_SCENARIOS, suite_by_name

    shard = parse_shard(args.shard) if args.shard is not None else None
    shard_label = f"shard {shard[0]}/{shard[1]}" if shard is not None else ""

    def slice_path(base: Optional[str]):
        # Same naming as the per-shard checkpoints: k jobs sharing one
        # --jsonl/--telemetry spelling must not publish over each other's
        # slices.
        if not base or shard is None:
            return base
        return shard_checkpoint_path(base, shard[0], shard[1], default_suffix=".jsonl")

    jsonl = slice_path(args.jsonl)
    telemetry_path = slice_path(args.telemetry)
    telemetry = TelemetrySink(telemetry_path) if telemetry_path else None
    # Every check runs here, before a sink creates any file (the archive
    # sink creates its database when it is built); the telemetry sink
    # opens its file lazily.
    config = _sweep_config(
        args,
        checkpoint=args.checkpoint,
        shard=shard,
        telemetry=telemetry,
        profile=args.profile,
        task_timeout=args.task_timeout,
    )
    topologies = suite_by_name(args.suite)
    specs, adversarial = build_sweep_specs(args, topologies)
    for export, path in (("JSONL export", jsonl), ("telemetry", telemetry_path)):
        if path and shard is not None:
            print(f"{shard_label}: writing {export} to {path}")
    sinks: List[object] = [JsonlSink(jsonl)] if jsonl else []
    if args.archive:
        from .archive import ArchiveSink

        # Live archiving: completed runs land in the shared archive as
        # they finish, so the sweep is also the populate step for later
        # `repro-le query` calls.  Concurrent shard jobs pointed at one
        # archive serialize on the database lock and dedupe by task key.
        sinks.append(
            ArchiveSink(
                args.archive,
                specs,
                derive_seeds=args.derive_seeds,
                base_seed=args.base_seed,
            )
        )
    if args.progress:
        # Count this job's slice, not the whole grid: a sharded job owns
        # its round-robin slice of the pooled task list.
        total = sum(len(spec.topologies) * len(spec.seeds) for spec in specs)
        if shard is not None:
            total = len(select_shard(range(total), *shard))
        sinks.append(ProgressSink(total, label=shard_label))
    results = run_sweep(specs, config=config, sinks=sinks)
    rows = summarize_results(results)
    title = f"sweep over suite {args.suite!r}"
    if shard is not None:
        title += f" ({shard_label}: this job's slice only)"
    print(render_table(rows, title=title))
    if telemetry is not None:
        print()
        _print_telemetry_summary(
            telemetry.summary(),
            title=f"sweep telemetry ({telemetry_path})",
        )
    if adversarial:
        # Under fault injection liveness is expected to degrade; the exit
        # criterion becomes the safety half of Definitions 1-2: no run may
        # ever report more than one leader.  The verdict streams out of
        # the per-cell tallies — no run list is retained anywhere.
        tally = SafetyTally()
        for result in results:
            for cell in result.cells:
                if cell.safety is not None:
                    tally.merge(cell.safety)
        safety = tally.summary()
        print()
        print(
            render_kv(
                {
                    "runs": safety["runs"],
                    "safe runs": safety["safe_runs"],
                    "elected runs": safety["elected_runs"],
                    "safety rate": safety["safety_rate"],
                    "success rate": safety["success_rate"],
                },
                title="safety under faults",
            )
        )
        if args.scenario in DYNAMIC_SCENARIOS:
            # A scenario ladder has a dial axis: fold the cells into the
            # success/safety-vs-p curves the ladder exists to measure
            # (the same curves benchmarks/bench_robustness.py tracks).
            from .analysis.robustness import curves_as_dicts, fold_experiments

            _print_curves(curves_as_dicts(fold_experiments(specs, results)))
        for violation in safety["violations"]:
            print(f"SAFETY VIOLATION: {violation}", file=sys.stderr)
        return 0 if not safety["violations"] else 1
    # Same criterion as `compare`: every run elected a unique leader.  A
    # sharded job whose slice holds no runs for a spec has nothing to
    # judge — skipping it keeps empty-slice shard jobs exiting 0.
    return (
        0
        if all(
            result.overall_success_rate() == 1.0
            for result in results
            if result.cells
        )
        else 1
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    # Exit contract (lint's 0/1/2 convention): 0 = summarized task
    # records, 1 = files read cleanly but hold no task records (a sweep
    # that never ran — a CI gate watching exit codes should notice),
    # 2 = usage/configuration errors.
    from .obs import read_telemetry, summarize_telemetry

    records: List[Dict[str, object]] = []
    for path in args.telemetry:
        try:
            records.extend(read_telemetry(path))
        except OSError as error:
            raise ReproError(
                f"cannot read telemetry file {path}: {error}"
            ) from error
        except ValueError as error:
            raise ReproError(
                f"{path} is not valid telemetry JSONL: {error}"
            ) from error
    try:
        summary = summarize_telemetry(records, top=args.top)
    except (KeyError, TypeError, ValueError) as error:
        raise ReproError(
            f"telemetry records are malformed: {error}"
        ) from error
    _print_telemetry_summary(
        summary, title=f"telemetry summary: {', '.join(args.telemetry)}"
    )
    if not summary.get("runs") and not summary.get("restored"):
        print(
            "no task records found (did the sweep run with --telemetry?)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    # Exit contract (lint's 0/1/2 convention): 0 = full-coverage merge,
    # 1 = merge completed but partial (--allow-partial with shards or
    # tasks missing), 2 = usage/configuration errors.
    from .parallel import merge_shard_checkpoints

    manifest = args.manifest
    output = args.output
    if output is None:
        # sweep.manifest.json -> sweep.json (the base checkpoint the
        # sharded jobs were pointed at).  Only the file name is rewritten
        # — a ".manifest" in a directory component must stay untouched.
        name = Path(manifest).name
        if ".manifest" not in name:
            raise ReproError(
                f"cannot derive an output path from {manifest!r}; pass --output"
            )
        output = str(Path(manifest).with_name(name.replace(".manifest", "", 1)))
    try:
        summary = merge_shard_checkpoints(
            manifest,
            output,
            allow_partial=args.allow_partial,
        )
    except OSError as error:
        raise ReproError(f"merge failed: {error}") from error
    print(render_kv(summary, title="shard merge"))
    if summary.get("missing_shards") or summary.get("tasks_missing"):
        print(
            "partial merge: "
            f"{summary.get('missing_shards', 0)} shard(s) and "
            f"{summary.get('tasks_missing', 0)} task(s) missing",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json as json_module

    from .api import query as run_query
    from .workloads import DYNAMIC_SCENARIOS, suite_by_name

    specs, adversarial = build_sweep_specs(args, suite_by_name(args.suite))
    config = _sweep_config(args)
    if args.json:
        # Up front, like the --jsonl/--telemetry/--checkpoint writers'
        # directories: a path that cannot exist fails before the query.
        try:
            Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise ReproError(
                f"cannot create the directory of {args.json}: {error}"
            ) from error
    answer = run_query(specs, archive=args.archive, config=config)
    payload = answer.payload(specs, adversarial)
    print(render_table(payload["cells"], title=f"query over suite {args.suite!r}"))
    print()
    print(render_kv(payload["report"], title=f"archive {args.archive}"))
    if adversarial and args.scenario in DYNAMIC_SCENARIOS:
        _print_curves(payload["curves"])
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as handle:
                json_module.dump(payload, handle, sort_keys=True, indent=2)
                handle.write("\n")
        except OSError as error:
            raise ReproError(
                f"cannot write query JSON to {args.json}: {error}"
            ) from error
        print(f"\nwrote query JSON to {args.json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .api import serve as run_serve

    server = run_serve(
        archive=args.archive,
        host=args.host,
        port=args.port,
        config=_sweep_config(args, grid=False),
        block=False,
    )
    host, port = server.server_address[:2]
    print(
        f"serving archive {args.archive} on http://{host}:{port} "
        f"(/health, /stats, /query) — Ctrl-C to stop"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_archive_add(args: argparse.Namespace) -> int:
    from .archive import ResultArchive
    from .parallel.store import JsonlCheckpointStore

    # Checked before anything is opened: the archive and the store's
    # constructor both create what is missing, and the store loads a
    # missing file as empty.
    for path in args.files:
        if not Path(path).is_file():
            raise ReproError(f"no checkpoint file at {path}")
    with ResultArchive(args.archive) as archive:
        seen = 0
        added = 0
        for path in args.files:
            try:
                records = JsonlCheckpointStore(path).load()
            except OSError as error:
                raise ReproError(
                    f"cannot read checkpoint {path}: {error}"
                ) from error
            except ValueError as error:
                raise ReproError(
                    f"{path} is not a checkpoint file: {error}"
                ) from error
            seen += len(records)
            added += archive.add_records(records)
        print(
            render_kv(
                {
                    "files": len(args.files),
                    "records_seen": seen,
                    "records_added": added,
                    "records_replaced": seen - added,
                    "archive_runs": len(archive),
                    "archive": str(archive.path),
                },
                title="archive add",
            )
        )
    return 0


def _cmd_archive_stats(args: argparse.Namespace) -> int:
    from .archive import ResultArchive

    with ResultArchive(args.archive) as archive:
        stats = archive.stats()
    per_spec = stats.pop("per_spec")
    print(render_kv(stats, title="archive stats"))
    if per_spec:
        print()
        print(render_table(per_spec, title="runs per spec"))
    return 0 if stats["runs"] else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import (
        lint_paths,
        load_baseline,
        render_json,
        render_text,
        rule_table,
        write_baseline,
    )

    if args.list_rules:
        print(render_table(rule_table(), title="repro.lint rules"))
        return 0
    baseline = None
    if args.baseline and not args.write_baseline:
        baseline = load_baseline(args.baseline)
    report = lint_paths(args.paths, baseline=baseline)
    if args.write_baseline:
        if not args.baseline:
            raise ReproError("--write-baseline requires --baseline <file>")
        written = write_baseline(args.baseline, report.findings)
        print(f"baseline: recorded {written} finding(s) to {args.baseline}")
        return 0
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report, show_suppressed=args.show_suppressed))
    return report.exit_code


def _cmd_impossibility(args: argparse.Namespace) -> int:
    report = demonstrate_impossibility(
        args.n, num_witnesses=args.witnesses, seeds=range(args.trials)
    )
    print(render_kv(report.as_dict(), title="pumping-wheel demonstration"))
    return 0


# --------------------------------------------------------------------------- #
# option groups: each flag shared by several commands is declared once
# --------------------------------------------------------------------------- #


def _add_topology_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", required=True, help="family:arg[:arg...] spec")
    parser.add_argument("--topology-seed", type=int, default=0)


def _add_adversary_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--adversary",
        default=None,
        help="fault model to inject, deterministic per run seed: loss, "
        "delay, churn, crash, skew (repro.dynamics.ADVERSARIES), or "
        "composed:<m1>+<m2> to stack several; its parameters go in "
        "--adversary-param, e.g. --adversary loss --adversary-param "
        "p=0.1, or --adversary composed:loss+delay --adversary-param "
        "loss.p=0.1 --adversary-param delay.p=0.2",
    )
    parser.add_argument(
        "--adversary-param",
        action="append",
        metavar="K=V",
        help="adversary parameter, e.g. p=0.05 or max_delay=3; dotted "
        "(loss.p=0.05) for a composed adversary (repeatable)",
    )


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--suite",
        default="mixed",
        help="topology suite name (see repro.workloads.SUITES)",
    )
    parser.add_argument(
        "--algorithms",
        nargs="+",
        # None (not the default list) so the protocol-scenario path can
        # tell "user asked for these algorithms" from "defaulted".
        default=None,
        metavar="NAME[:K=V,...]",
        help="protocol specs (repeatable variants sweep a parameter grid, "
        "e.g. irrevocable:c=2 irrevocable:c=3); see `repro-le protocols` "
        "(default: flooding gilbert)",
    )
    parser.add_argument(
        "--seeds", type=int, default=3, help="number of seeds per cell (0..N-1)"
    )
    parser.add_argument(
        "--scenario",
        default=None,
        help="named scenario ladder: dynamic (repro.workloads."
        "DYNAMIC_SCENARIOS: lossy, laggy, flaky-links, crashy, stormy) "
        "runs every algorithm under each adversary rung; protocol "
        "(repro.workloads.PROTOCOL_SCENARIOS: paper-constants) sweeps a "
        "ladder of parameterised protocol variants",
    )
    parser.add_argument(
        "--no-profile",
        action="store_true",
        help="skip expansion-profile computation for the suite",
    )
    parser.add_argument(
        "--derive-seeds",
        action="store_true",
        help="derive an independent deterministic seed per cell from "
        "--base-seed instead of reusing 0..N-1 everywhere",
    )
    parser.add_argument("--base-seed", type=int, default=None)


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the runs that simulate; >1 shards them "
        "over a multiprocessing pool (results identical to --workers 1)",
    )
    parser.add_argument(
        "--backend",
        default="auto",
        choices=["auto", "round", "event"],
        help="simulator core: the event-driven core skips quiescent nodes "
        "and rounds, the round core steps every node every round; both "
        "produce bit-identical results (auto picks event)",
    )
    parser.add_argument(
        "--start-method",
        default=None,
        choices=["fork", "spawn", "forkserver"],
        help="multiprocessing start method (platform default if omitted)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-le",
        description="Leader election in anonymous networks (Kowalski & Mosteiro, ICDCS 2021) — reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="print a topology's expansion profile")
    _add_topology_options(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    protocols = subparsers.add_parser(
        "protocols",
        help="list registered protocols with their parameter schemas",
    )
    protocols.set_defaults(func=_cmd_protocols)

    elect = subparsers.add_parser("elect", help="run one election")
    elect.add_argument(
        "--algorithm",
        required=True,
        metavar="NAME[:K=V,...]",
        help="protocol spec, e.g. irrevocable or irrevocable:c=3,"
        "x_multiplier=1.5 (see `repro-le protocols` for names and schemas)",
    )
    _add_topology_options(elect)
    elect.add_argument("--seed", type=int, default=0)
    elect.add_argument(
        "--explicit",
        action="store_true",
        help="after the implicit election, announce the leader and build a BFS tree",
    )
    _add_adversary_options(elect)
    elect.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record the run's execution trace and export it to PATH as "
        "JSONL (header line with event/dropped counts, then one event "
        "per line, fault injections included); the result output "
        "reports the counts",
    )
    elect.add_argument(
        "--trace-max-events",
        type=int,
        default=None,
        metavar="N",
        help="cap the trace at N >= 0 events (excess events are counted "
        "as dropped, and the drop count is surfaced in the output)",
    )
    elect.set_defaults(func=_cmd_elect)

    compare = subparsers.add_parser("compare", help="compare algorithms on one topology")
    _add_topology_options(compare)
    compare.add_argument("--seeds", type=int, default=2)
    compare.add_argument(
        "--algorithms",
        nargs="+",
        default=["irrevocable", "gilbert", "flooding"],
        metavar="NAME[:K=V,...]",
        help="protocol specs; parameterised variants of one protocol "
        "compare side by side (e.g. irrevocable:c=2 irrevocable:c=3)",
    )
    compare.set_defaults(func=_cmd_compare)

    sweep = subparsers.add_parser(
        "sweep",
        help="run an experiment grid over a topology suite, optionally in parallel",
    )
    _add_grid_options(sweep)
    _add_adversary_options(sweep)
    _add_engine_options(sweep)
    sweep.add_argument(
        "--checkpoint",
        default=None,
        help="file recording completed runs (append-only JSONL); an "
        "interrupted sweep rerun with the same checkpoint resumes instead "
        "of restarting",
    )
    sweep.add_argument(
        "--shard",
        default=None,
        metavar="I/K",
        help="run only shard I of a deterministic K-way split of the grid "
        "(0-based; requires --checkpoint). K independent jobs with "
        "--shard 0/K .. K-1/K cover the grid; fold their checkpoints "
        "with `repro-le merge`",
    )
    sweep.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="re-dispatch a task whose worker has not reported for this "
        "many seconds; re-runs are deterministic, so duplicated "
        "completions are dropped without changing results",
    )
    sweep.add_argument(
        "--jsonl",
        default=None,
        metavar="PATH",
        help="stream one JSON record per completed run to PATH (includes "
        "the protocol token); per-run export without keeping results "
        "in memory. With --shard I/K each job writes its own "
        "PATH-derived .shardIofK file",
    )
    sweep.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="stream per-task telemetry (queue wait, simulate/fold/"
        "checkpoint durations, worker id) to PATH as JSONL and print a "
        "utilization/straggler summary; results are bit-identical with "
        "or without it. Query the file later with `repro-le stats`. "
        "With --shard I/K each job writes its own PATH-derived "
        ".shardIofK file",
    )
    sweep.add_argument(
        "--profile",
        default=None,
        choices=["cprofile"],
        help="run every task under an in-worker profiler and aggregate "
        "pool-wide hotspots into the telemetry summary (requires "
        "--telemetry; inflates per-task wall-clock)",
    )
    sweep.add_argument(
        "--progress",
        action="store_true",
        help="periodically log completed/total runs to stderr (a sharded "
        "job reports its own slice, so multi-machine sweeps stay "
        "observable from their job logs)",
    )
    sweep.add_argument(
        "--archive",
        default=None,
        metavar="DB",
        help="also stream every completed run into a persistent result "
        "archive (SQLite, keyed by deterministic task key; created if "
        "missing) — the populate step for `repro-le query`/`serve`. "
        "Concurrent jobs may share one archive; overlapping runs dedupe "
        "by key",
    )
    sweep.set_defaults(func=_cmd_sweep)

    query = subparsers.add_parser(
        "query",
        help="answer a sweep grid from a result archive, simulating only "
        "the runs the archive is missing (and archiving them back)",
    )
    query.add_argument(
        "--archive",
        required=True,
        metavar="DB",
        help="result archive (SQLite) to answer from and write new runs "
        "back to; populate with `sweep --archive` or `archive add`",
    )
    _add_grid_options(query)
    _add_adversary_options(query)
    _add_engine_options(query)
    query.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the answer (report + cells + curves, the /query "
        "payload) to PATH as deterministic sorted-key JSON",
    )
    query.set_defaults(func=_cmd_query)

    serve = subparsers.add_parser(
        "serve",
        help="serve a result archive over HTTP: /health, /stats, and "
        "/query with the sweep parameter surface",
    )
    serve.add_argument(
        "--archive",
        required=True,
        metavar="DB",
        help="result archive (SQLite) to serve; missing cells simulate "
        "on demand and archive back",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port (0 binds an ephemeral port, printed on startup)",
    )
    _add_engine_options(serve)
    serve.set_defaults(func=_cmd_serve)

    archive = subparsers.add_parser(
        "archive",
        help="maintain a persistent result archive (absorb checkpoints, "
        "inspect contents)",
    )
    archive_sub = archive.add_subparsers(dest="archive_command", required=True)
    archive_add = archive_sub.add_parser(
        "add",
        help="absorb completed runs from JSONL checkpoint files "
        "(including `repro-le merge` outputs) into the "
        "archive; re-adding is idempotent (merge by task key)",
    )
    archive_add.add_argument(
        "files",
        nargs="+",
        metavar="CHECKPOINT",
        help="checkpoint files written by sweep --checkpoint (per-shard "
        "files and merged outputs both work)",
    )
    archive_add.add_argument(
        "--archive",
        required=True,
        metavar="DB",
        help="result archive (SQLite) to absorb into; created if missing",
    )
    archive_add.set_defaults(func=_cmd_archive_add)
    archive_stats = archive_sub.add_parser(
        "stats",
        help="summarize an archive's contents (exits 1 when the archive "
        "holds no runs)",
    )
    archive_stats.add_argument(
        "--archive",
        required=True,
        metavar="DB",
        help="result archive (SQLite) to inspect",
    )
    archive_stats.set_defaults(func=_cmd_archive_stats)

    merge = subparsers.add_parser(
        "merge",
        help="fold the per-shard checkpoints of a sharded sweep into one "
        "checkpoint, validating coverage and conflicts; exits 0 on a "
        "full merge, 1 on a completed-but-partial merge "
        "(--allow-partial), 2 on usage errors",
    )
    merge.add_argument(
        "--manifest",
        required=True,
        help="the shard manifest (<base>.manifest.json) written by the "
        "sharded sweep jobs",
    )
    merge.add_argument(
        "--output",
        default=None,
        help="merged checkpoint path (default: the manifest's base "
        "checkpoint, e.g. sweep.manifest.json -> sweep.json); rerun the "
        "sweep with --checkpoint <output> to replay the full results",
    )
    merge.add_argument(
        "--allow-partial",
        action="store_true",
        help="merge whatever shards/tasks are present instead of requiring "
        "full grid coverage",
    )
    merge.set_defaults(func=_cmd_merge)

    stats = subparsers.add_parser(
        "stats",
        help="summarize a sweep's telemetry JSONL post-hoc (utilization, "
        "per-cell latency percentiles, stragglers, checkpoint I/O "
        "share); exits 0 on a summarized sweep, 1 when the files hold "
        "no task records, 2 on usage errors",
    )
    stats.add_argument(
        "telemetry",
        nargs="+",
        metavar="TELEMETRY_JSONL",
        help="telemetry file(s) written by `repro-le sweep --telemetry`; "
        "several files (e.g. per-shard exports) fold into one summary: "
        "runs, restored runs, driver spans and scheduler counters add up "
        "(max batch size takes the maximum), while the header fields, "
        "elapsed seconds and profile hotspots are the last file's",
    )
    stats.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many straggler tasks to list (default 10)",
    )
    stats.set_defaults(func=_cmd_stats)

    lint = subparsers.add_parser(
        "lint",
        help="static determinism & contract analysis (REP101-REP108) over "
        "python sources; exits 1 on any unsuppressed finding",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="report format: text prints path:line:col lines, json emits "
        "the full machine-readable report (all findings with rule id, "
        "path, line, col, message, suppressed/baselined flags)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="tolerate findings recorded in FILE and fail only on new "
        "ones (adopt the pass incrementally); create/refresh the file "
        "with --write-baseline",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current unsuppressed findings to --baseline and "
        "exit 0 (subsequent runs with --baseline fail only on new "
        "findings)",
    )
    lint.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed findings (with their justifications) in "
        "the text report",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table (id, title, rationale) and exit",
    )
    lint.set_defaults(func=_cmd_lint)

    impossibility = subparsers.add_parser(
        "impossibility", help="run the Theorem 2 pumping-wheel demonstration"
    )
    impossibility.add_argument("--n", type=int, default=6)
    impossibility.add_argument("--witnesses", type=int, default=4)
    impossibility.add_argument("--trials", type=int, default=10)
    impossibility.set_defaults(func=_cmd_impossibility)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
