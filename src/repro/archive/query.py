"""Memoized experiment queries: archive hits + simulated misses.

``query_experiments(specs, archive=...)`` answers an experiment grid the
way a cache answers reads: it expands the specs into their deterministic
task keys, serves every key the archive holds, and dispatches *only the
missing runs* through :func:`repro.parallel.runner.run_experiments` —
the adaptive scheduler, any worker count.  Newly simulated runs are
written back, so archives only ever grow and the second identical query
simulates nothing.

The fold is not reimplemented here.  The archive meets the run-store
contract (:class:`repro.parallel.store.RunStore`), so the grid is run
with the archive *as its checkpoint*: the engine's restore path replays
the hits and executes the misses through the exact same streaming
accumulators as any other sweep, which is what pins query results
bit-identical to a from-scratch ``run_experiments`` (wall-clock column
aside — a hit replays the wall-clock measured when the run actually
executed).  The engine flushes the misses it completed into the archive
even when a later run raises, the same keep-completed-runs rule
:class:`~repro.archive.sink.ArchiveSink` follows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..analysis import robustness
from ..analysis.experiments import ExperimentResult, ExperimentSpec, summarize_results
from ..analysis.streaming import ResultSink
from ..core.errors import ConfigurationError
from ..parallel.runner import SweepConfig, run_experiments
from .store import ResultArchive, parse_task_key

__all__ = [
    "QueryReport",
    "QueryResult",
    "query_config",
    "query_experiments",
]


@dataclass(frozen=True)
class QueryReport:
    """Cache accounting of one query."""

    #: total runs the grid wants
    requested_runs: int
    #: runs served from the archive
    archived_runs: int
    #: runs actually executed (requested - archived)
    simulated_runs: int
    #: distinct (spec, topology) cells that needed at least one simulation
    simulated_cells: int
    #: runs newly written back to the archive
    archive_added: int

    @property
    def hit_rate(self) -> float:
        if self.requested_runs == 0:
            return 0.0
        return self.archived_runs / self.requested_runs

    def as_dict(self) -> Dict[str, object]:
        return {
            "requested_runs": self.requested_runs,
            "archived_runs": self.archived_runs,
            "simulated_runs": self.simulated_runs,
            "simulated_cells": self.simulated_cells,
            "archive_added": self.archive_added,
            "hit_rate": self.hit_rate,
        }


@dataclass
class QueryResult:
    """A query's folded results plus its cache accounting."""

    results: List[ExperimentResult]
    report: QueryReport

    def payload(
        self, specs: Sequence[ExperimentSpec], adversarial: bool
    ) -> Dict[str, object]:
        """The JSON answer of ``repro-le query --json`` and HTTP ``/query``.

        ``specs`` and ``adversarial`` are what
        :func:`repro.api.plan_sweep` returned for the grid this result
        answers: the cache accounting (``report``), the per-cell rows
        (``cells``) and the robustness curves folded from them
        (``curves``).
        """
        return {
            "report": self.report.as_dict(),
            "adversarial": adversarial,
            "cells": summarize_results(self.results),
            "curves": robustness.curves_as_dicts(
                robustness.fold_experiments(specs, self.results)
            ),
        }


def query_config(config: Optional[SweepConfig]) -> SweepConfig:
    """``config`` (the defaults when ``None``), checked for a query.

    The archive is a query's checkpoint, and sharding belongs to the
    populate sweeps, not the read path: a config that sets
    ``checkpoint``/``shard`` is a caller error here, raised before
    anything runs or binds.
    """
    if config is None:
        return SweepConfig()
    if config.checkpoint is not None or config.shard is not None:
        raise ConfigurationError(
            "a query does not accept checkpoint=/shard= configuration: the "
            "archive is its checkpoint; run the populate sweep with those "
            "knobs instead"
        )
    return config


def query_experiments(
    specs: Sequence[ExperimentSpec],
    *,
    archive: Union[str, Path, ResultArchive],
    config: Optional[SweepConfig] = None,
    sinks: Sequence[ResultSink] = (),
) -> QueryResult:
    """Answer an experiment grid from the archive, simulating only misses.

    ``config`` (see :func:`query_config`) configures the runs that do
    execute — ``workers``, ``backend``, ``max_batch``,
    ``derive_seeds``/``base_seed``, ...; it may not set ``checkpoint``
    or ``shard``.

    The report comes from the engine's one restore read: the keys
    it asked for are the wanted runs and the keys it returned are the
    hits, so the grid is expanded into tasks once, and a run another
    writer archives while the query starts is counted as what it was:
    replayed, not simulated.
    """
    config = query_config(config)
    if isinstance(archive, ResultArchive):
        opened = None
        store = archive
    else:
        opened = ResultArchive(archive)
        store = opened
    try:
        added_before = store.flushed_new_runs
        results = run_experiments(
            specs, config=replace(config, checkpoint=store), sinks=sinks
        )
        added = store.flushed_new_runs - added_before
        wanted = store.requested_keys
        hits = store.fetched_keys
    finally:
        if opened is not None:
            opened.close()
    missing = set(wanted) - hits
    simulated_cells = {
        (coordinates.spec_name, coordinates.topology_index)
        for coordinates in map(parse_task_key, missing)
    }

    report = QueryReport(
        requested_runs=len(wanted),
        archived_runs=len(hits),
        simulated_runs=len(missing),
        simulated_cells=len(simulated_cells),
        archive_added=added,
    )
    return QueryResult(results=results, report=report)
