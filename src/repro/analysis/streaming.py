"""Streaming result aggregation: sinks fold runs into per-cell statistics.

The experiment engine used to hold every
:class:`~repro.election.base.LeaderElectionResult` in memory until cells
were assembled — O(runs × nodes) resident for large grids.  This module
replaces that with a streaming pipeline: every completed run is *emitted*
into one or more :class:`ResultSink` objects the moment it finishes and
then released, so the only state that grows with the sweep is a fixed set
of per-cell accumulators.

Order independence
------------------

:class:`CellAggregate` keeps **exact** accumulators — integer/rational
sums and sums of squares, min/max, counts — and converts to floats only
once, when a cell is assembled.  Exact addition is associative and
commutative, so the aggregates are bit-identical no matter how the runs
were interleaved: serial grid order, a pool's completion order, or a
merge of per-shard checkpoints all produce the same cells.  (Wall-clock
sums stay plain floats; they are the one legitimately nondeterministic
measurement and are excluded from every equivalence guarantee.)

Sinks
-----

* :class:`CellAggregatingSink` — the default pipeline: folds each run
  into its cell's :class:`CellAggregate`;
* :class:`CollectingSink` — the opt-in "keep the full results" sink
  (``sinks=[CollectingSink()]``, read back with ``results_for``);
  composes with the aggregating sink instead of threading a flag
  through every layer;
* :class:`JsonlSink` — streams one JSON record per run to a ``.jsonl``
  file (``repro-le sweep --jsonl out.jsonl``), so per-run data reaches
  offline analysis without retaining anything in memory;
* :class:`ProgressSink` — periodically logs ``completed/total`` runs
  with elapsed time, throughput and an ETA (``repro-le sweep
  --progress``), so long sharded sweeps running on other machines stay
  observable from their job logs;
* any user-supplied object implementing :class:`ResultSink` can be passed
  to the experiment drivers (``sinks=...``) to observe runs as they
  complete (progress bars, live dashboards, external writers).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, TextIO, Tuple, Union

from ..election.base import LeaderElectionResult, SafetyTally
from ..obs import Stopwatch
from ..obs.staged import StagedJsonl

__all__ = [
    "CellAggregate",
    "CellAggregatingSink",
    "CollectingSink",
    "JsonlSink",
    "ProgressSink",
    "ResultSink",
    "abort_sinks",
]

#: Exact accumulator value: ints stay ints (arbitrary precision), floats
#: are promoted to :class:`~fractions.Fraction` so sums stay exact and
#: therefore order-independent.
Exact = Union[int, Fraction]


def _exact(value) -> Exact:
    return value if isinstance(value, int) else Fraction(value)


def _quotient(numerator: Exact, denominator: int) -> float:
    """``numerator / denominator`` rounded once, to the nearest float.

    Integer true division is already correctly rounded, so it equals
    ``float(Fraction(numerator) / denominator)`` without building a
    :class:`~fractions.Fraction`; rational sums keep the exact path.
    """
    if isinstance(numerator, int):
        return numerator / denominator
    return float(Fraction(numerator) / denominator)


class CellAggregate:
    """Exact incremental statistics of one (algorithm, topology) cell.

    Everything :class:`~repro.analysis.experiments.ExperimentCell` reports
    is derivable from these accumulators, so a sweep never needs to retain
    its runs.  ``merge`` combines aggregates (a robustness curve point
    merges its cells'); because the accumulators are exact, a merge of
    partial aggregates equals the aggregate of the union.

    Every run goes through one fold body, :meth:`fold`.  A fresh run
    arrives as a result (:meth:`add`); a run restored from a checkpoint
    or archive folds straight from its stored record, and the engine
    rebuilds a result from that record only for a sink that receives it.
    """

    __slots__ = (
        "algorithm",
        "count",
        "successes",
        "sum_messages",
        "sum_sq_messages",
        "sum_bits",
        "sum_rounds",
        "sum_dropped",
        "sum_delayed",
        "sum_wall_clock",
        "min_messages",
        "max_messages",
        "min_rounds",
        "max_rounds",
        "safety",
    )

    def __init__(self) -> None:
        self.algorithm: Optional[str] = None
        self.count = 0
        self.successes = 0
        self.sum_messages: Exact = 0
        self.sum_sq_messages: Exact = 0
        self.sum_bits: Exact = 0
        self.sum_rounds: Exact = 0
        self.sum_dropped: Exact = 0
        self.sum_delayed: Exact = 0
        self.sum_wall_clock = 0.0
        self.min_messages: Optional[int] = None
        self.max_messages: Optional[int] = None
        self.min_rounds: Optional[int] = None
        self.max_rounds: Optional[int] = None
        self.safety = SafetyTally()

    def add(self, result: LeaderElectionResult, wall_clock_seconds: float) -> None:
        """Fold one completed run into the cell."""
        metrics = result.metrics
        outcome = result.outcome
        self.fold(
            result.algorithm,
            result.topology_name,
            result.seed,
            result.rounds_executed,
            metrics.messages,
            metrics.bits,
            metrics.dropped_messages,
            metrics.delayed_messages,
            outcome.num_leaders,
            outcome.unique_leader,
            result.parameters.get("adversary"),
            wall_clock_seconds,
        )

    def fold(
        self,
        algorithm: str,
        topology_name: str,
        seed: Optional[int],
        rounds: int,
        messages: int,
        bits: int,
        dropped: int,
        delayed: int,
        num_leaders: int,
        unique_leader: bool,
        adversary: Optional[object],
        wall_clock_seconds: float,
    ) -> None:
        """Fold one run, given as the fields a cell reads, into the cell.

        The one fold body: :meth:`add` unpacks a fresh
        :class:`~repro.election.base.LeaderElectionResult` into it, and
        the engine's restore path passes a stored run's fields
        (:func:`repro.parallel.checkpoint.record_fold_fields`) without
        rebuilding a result.  ``adversary`` is the run's
        ``parameters["adversary"]`` (``None`` without one), the only
        parameter a cell reads.
        """
        if self.algorithm is None:
            self.algorithm = algorithm
        self.count += 1
        if unique_leader:
            self.successes += 1
        self.sum_messages += _exact(messages)
        self.sum_sq_messages += _exact(messages) * _exact(messages)
        self.sum_bits += _exact(bits)
        self.sum_rounds += _exact(rounds)
        self.sum_dropped += _exact(dropped)
        self.sum_delayed += _exact(delayed)
        self.sum_wall_clock += wall_clock_seconds
        if self.min_messages is None or messages < self.min_messages:
            self.min_messages = messages
        if self.max_messages is None or messages > self.max_messages:
            self.max_messages = messages
        if self.min_rounds is None or rounds < self.min_rounds:
            self.min_rounds = rounds
        if self.max_rounds is None or rounds > self.max_rounds:
            self.max_rounds = rounds
        self.safety.tally(
            algorithm, topology_name, seed, num_leaders, unique_leader, adversary
        )

    def merge(self, other: "CellAggregate") -> None:
        """Fold another aggregate into this one.

        The sum is exact, so merging partial aggregates equals aggregating
        the union of their runs.  A robustness curve point merges the
        aggregates of every cell at its dial value
        (:func:`repro.analysis.robustness.fold_experiments`).
        """
        if self.algorithm is None:
            self.algorithm = other.algorithm
        self.count += other.count
        self.successes += other.successes
        self.sum_messages += other.sum_messages
        self.sum_sq_messages += other.sum_sq_messages
        self.sum_bits += other.sum_bits
        self.sum_rounds += other.sum_rounds
        self.sum_dropped += other.sum_dropped
        self.sum_delayed += other.sum_delayed
        self.sum_wall_clock += other.sum_wall_clock
        for field in ("min_messages", "min_rounds"):
            mine, theirs = getattr(self, field), getattr(other, field)
            if mine is None or (theirs is not None and theirs < mine):
                setattr(self, field, theirs)
        for field in ("max_messages", "max_rounds"):
            mine, theirs = getattr(self, field), getattr(other, field)
            if mine is None or (theirs is not None and theirs > mine):
                setattr(self, field, theirs)
        self.safety.merge(other.safety)

    # ------------------------------------------------------------------ #
    # derived statistics
    # ------------------------------------------------------------------ #
    @property
    def mean_messages(self) -> float:
        return _quotient(self.sum_messages, self.count)

    @property
    def mean_bits(self) -> float:
        return _quotient(self.sum_bits, self.count)

    @property
    def mean_rounds(self) -> float:
        return _quotient(self.sum_rounds, self.count)

    @property
    def mean_dropped_messages(self) -> float:
        return _quotient(self.sum_dropped, self.count)

    @property
    def mean_delayed_messages(self) -> float:
        return _quotient(self.sum_delayed, self.count)

    @property
    def mean_wall_clock_seconds(self) -> float:
        return self.sum_wall_clock / self.count

    @property
    def stdev_messages(self) -> float:
        """Population standard deviation from the exact moments.

        ``n·Σx² − (Σx)²`` is computed in exact arithmetic, so the value
        is independent of fold order (a float running sum would not be).
        """
        if self.count < 2:
            return 0.0
        n = self.count
        variance = _quotient(
            n * self.sum_sq_messages - self.sum_messages * self.sum_messages,
            n * n,
        )
        return math.sqrt(variance)


class ResultSink:
    """Receives each completed run of an experiment grid, in completion order.

    The base class ignores everything, so subclasses override only what
    they need.  ``emit`` is called from the parent process (never from
    pool workers) with the run's grid coordinates; ``close`` is called
    once after the last run of a sweep.
    """

    def emit(
        self,
        spec_name: str,
        topology_index: int,
        seed_index: int,
        result: LeaderElectionResult,
        wall_clock_seconds: float,
    ) -> None:
        """Observe one completed run."""

    def close(self) -> None:
        """The sweep completed; flush any buffered state."""

    def abort(self) -> None:
        """The sweep failed mid-grid; release resources.

        Called by the drivers instead of :meth:`close` when a run raised —
        :meth:`close` still means "the sweep completed", exactly as it
        always has, so sinks that publish on close are never handed an
        incomplete sweep.  The default does nothing (the built-in sinks
        hold no resources); sinks with buffers or handles override it
        (e.g. :class:`JsonlSink` flushes its staging file without
        publishing).
        """


def abort_sinks(sinks) -> None:
    """Abort every sink of a failed sweep (the drivers' failure path).

    ``getattr``: duck-typed sinks written against the original emit/close
    contract predate :meth:`ResultSink.abort` and simply get skipped —
    their ``close`` still means "the sweep completed" and is not called.
    """
    for sink in sinks:
        abort = getattr(sink, "abort", None)
        if abort is not None:
            abort()


class CellAggregatingSink(ResultSink):
    """The default pipeline stage: fold every run into its cell aggregate."""

    def __init__(self) -> None:
        self._cells: Dict[Tuple[str, int], CellAggregate] = {}

    def _cell(self, spec_name: str, topology_index: int) -> CellAggregate:
        key = (spec_name, topology_index)
        aggregate = self._cells.get(key)
        if aggregate is None:
            aggregate = self._cells[key] = CellAggregate()
        return aggregate

    def emit(self, spec_name, topology_index, seed_index, result, wall_clock_seconds):
        self._cell(spec_name, topology_index).add(result, wall_clock_seconds)

    def fold(self, spec_name: str, topology_index: int, fields: tuple) -> None:
        """Fold one run given as :meth:`CellAggregate.fold`'s arguments.

        The engine replays a stored run through here straight from its
        record (:func:`repro.parallel.checkpoint.record_fold_fields`), so
        restored runs do not pass through :meth:`emit`.
        """
        self._cell(spec_name, topology_index).fold(*fields)

    def aggregate_for(
        self, spec_name: str, topology_index: int
    ) -> Optional[CellAggregate]:
        """The cell's aggregate, or ``None`` if no run has been emitted
        (possible for sharded sweeps, which execute a subset of the grid)."""
        return self._cells.get((spec_name, topology_index))


class CollectingSink(ResultSink):
    """Opt-in retention of the full per-run results.

    This is the only part of the pipeline whose memory grows with
    ``runs × nodes``; it exists for callers that genuinely need per-run
    payloads (debugging, per-run safety forensics) and composes with the
    aggregating sink instead of changing the aggregation path.
    """

    def __init__(self) -> None:
        self._runs: Dict[Tuple[str, int], Dict[int, LeaderElectionResult]] = {}

    def emit(self, spec_name, topology_index, seed_index, result, wall_clock_seconds):
        self._runs.setdefault((spec_name, topology_index), {})[seed_index] = result

    def results_for(
        self, spec_name: str, topology_index: int
    ) -> List[LeaderElectionResult]:
        """The cell's runs in grid (seed) order, regardless of completion order."""
        cell = self._runs.get((spec_name, topology_index), {})
        return [cell[index] for index in sorted(cell)]


class ProgressSink(ResultSink):
    """Periodic ``completed/total`` progress lines for long sweeps.

    The multi-machine progress report: each job of a sharded sweep
    attaches one (``repro-le sweep --shard 2/8 --progress``) and its log
    shows how far *its slice* has come — including runs restored from the
    shard's checkpoint, which stream through the sinks like fresh ones.

    Reporting cadence is count-based, hence deterministic: a line every
    ``every`` completed runs (default: ~5% of ``total``, every 25 runs
    when the total is unknown) plus a final line at close.  Each line
    also carries elapsed time, throughput and — when the total is known
    and runs remain — an ETA, timed by a :class:`repro.obs.Stopwatch`
    (``clock`` is injectable so tests pin the timing part down too).
    Lines go to ``stream`` (default ``stderr``, keeping stdout's result
    tables clean)::

        progress[shard 2/8]: 48/96 runs (50.0%) | 12.0s elapsed, 4.0 runs/s, ETA 12.0s
    """

    def __init__(
        self,
        total: Optional[int] = None,
        *,
        label: str = "",
        every: Optional[int] = None,
        stream: Optional[TextIO] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if total is not None and total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        if every is not None and every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self._total = total
        self._label = f"[{label}]" if label else ""
        self._every = every if every is not None else (
            max(1, total // 20) if total else 25
        )
        self._stream = stream
        self._stopwatch = Stopwatch(clock)
        self._count = 0
        self._reported_at = -1

    def _report(self) -> None:
        if self._total:
            detail = f"{self._count}/{self._total} runs ({self._count / self._total:.1%})"
        else:
            detail = f"{self._count} runs"
        elapsed = self._stopwatch.elapsed()
        timing = f"{elapsed:.1f}s elapsed"
        if self._count and elapsed > 0:
            rate = self._count / elapsed
            timing += f", {rate:.1f} runs/s"
            if self._total and self._count < self._total:
                # Naive linear ETA — the honest choice here: cells are
                # heterogeneous, but the operator wants *an* estimate.
                timing += f", ETA {(self._total - self._count) / rate:.1f}s"
        stream = self._stream if self._stream is not None else sys.stderr
        print(
            f"progress{self._label}: {detail} | {timing}", file=stream, flush=True
        )
        self._reported_at = self._count

    def emit(self, spec_name, topology_index, seed_index, result, wall_clock_seconds):
        self._count += 1
        if self._count % self._every == 0 or self._count == self._total:
            self._report()

    def close(self) -> None:
        # The final count is always reported, even for an empty shard
        # slice — "0 runs" tells the operator the job ran and had nothing
        # to do, which silence would not.
        if self._count != self._reported_at:
            self._report()


class JsonlSink(ResultSink):
    """Stream one JSON record per completed run to a ``.jsonl`` file.

    The ROADMAP's export sink: per-run measurements reach disk for offline
    analysis without a :class:`CollectingSink` retaining them in memory —
    the sink holds one open file handle and nothing else.  Records carry the run's
    grid coordinates (``experiment``/``topology_index``/``seed_index``) so
    offline consumers can regroup or reorder them, plus the protocol
    token and adversary description when the run was parameterised.

    Records are written in *completion* order: identical to grid order on
    the serial backend, pool-dependent under ``workers > 1`` (use the grid
    coordinates to sort).  Writes go to a ``<path>.partial`` staging file
    that replaces ``<path>`` on a clean close, so the export at ``<path>``
    is always a *complete* sweep: a resumed sweep (a *fresh* sink on an
    existing path) replaces the previous export, a sweep that crashes
    mid-grid leaves the previous export untouched and its completed runs'
    records in the ``.partial`` file for debugging.  One sink *instance*
    shared by sequential driver calls accumulates every call's records in
    one file.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._export = StagedJsonl(path, accumulate=True)

    def emit(self, spec_name, topology_index, seed_index, result, wall_clock_seconds):
        record: Dict[str, object] = {
            "experiment": spec_name,
            "topology_index": topology_index,
            "seed_index": seed_index,
            "algorithm": result.algorithm,
            "protocol": result.parameters.get("protocol", ""),
            "topology": result.topology_name,
            "n": result.num_nodes,
            "m": result.num_edges,
            "seed": result.seed,
            "success": result.success,
            "leaders": result.outcome.num_leaders,
            "messages": result.messages,
            "bits": result.bits,
            "rounds": result.rounds_executed,
            "dropped_messages": result.metrics.dropped_messages,
            "delayed_messages": result.metrics.delayed_messages,
            "wall_clock_seconds": wall_clock_seconds,
        }
        adversary = result.parameters.get("adversary")
        if adversary is not None:
            record["adversary"] = adversary
        self._export.write(record)

    def close(self) -> None:
        # Idempotent: the drivers close caller-supplied sinks, and a
        # caller closing again defensively must not republish (or
        # truncate) the finished file.  A sweep with zero local runs (an
        # empty shard slice) still publishes an (empty) file, so
        # downstream collectors see the job ran.
        self._export.publish()

    def abort(self) -> None:
        # The sweep failed mid-grid: the completed runs' records stay in
        # the ``.partial`` staging file (they help debug the failure), but
        # nothing is published — the export path keeps its previous
        # complete sweep, and a crash before the first run forges no
        # empty "completed with zero runs" marker.
        self._export.abort()
