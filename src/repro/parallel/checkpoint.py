"""Checkpoint records of completed experiment runs, and sharded checkpoints.

Large sweeps die for mundane reasons — a laptop lid, a preempted CI node,
an out-of-memory kill.  The checkpoint layer makes that cheap: every
completed (topology, seed) run is recorded under its
:func:`~repro.parallel.sharding.task_key`, and a restarted sweep only
executes the missing tasks.  This module defines the record; the one
on-disk writer is the append-only
:class:`~repro.parallel.store.JsonlCheckpointStore`.

The stored record round-trips everything the aggregation layer needs —
outcome, metrics (including per-phase breakdowns), rounds, seed and
parameters — so resumed sweeps produce cells identical to uninterrupted
ones.  Per-node protocol results are not stored: they are diagnostic
payload, not aggregate input, so a record's size is independent of the
network size and a restored run has empty ``node_results``.  Records
written by earlier builds may still carry a ``node_results`` field; it
is ignored.

Sharded checkpoints
-------------------

A sweep split across ``k`` independent jobs (``repro-le sweep --shard
i/k``) must not contend on one checkpoint file, so each shard persists its runs
to its own checkpoint (:func:`shard_checkpoint_path`) and every job
writes the same deterministic *shard manifest* (:class:`ShardManifest`,
an index of the split: shard count, per-shard files and task keys).
:func:`merge_shard_checkpoints` folds the shard files back into a single
checkpoint, validating coverage against the manifest and rejecting
conflicting records for the same task key; the merged file replays
through an ordinary unsharded sweep.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from ..core.errors import ConfigurationError
from ..core.metrics import Metrics, PhaseMetrics
from ..election.base import ElectionOutcome, LeaderElectionResult

__all__ = [
    "ShardManifest",
    "manifest_path",
    "merge_shard_checkpoints",
    "record_fold_fields",
    "result_to_record",
    "result_from_record",
    "shard_checkpoint_path",
    "writer_token",
]

FORMAT_VERSION = 1
MANIFEST_KIND = "shard-manifest"

def writer_token() -> str:
    """A fresh name part unique to one writer: pid, thread id, random suffix.

    Temp files (checkpoint rewrites, shard manifests) are named with it
    so that no two writers ever share one — not two processes, and not two threads
    of one process either (``repro-le serve`` answers on threads).
    """
    return f"{os.getpid()}-{threading.get_ident()}-{os.urandom(4).hex()}"


def result_to_record(
    result: LeaderElectionResult, wall_clock_seconds: float
) -> Dict[str, object]:
    """Serialise one run to a JSON-encodable checkpoint record."""
    return {
        "wall_clock_seconds": wall_clock_seconds,
        "algorithm": result.algorithm,
        "topology_name": result.topology_name,
        "num_nodes": result.num_nodes,
        "num_edges": result.num_edges,
        "rounds_executed": result.rounds_executed,
        "seed": result.seed,
        "outcome": result.outcome.as_dict(),
        "metrics": result.metrics.as_dict(),
        "parameters": dict(result.parameters),
    }


def record_fold_fields(record: Dict[str, object]) -> tuple:
    """The fields of a checkpoint record that a cell fold reads.

    Algorithm, topology name, seed, rounds, messages, bits, dropped and
    delayed messages, leader count, unique-leader flag, the ``adversary``
    entry of ``parameters`` and wall-clock seconds: a row of
    :meth:`~repro.analysis.streaming.CellAggregate.fold`, so
    a restored run folds into its cell without a
    :class:`~repro.election.base.LeaderElectionResult` being built.  The
    one reader of these fields and of the defaults that records written
    by earlier builds need (no fault counters, no ``parameters``);
    :func:`result_from_record` builds on it, and the result archive
    stores these fields per run so that a warm query reads no record.
    """
    metrics = record["metrics"]
    outcome = record["outcome"]
    return (
        record["algorithm"],
        record["topology_name"],
        record["seed"],
        record["rounds_executed"],
        metrics["messages"],
        metrics["bits"],
        metrics.get("dropped_messages", 0),
        metrics.get("delayed_messages", 0),
        outcome["num_leaders"],
        outcome["unique_leader"],
        record.get("parameters", {}).get("adversary"),
        float(record["wall_clock_seconds"]),
    )


def result_from_record(
    record: Dict[str, object],
) -> Tuple[LeaderElectionResult, float]:
    """Rebuild a run (and its wall-clock reading) from a checkpoint record."""
    (
        algorithm,
        topology_name,
        seed,
        rounds_executed,
        messages,
        bits,
        dropped,
        delayed,
        num_leaders,
        unique_leader,
        _,
        wall_clock_seconds,
    ) = record_fold_fields(record)
    outcome_dict = record["outcome"]
    outcome = ElectionOutcome(
        num_leaders=num_leaders,
        leader_indices=list(outcome_dict["leader_indices"]),
        candidate_indices=list(outcome_dict["candidate_indices"]),
        unique_leader=unique_leader,
        agreement=outcome_dict.get("agreement"),
    )
    metrics_dict = record["metrics"]
    metrics = Metrics(
        rounds=metrics_dict["rounds"],
        messages=messages,
        bits=bits,
        congest_violations=metrics_dict["congest_violations"],
        dropped_messages=dropped,
        delayed_messages=delayed,
        sent_messages=metrics_dict.get("sent_messages", 0),
        delivered_messages=metrics_dict.get("delivered_messages", 0),
        events=dict(metrics_dict.get("events", {})),
        phases={
            name: PhaseMetrics(**phase)
            for name, phase in metrics_dict.get("phases", {}).items()
        },
    )
    result = LeaderElectionResult(
        algorithm=algorithm,
        topology_name=topology_name,
        num_nodes=record["num_nodes"],
        num_edges=record["num_edges"],
        outcome=outcome,
        metrics=metrics,
        rounds_executed=rounds_executed,
        seed=seed,
        parameters=dict(record.get("parameters", {})),
    )
    return result, wall_clock_seconds


# --------------------------------------------------------------------------- #
# sharded checkpoints: per-shard files + a deterministic manifest
# --------------------------------------------------------------------------- #


def shard_checkpoint_path(
    base: Union[str, Path],
    index: int,
    count: int,
    *,
    default_suffix: str = ".json",
) -> Path:
    """The per-shard file of shard ``index`` of an ``index/count`` split.

    Derived from the base path so the shard files of one sweep sit next
    to each other: ``sweep.json`` -> ``sweep.shard0of2.json``.  This is
    the single source of the shard-file naming scheme — the CLI reuses it
    (with ``default_suffix=".jsonl"``) for per-shard JSONL exports, so
    checkpoints and exports can never drift apart.
    """
    base = Path(base)
    return base.with_name(
        f"{base.stem}.shard{index}of{count}{base.suffix or default_suffix}"
    )


def manifest_path(base: Union[str, Path]) -> Path:
    """The shard-manifest (index) file of a sharded sweep:
    ``sweep.json`` -> ``sweep.manifest.json``."""
    base = Path(base)
    return base.with_name(f"{base.stem}.manifest{base.suffix or '.json'}")


@dataclass(frozen=True)
class ShardManifest:
    """The index of a sharded sweep: which task keys live in which shard file.

    The manifest is a *pure function of the grid and the shard count*
    (task keys in expansion order, round-robin assignment), so every job
    of an ``i/k`` split computes byte-identical content and can write the
    index idempotently — k jobs on k machines need no coordination beyond
    sharing the grid definition.  A job that finds an existing manifest
    with different content is running a different grid (regenerated
    topologies, another adversary, another shard count) against a stale
    checkpoint directory, which is a configuration error, not a merge
    problem.
    """

    shard_count: int
    #: file *names* (relative to the manifest's directory), one per shard
    shard_files: Tuple[str, ...]
    #: task keys per shard, in task order
    shard_tasks: Tuple[Tuple[str, ...], ...]

    @classmethod
    def plan(
        cls, base: Union[str, Path], task_keys: Sequence[str], shard_count: int
    ) -> "ShardManifest":
        """Build the manifest of splitting ``task_keys`` into ``shard_count``
        round-robin shards checkpointed next to ``base``."""
        from .sharding import shard_round_robin

        if shard_count < 1:
            raise ConfigurationError(
                f"shard count must be >= 1, got {shard_count}"
            )
        # The single source of the assignment rule: manifest coverage
        # validation and job-side slice selection must always agree.
        buckets = shard_round_robin(list(task_keys), shard_count)
        return cls(
            shard_count=shard_count,
            shard_files=tuple(
                shard_checkpoint_path(base, index, shard_count).name
                for index in range(shard_count)
            ),
            shard_tasks=tuple(tuple(bucket) for bucket in buckets),
        )

    def as_payload(self) -> Dict[str, object]:
        return {
            "version": FORMAT_VERSION,
            "kind": MANIFEST_KIND,
            "shard_count": self.shard_count,
            "shards": [
                {"index": index, "file": name, "tasks": list(tasks)}
                for index, (name, tasks) in enumerate(
                    zip(self.shard_files, self.shard_tasks)
                )
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object], source: Path) -> "ShardManifest":
        version = payload.get("version")
        if version != FORMAT_VERSION:
            raise ConfigurationError(
                f"shard manifest {source} has format version {version!r}; "
                f"this build reads version {FORMAT_VERSION}"
            )
        if payload.get("kind") != MANIFEST_KIND:
            raise ConfigurationError(
                f"{source} is not a shard manifest (kind={payload.get('kind')!r}); "
                f"pass the .manifest.json index written by a sharded sweep"
            )
        shards = payload.get("shards", [])
        return cls(
            shard_count=int(payload["shard_count"]),
            shard_files=tuple(str(entry["file"]) for entry in shards),
            shard_tasks=tuple(
                tuple(str(key) for key in entry["tasks"]) for entry in shards
            ),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ShardManifest":
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(
                f"shard manifest {path} does not exist; run the sharded sweep "
                f"(--shard i/k with --checkpoint) first"
            )
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as error:
            raise ConfigurationError(
                f"shard manifest {path} is not valid JSON ({error})"
            ) from error
        return cls.from_payload(payload, path)

    def write(self, path: Union[str, Path]) -> None:
        """Write the manifest idempotently (atomic; identical content is a
        no-op, *different* content is a configuration error)."""
        path = Path(path)
        if path.exists():
            existing = ShardManifest.load(path)
            if existing == self:
                return
            raise ConfigurationError(
                f"shard manifest {path} was written for a different sweep "
                f"(shard count {existing.shard_count} vs {self.shard_count}, "
                f"or a different task grid — e.g. regenerated topologies or "
                f"another adversary); move it aside or use a fresh "
                f"--checkpoint base to start a new sharded sweep"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        # Writer-unique temp name: concurrent shard jobs on a shared
        # filesystem race to publish the (identical) manifest, and a
        # shared temp path would let one job replace a half-written file.
        temp = path.with_name(f"{path.name}.{writer_token()}.tmp")
        temp.write_text(
            json.dumps(self.as_payload(), indent=1, sort_keys=True),
            encoding="utf-8",
        )
        os.replace(temp, path)

    def expected_keys(self) -> Dict[str, int]:
        """task key -> shard index, over the whole grid."""
        table: Dict[str, int] = {}
        for index, tasks in enumerate(self.shard_tasks):
            for key in tasks:
                table[key] = index
        return table

    def shard_file_paths(self, manifest_file: Union[str, Path]) -> List[Path]:
        """Absolute shard checkpoint paths, resolved next to the manifest."""
        directory = Path(manifest_file).parent
        return [directory / name for name in self.shard_files]


def merge_shard_checkpoints(
    manifest_file: Union[str, Path],
    output: Union[str, Path],
    *,
    allow_partial: bool = False,
) -> Dict[str, object]:
    """Fold the shard checkpoints of one sharded sweep into ``output``.

    Validation before anything is written:

    * *conflicts* — two shards holding different measurements for the same
      task key abort the merge (identical records, e.g. from an
      overlapping re-run, deduplicate silently);
    * *coverage* — every task key named by the manifest must be present,
      unless ``allow_partial`` (useful for merging the shards that did
      finish while a straggler is still running);
    * *missing shard files* are an error without ``allow_partial``;
    * records for keys the manifest does not know (stale leftovers of an
      earlier sweep under a different adversary token, say) are dropped
      from the output and reported.

    Returns a summary dict (shards seen, records merged, coverage counts)
    that the CLI renders.
    """
    # Imported here — the store module builds on this one.
    from .store import JsonlCheckpointStore

    manifest_file = Path(manifest_file)
    manifest = ShardManifest.load(manifest_file)
    expected = manifest.expected_keys()

    merged: Dict[str, Dict[str, object]] = {}
    missing_shards: List[str] = []
    extraneous = 0
    for shard_path in manifest.shard_file_paths(manifest_file):
        if not shard_path.exists():
            missing_shards.append(shard_path.name)
            continue
        for key, record in JsonlCheckpointStore(shard_path).load().items():
            if key not in expected:
                extraneous += 1
                continue
            known = merged.get(key)
            if known is None:
                merged[key] = record
            elif known != record:
                raise ConfigurationError(
                    f"conflicting records for task {key!r} across shard "
                    f"checkpoints of {manifest_file}: the same run was "
                    f"measured twice with different outcomes, so the shard "
                    f"files do not belong to one sweep"
                )
    if missing_shards and not allow_partial:
        raise ConfigurationError(
            f"missing shard checkpoint(s) {missing_shards} for "
            f"{manifest_file}; run the remaining shard jobs or pass "
            f"--allow-partial to merge what is there"
        )
    missing_keys = [key for key in expected if key not in merged]
    if missing_keys and not allow_partial:
        raise ConfigurationError(
            f"shard checkpoints cover {len(merged)} of {len(expected)} tasks "
            f"({len(missing_keys)} missing, e.g. {missing_keys[0]!r}); finish "
            f"the shard jobs or pass --allow-partial"
        )

    # Fresh merge output: an existing file is replaced, never resumed.
    JsonlCheckpointStore(output).write_fresh(merged)
    return {
        "shards": manifest.shard_count,
        "shards_found": manifest.shard_count - len(missing_shards),
        "missing_shards": len(missing_shards),
        "tasks_expected": len(expected),
        "tasks_merged": len(merged),
        "tasks_missing": len(missing_keys),
        "extraneous_records_dropped": extraneous,
        "output": str(output),
    }
