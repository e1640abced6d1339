"""Deterministic decomposition of experiment grids into run tasks.

An experiment is a grid of (algorithm, topology, seed) cells.  The parallel
engine schedules work at the granularity of a single :class:`RunTask` — one
``runner(topology, seed)`` invocation — because cells differ wildly in cost
(a deep binary tree costs an order of magnitude more than a hypercube of
the same size) and per-run tasks keep the pool load-balanced.

Determinism is anchored here, *before* any process is spawned:

* every task's seed is fixed at expansion time in the parent process, so
  results never depend on worker count, scheduling order, or start method;
* :func:`derive_cell_seed` derives per-cell seeds from a base seed with the
  process-stable FNV-1a construction of :func:`repro.core.rng.derive_seed`
  (no salted hashing, no OS entropy), so derived grids are reproducible
  across ``fork`` and ``spawn`` and across machines;
* :func:`task_key` gives every task a stable string identity used by the
  checkpoint layer to recognise completed work across interrupted runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, TypeVar

from ..analysis.experiments import ElectionRunner, ExperimentSpec, effective_runner
from ..core.errors import ConfigurationError
from ..core.rng import derive_seed
from ..graphs.topology import Topology

__all__ = [
    "RunTask",
    "derive_cell_seed",
    "expand_run_tasks",
    "parse_shard",
    "select_shard",
    "shard_round_robin",
    "task_key",
    "topology_fingerprint",
    "validate_shard",
]

T = TypeVar("T")


@dataclass(slots=True, unsafe_hash=True)
class RunTask:
    """One schedulable unit of work: a single ``runner(topology, seed)``.

    ``spec_name``/``topology_index``/``seed_index`` locate the task inside
    its experiment grid so the parent can reassemble cells in spec order no
    matter how the pool interleaved execution.

    A task is a value, treated as immutable: equal (and hashing equal)
    when its fields are, whatever its ``key``.  It is slotted rather than
    frozen because a sweep or query builds one per run of its grid, and
    most tasks of a warm query never execute: a restored run folds into
    its cell from its stored record, and a result is rebuilt from that
    record only for a sink that receives it (see
    :func:`repro.parallel.runner.run_experiments`).  For the same reason
    :func:`expand_run_tasks` sets a task's fields and key directly
    instead of calling ``__init__``: a new field must be set there too.
    """

    spec_name: str
    runner: ElectionRunner
    topology: Topology
    topology_index: int
    seed: int
    seed_index: int
    #: structure digest of ``topology``, computed once at expansion time
    #: (hashing the edge/port lists per key access would be quadratic).
    fingerprint: str
    #: stable token of the spec's adversary model ("" without one); part of
    #: the task identity so checkpoints never mix execution models.
    adversary: str = ""
    #: the spec's :meth:`~repro.analysis.experiments.ExperimentSpec.protocol_token`
    #: ("" for bare-name specs); part of the task identity so checkpoints
    #: never mix runs measured under different protocol constants.
    protocol: str = ""
    #: the :func:`task_key` of the fields above, computed once per task
    #: (the engine, scheduler, archive and sinks read it many times).
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.key = task_key(
            self.spec_name,
            self.topology_index,
            self.topology.name,
            self.fingerprint,
            self.seed_index,
            self.seed,
            self.adversary,
            self.protocol,
        )


def topology_fingerprint(topology: Topology) -> str:
    """Structure digest of a topology (see :meth:`Topology.fingerprint`).

    Run identities hash the actual node count, edge list and port
    assignment rather than the display name, which two distinct graph
    instances can share.
    """
    return topology.fingerprint()


def task_key(
    spec_name: str,
    topology_index: int,
    topology_name: str,
    fingerprint: str,
    seed_index: int,
    seed: int,
    adversary: str = "",
    protocol: str = "",
) -> str:
    """Stable checkpoint identity of one run inside an experiment grid.

    The topology's grid *index* and structure *fingerprint* are part of
    the key, not just its name: suites legitimately contain distinct graph
    instances sharing a display name, and a checkpoint resumed against a
    regenerated suite (different graph seed, same names) must re-run
    rather than silently replay results measured on different graphs.

    ``adversary`` (the spec's adversary token, "" for the reliable model)
    keys the execution model the run was measured under, for the same
    reason: a robustness sweep resumed with a different fault model must
    re-run, not replay.

    ``protocol`` (the spec's
    :meth:`~repro.analysis.experiments.ExperimentSpec.protocol_token`,
    "" for bare-name specs at default configuration) keys the protocol
    constants the run was measured under.  It is appended as an extra
    segment *only when set*, so checkpoints written before protocol specs
    existed keep their task keys and still resume.
    """
    return (
        f"{_key_head(spec_name, topology_index, topology_name, fingerprint)}"
        f"{seed_index}|{seed}{_key_tail(adversary, protocol)}"
    )


def _key_head(
    spec_name: str, topology_index: int, topology_name: str, fingerprint: str
) -> str:
    """The segments of a :func:`task_key` before the seed's."""
    return f"{spec_name}|{topology_index}|{topology_name}|{fingerprint}|"


def _key_tail(adversary: str, protocol: str) -> str:
    """The segments of a :func:`task_key` after the seed's."""
    return f"|{adversary}|{protocol}" if protocol else f"|{adversary}"


def derive_cell_seed(
    base_seed: Optional[int],
    spec_name: str,
    topology_name: str,
    replicate: int,
    *,
    fingerprint: str = "",
) -> int:
    """Derive the seed of one (spec, topology, replicate) cell.

    The derivation is a pure function of its arguments: stable across
    processes, multiprocessing start methods, and Python invocations.  Use
    it to give every cell of a large sweep an independent seed stream
    without coordinating between workers.

    ``fingerprint`` (see :func:`topology_fingerprint`) disambiguates
    distinct graph instances that share a display name; without it, two
    same-named topologies in one grid would receive identical derived
    seeds and their runs would be statistically correlated.
    """
    return derive_seed(
        base_seed, "cell", spec_name, topology_name, fingerprint, replicate
    )


def expand_run_tasks(
    spec: ExperimentSpec,
    *,
    derive_seeds: bool = False,
    base_seed: Optional[int] = None,
) -> List[RunTask]:
    """Flatten a spec into its (topology, seed) run tasks, in grid order.

    With ``derive_seeds=False`` (the default) the tasks use ``spec.seeds``
    verbatim — this is the drop-in mode whose results are identical to the
    serial backend.  With ``derive_seeds=True`` each task's seed is instead
    derived via :func:`derive_cell_seed` from ``base_seed``, giving every
    cell of the grid an independent deterministic seed.

    The list is expanded once per spec instance and ``(derive_seeds,
    base_seed)`` (see
    :meth:`~repro.analysis.experiments.ExperimentSpec.memoized`), so a
    grid that a server answers again and again is not expanded per
    request.  Every call returns that one list: callers must not modify it.
    """
    return spec.memoized(
        ("run_tasks", derive_seeds, base_seed),
        lambda: _expand_run_tasks(spec, derive_seeds, base_seed),
    )


def _expand_run_tasks(
    spec: ExperimentSpec, derive_seeds: bool, base_seed: Optional[int]
) -> List[RunTask]:
    tasks: List[RunTask] = []
    name = spec.name
    runner = effective_runner(spec)
    adversary = spec.adversary.token() if spec.adversary is not None else ""
    protocol = spec.protocol_token()
    tail = _key_tail(adversary, protocol)
    for topology_index, topology in enumerate(spec.topologies):
        fingerprint = topology_fingerprint(topology)
        head = _key_head(name, topology_index, topology.name, fingerprint)
        for seed_index, seed in enumerate(spec.seeds):
            if derive_seeds:
                seed = derive_cell_seed(
                    base_seed,
                    name,
                    topology.name,
                    seed_index,
                    fingerprint=fingerprint,
                )
            # What RunTask(...) builds, with the key's seed-independent
            # segments formatted once per topology instead of per task.
            task = object.__new__(RunTask)
            task.spec_name = name
            task.runner = runner
            task.topology = topology
            task.topology_index = topology_index
            task.seed = seed
            task.seed_index = seed_index
            task.fingerprint = fingerprint
            task.adversary = adversary
            task.protocol = protocol
            task.key = f"{head}{seed_index}|{seed}{tail}"
            tasks.append(task)
    return tasks


def shard_round_robin(items: Sequence[T], shards: int) -> List[List[T]]:
    """Partition ``items`` into ``shards`` round-robin slices.

    The pool schedules tasks dynamically, but static sharding is useful for
    tests and for distributing a sweep across independent jobs (each shard
    is a deterministic function of the task list and the shard count).
    """
    if shards <= 0:
        raise ValueError(f"shards must be positive, got {shards}")
    buckets: List[List[T]] = [[] for _ in range(shards)]
    for index, item in enumerate(items):
        buckets[index % shards].append(item)
    return buckets


def validate_shard(index: int, count: int) -> Tuple[int, int]:
    """Validate a (shard index, shard count) pair.

    Raised errors are :class:`~repro.core.errors.ConfigurationError` so
    the CLI reports a clean ``error:`` line instead of a traceback when a
    job script passes ``--shard 4/4`` or ``--shard 1/0``.
    """
    if count < 1:
        raise ConfigurationError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ConfigurationError(
            f"shard index must be in [0, {count}), got {index} "
            f"(shards are numbered 0..k-1 in an i/k split)"
        )
    return index, count


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a CLI shard specification.

    ``i/k`` — a static split — parses to ``(index, count)``: ``i`` is
    this job's shard (0-based) and ``k`` the total number of jobs
    splitting the grid; ``0/2`` and ``1/2`` together cover exactly the
    tasks of one unsharded sweep.
    """
    head, sep, tail = text.partition("/")
    if head == "auto":
        raise ConfigurationError(
            f"shard specification {text!r}: work stealing (--shard auto) was "
            f"removed; split the grid with --shard i/k jobs and fold their "
            f"checkpoints with `repro-le merge`"
        )
    if not sep:
        raise ConfigurationError(
            f"bad shard specification {text!r}; expected i/k (e.g. 0/4)"
        )
    try:
        index, count = int(head), int(tail)
    except ValueError:
        raise ConfigurationError(
            f"bad shard specification {text!r}; i and k must be integers"
        ) from None
    return validate_shard(index, count)


def select_shard(items: Sequence[T], index: int, count: int) -> List[T]:
    """This shard's round-robin slice of ``items``.

    A pure function of (item order, index, count): every job of an
    ``i/k`` split computes the same partition independently, with no
    coordination beyond agreeing on the grid.  Delegates to
    :func:`shard_round_robin` so slice selection and the shard manifest's
    coverage bookkeeping can never disagree on the assignment rule.
    """
    validate_shard(index, count)
    return shard_round_robin(items, count)[index]
