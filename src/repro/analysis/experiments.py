"""Experiment runner: sweeps of election algorithms over topologies and seeds.

The benchmark harness and the examples share the same driver: an
:class:`ExperimentSpec` names a registered protocol (a
:class:`~repro.protocols.spec.ProtocolSpec`) and the grid of
topologies/seeds to run it on; :func:`run_experiment`
executes the grid and aggregates per-cell statistics (success rate, message
and round means) into :class:`ExperimentCell` records that the reporting
layer turns into Table 1-style tables or scaling series.

The result path is *streaming* (see :mod:`repro.analysis.streaming`):
each run is folded into its cell's exact accumulators the moment it
completes and then released, so neither the serial driver here nor the
parallel engine (:mod:`repro.parallel`) retains the full run list.
A caller that needs the runs passes a
:class:`~repro.analysis.streaming.CollectingSink` in ``sinks``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.errors import ConfigurationError
from ..core.simulator import backend_scope
from ..election.base import LeaderElectionResult, SafetyTally
from ..obs import Stopwatch, span
from ..graphs.properties import ExpansionProfile, expansion_profile
from ..graphs.topology import Topology
from .streaming import CellAggregate, CellAggregatingSink, ResultSink, abort_sinks

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps layering acyclic
    from ..dynamics.spec import AdversarySpec
    from ..protocols.spec import ProtocolSpec

__all__ = [
    "ElectionRunner",
    "ExperimentSpec",
    "ExperimentCell",
    "ExperimentResult",
    "cell_from_aggregate",
    "effective_runner",
    "execute_run",
    "run_experiment",
    "summarize_results",
]

#: An algorithm under test: ``runner(topology, seed) -> LeaderElectionResult``.
ElectionRunner = Callable[[Topology, int], LeaderElectionResult]

#: The built-in protocols whose bare-name task keys predate protocol specs
#: and so carry no protocol segment (see :meth:`ExperimentSpec.protocol_token`).
_UNSTAMPED_PROTOCOLS = frozenset(
    {"flooding", "gilbert", "irrevocable", "revocable", "uniform"}
)


@dataclass(frozen=True)
class ExperimentSpec:
    """A named sweep of one protocol over topologies and seeds.

    ``protocol`` is a :class:`~repro.protocols.spec.ProtocolSpec`, or its
    string spelling ``"name:k=v,..."``, which is parsed and validated
    here.  :meth:`protocol_token` decides what the configuration adds to
    checkpoint task keys, so parameter sweeps resume/shard/merge without
    ever mixing runs measured under different constants.

    ``adversary`` adds the execution-model grid axis: when set (an
    :class:`~repro.dynamics.spec.AdversarySpec`), every run executes under
    that fault model — deterministically per run seed — and the adversary's
    identity becomes part of the checkpoint task keys.

    ``name`` and the topology names become ``|``-separated task-key
    segments, so neither may contain ``|``.
    """

    name: str
    protocol: "ProtocolSpec"
    topologies: Sequence[Topology] = ()
    seeds: Sequence[int] = (0, 1, 2)
    collect_profile: bool = True
    adversary: Optional["AdversarySpec"] = None

    def __post_init__(self) -> None:
        if isinstance(self.protocol, str):
            from ..protocols.spec import ProtocolSpec

            object.__setattr__(self, "protocol", ProtocolSpec.parse(self.protocol))
        if not self.topologies:
            raise ConfigurationError("an experiment needs at least one topology")
        if not self.seeds:
            raise ConfigurationError("an experiment needs at least one seed")
        for name in [self.name, *(topology.name for topology in self.topologies)]:
            if "|" in name:
                raise ConfigurationError(
                    f"spec and topology names may not contain '|' (it "
                    f"separates checkpoint task-key segments): {name!r}"
                )

    def protocol_token(self) -> str:
        """The protocol segment of this spec's task keys.

        ``""`` exactly when a built-in protocol of :data:`_UNSTAMPED_PROTOCOLS` runs at
        its default configuration under its own name (optionally followed
        by ``@<adversary token>``), as bare-name sweep specs of the
        built-in protocols do; otherwise the protocol's
        :meth:`~repro.protocols.spec.ProtocolSpec.token`.  The same value
        fills the cell's ``protocol`` column and the runs'
        ``parameters["protocol"]`` stamp (no stamp when empty), so
        checkpoints and archives written before protocol specs existed
        keep their task keys, while two protocols under one spec name
        never share them and a registered protocol always names itself.
        """
        protocol = self.protocol
        bare_names = {protocol.name}
        if self.adversary is not None:
            bare_names.add(f"{protocol.name}@{self.adversary.token()}")
        if (
            protocol.name in _UNSTAMPED_PROTOCOLS
            and not protocol.params
            and self.name in bare_names
        ):
            return ""
        return protocol.token()


def effective_runner(spec: ExperimentSpec) -> ElectionRunner:
    """The runner actually executed for ``spec``'s runs.

    Resolves the spec's protocol to its
    :class:`~repro.protocols.runners.ProtocolRunner`, then wraps it in an
    adversarial fault scope when the spec carries an adversary; both the
    serial driver and the parallel engine's task expansion funnel through
    here, so the two backends run cells identically.
    """
    from ..protocols.runners import ProtocolRunner

    base = ProtocolRunner(spec.protocol, stamp=spec.protocol_token())
    if spec.adversary is None:
        return base
    from ..dynamics.runners import AdversarialRunner

    return AdversarialRunner(base, spec.adversary)


@dataclass
class ExperimentCell:
    """Aggregated measurements of one (algorithm, topology) cell."""

    algorithm: str
    topology_name: str
    num_nodes: int
    num_edges: int
    runs: int
    successes: int
    mean_messages: float
    mean_bits: float
    mean_rounds: float
    stdev_messages: float
    mean_wall_clock_seconds: float
    #: Fault-injection cost (zero under the reliable execution model).
    mean_dropped_messages: float = 0.0
    mean_delayed_messages: float = 0.0
    #: Per-cell extremes (tail behaviour is what the paper's high-probability
    #: bounds are about; the mean alone hides it).
    min_messages: int = 0
    max_messages: int = 0
    min_rounds: int = 0
    max_rounds: int = 0
    #: The spec's :meth:`ExperimentSpec.protocol_token` ("" for bare-name
    #: specs at default configuration), so parameter-sweep cells stay
    #: tellable apart in reports and exports.
    protocol: str = ""
    #: Streaming safety verdicts of the cell's runs (never ``None`` for
    #: cells built by the drivers; kept optional for hand-built cells).
    safety: Optional[SafetyTally] = None
    profile: Optional[ExpansionProfile] = None
    #: The exact accumulators the cell was assembled from, so folds over
    #: cells (robustness curves) merge sums instead of rounded means.
    #: Not a reported column: kept out of ``as_dict``, ``==`` and ``repr``.
    aggregate: Optional[CellAggregate] = field(
        default=None, compare=False, repr=False
    )

    @property
    def success_rate(self) -> float:
        return self.successes / self.runs if self.runs else 0.0

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "algorithm": self.algorithm,
            "protocol": self.protocol,
            "topology": self.topology_name,
            "n": self.num_nodes,
            "m": self.num_edges,
            "runs": self.runs,
            "success_rate": self.success_rate,
            "mean_messages": self.mean_messages,
            "mean_bits": self.mean_bits,
            "mean_rounds": self.mean_rounds,
            "stdev_messages": self.stdev_messages,
            "min_messages": self.min_messages,
            "max_messages": self.max_messages,
            "min_rounds": self.min_rounds,
            "max_rounds": self.max_rounds,
            "mean_dropped_messages": self.mean_dropped_messages,
            "mean_delayed_messages": self.mean_delayed_messages,
            # Last on purpose: the one legitimately nondeterministic column,
            # which equivalence checks strip positionally.
            "mean_wall_clock_seconds": self.mean_wall_clock_seconds,
        }
        if self.profile is not None:
            row.update(
                {
                    "diameter": self.profile.diameter,
                    "conductance": self.profile.conductance,
                    "isoperimetric_number": self.profile.isoperimetric_number,
                    "mixing_time": self.profile.mixing_time,
                }
            )
        return row


@dataclass
class ExperimentResult:
    """All cells of one experiment."""

    name: str
    cells: List[ExperimentCell] = field(default_factory=list)

    def cell_for(self, topology_name: str) -> ExperimentCell:
        for cell in self.cells:
            if cell.topology_name == topology_name:
                return cell
        raise KeyError(topology_name)

    def series(self, x_field: str = "n", y_field: str = "mean_messages") -> List[tuple]:
        """A (x, y) series over the cells, sorted by x (for scaling plots)."""
        points = [
            (cell.as_dict()[x_field], cell.as_dict()[y_field]) for cell in self.cells
        ]
        return sorted(points)

    def overall_success_rate(self) -> float:
        runs = sum(cell.runs for cell in self.cells)
        if runs == 0:
            return 0.0
        return sum(cell.successes for cell in self.cells) / runs

    def as_rows(self) -> List[Dict[str, object]]:
        # The experiment name leads each row: in robustness sweeps several
        # specs share one algorithm (e.g. "flooding" vs
        # "flooding@loss(p=0.05)") and the rows must stay tellable apart.
        return [{"experiment": self.name, **cell.as_dict()} for cell in self.cells]


def execute_run(
    runner: ElectionRunner, topology: Topology, seed: int
) -> Tuple[LeaderElectionResult, float]:
    """Execute one (topology, seed) run and measure its wall-clock time.

    This is the single unit of work shared by the serial driver below and
    the worker processes of :mod:`repro.parallel`; keeping it in one place
    guarantees both backends run cells identically.  The ``"simulate"``
    span covers the protocol execution itself wherever a run happens —
    with telemetry off it degrades to a shared no-op (see
    :func:`repro.obs.span`), and the wall-clock reading goes through the
    injectable-clock layer (:class:`repro.obs.Stopwatch`) like every
    other timing in the repo.
    """
    stopwatch = Stopwatch()
    with span("simulate"):
        result = runner(topology, seed)
    return result, stopwatch.elapsed()


def cell_from_aggregate(
    topology: Topology,
    aggregate: CellAggregate,
    *,
    profile: Optional[ExpansionProfile] = None,
    protocol: str = "",
) -> ExperimentCell:
    """Assemble an :class:`ExperimentCell` from a streamed cell aggregate.

    Every backend — serial, parallel, sharded — funnels through this
    function, and :class:`~repro.analysis.streaming.CellAggregate` keeps
    exact accumulators, so cell statistics are bit-identical regardless
    of how (or in what order) the runs were scheduled.
    """
    if aggregate.count == 0:
        raise ConfigurationError(
            f"cannot assemble a cell for {topology.name!r} from zero runs"
        )
    return ExperimentCell(
        algorithm=aggregate.algorithm,
        topology_name=topology.name,
        num_nodes=topology.num_nodes,
        num_edges=topology.num_edges,
        runs=aggregate.count,
        successes=aggregate.successes,
        mean_messages=aggregate.mean_messages,
        mean_bits=aggregate.mean_bits,
        mean_rounds=aggregate.mean_rounds,
        stdev_messages=aggregate.stdev_messages,
        mean_wall_clock_seconds=aggregate.mean_wall_clock_seconds,
        mean_dropped_messages=aggregate.mean_dropped_messages,
        mean_delayed_messages=aggregate.mean_delayed_messages,
        min_messages=aggregate.min_messages,
        max_messages=aggregate.max_messages,
        min_rounds=aggregate.min_rounds,
        max_rounds=aggregate.max_rounds,
        protocol=protocol,
        safety=aggregate.safety,
        profile=profile,
        aggregate=aggregate,
    )


def run_experiment(
    spec: ExperimentSpec,
    *,
    sinks: Sequence[ResultSink] = (),
    backend: str = "auto",
) -> ExperimentResult:
    """Run every (topology, seed) pair of the spec and aggregate per topology.

    The serial reference loop: every run executes in this process, in
    grid order.  The parallel engine
    (:func:`repro.parallel.runner.run_experiments`, configured by a
    :class:`~repro.parallel.runner.SweepConfig`) produces the same cells
    for any worker count, checkpoint or shard layout — only wall-clock
    readings differ — and the equivalence tests compare it against this
    loop.

    With ``spec.collect_profile`` set, each cell carries the
    :func:`~repro.graphs.properties.expansion_profile` of its topology,
    measured once per topology instance and shared with the runs.

    Runs are streamed: each result is folded into its cell's aggregate
    (and forwarded to any caller-supplied ``sinks``) as it completes, then
    released.  To keep the per-run results, pass a
    :class:`~repro.analysis.streaming.CollectingSink` in ``sinks`` and
    read its ``results_for(spec.name, topology_index)`` — opt-in, since
    that is the one path whose memory grows with ``runs × nodes``.

    ``backend`` selects the simulator core for every run of the sweep
    (``"auto"``, ``"round"`` or ``"event"`` — see
    :class:`repro.core.simulator.SynchronousSimulator`); both cores
    produce bit-identical results, so this is a pure performance knob.
    """
    aggregates = CellAggregatingSink()
    all_sinks: List[ResultSink] = [aggregates, *sinks]

    result = ExperimentResult(name=spec.name)
    runner = effective_runner(spec)
    try:
        with backend_scope(backend):
            for topology_index, topology in enumerate(spec.topologies):
                for seed_index, seed in enumerate(spec.seeds):
                    run, elapsed = execute_run(runner, topology, seed)
                    for sink in all_sinks:
                        sink.emit(
                            spec.name, topology_index, seed_index, run, elapsed
                        )
                    del run  # nothing below retains it: the sinks are the pipeline
                aggregate = aggregates.aggregate_for(spec.name, topology_index)
                result.cells.append(
                    cell_from_aggregate(
                        topology,
                        aggregate,
                        profile=(
                            expansion_profile(topology)
                            if spec.collect_profile
                            else None
                        ),
                        protocol=spec.protocol_token(),
                    )
                )
    except BaseException:
        # A run raised: abort the sinks — an export sink (JsonlSink)
        # flushes the records of the runs that did complete without
        # publishing an incomplete sweep.
        abort_sinks(all_sinks)
        raise
    for sink in all_sinks:
        sink.close()
    return result


def summarize_results(results: Iterable[ExperimentResult]) -> List[Dict[str, object]]:
    """Flatten several experiments into one list of report rows."""
    rows: List[Dict[str, object]] = []
    for result in results:
        rows.extend(result.as_rows())
    return rows
