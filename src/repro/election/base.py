"""Shared result types and verification helpers for election protocols.

Every election protocol in the library (the paper's two protocols and the
baselines) produces, per node, a result mapping that contains at least a
``"leader"`` boolean flag — the flag variable of Definitions 1 and 2.  The
helpers here turn the per-node results of a simulation into an
:class:`ElectionOutcome` and verify the correctness conditions:

* *uniqueness*: exactly one node raised its flag;
* *agreement* (explicit elections only): every node knows the elected
  leader's identifier/certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..core.metrics import Metrics
from ..core.simulator import SimulationResult

__all__ = [
    "ElectionOutcome",
    "LeaderElectionResult",
    "SafetyTally",
    "outcome_from_results",
    "election_result_from_simulation",
    "safety_violations",
    "summarize_safety",
]


@dataclass(frozen=True)
class ElectionOutcome:
    """What the election produced, extracted from per-node results."""

    num_leaders: int
    leader_indices: List[int]
    candidate_indices: List[int]
    unique_leader: bool
    #: For explicit elections: True when every node reports the same leader
    #: identifier; ``None`` for implicit elections that do not disseminate it.
    agreement: Optional[bool] = None

    @property
    def elected(self) -> bool:
        """True when exactly one leader was elected."""
        return self.unique_leader

    @property
    def safe(self) -> bool:
        """Safety half of Definitions 1 and 2: *never more than one* leader.

        Under fault injection (:mod:`repro.dynamics`) liveness may be lost
        — the election can fail to elect anybody — but an algorithm whose
        runs stay ``safe`` never splits the network between two leaders.
        """
        return self.num_leaders <= 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "num_leaders": self.num_leaders,
            "leader_indices": list(self.leader_indices),
            "candidate_indices": list(self.candidate_indices),
            "unique_leader": self.unique_leader,
            "agreement": self.agreement,
        }


@dataclass
class LeaderElectionResult:
    """Outcome + cost of one protocol execution on one topology."""

    algorithm: str
    topology_name: str
    num_nodes: int
    num_edges: int
    outcome: ElectionOutcome
    metrics: Metrics
    rounds_executed: int
    seed: Optional[int] = None
    parameters: Dict[str, object] = field(default_factory=dict)
    node_results: List[Dict[str, object]] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.outcome.unique_leader

    @property
    def messages(self) -> int:
        return self.metrics.messages

    @property
    def bits(self) -> int:
        return self.metrics.bits

    def as_dict(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "topology": self.topology_name,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "success": self.success,
            "rounds": self.rounds_executed,
            "messages": self.messages,
            "bits": self.bits,
            "seed": self.seed,
            "outcome": self.outcome.as_dict(),
            "parameters": dict(self.parameters),
        }


def outcome_from_results(
    node_results: Sequence[Dict[str, object]],
    *,
    agreement_key: Optional[str] = None,
) -> ElectionOutcome:
    """Derive an :class:`ElectionOutcome` from per-node result mappings.

    ``agreement_key`` names the per-node field holding the node's view of
    the elected leader (e.g. ``"leader_certificate"``); when given, the
    outcome reports whether all nodes agree on a non-``None`` value.
    """
    leaders = [
        index for index, result in enumerate(node_results) if result.get("leader")
    ]
    candidates = [
        index for index, result in enumerate(node_results) if result.get("candidate")
    ]
    agreement: Optional[bool] = None
    if agreement_key is not None:
        views = [result.get(agreement_key) for result in node_results]
        agreement = len(views) > 0 and views[0] is not None and all(
            view == views[0] for view in views
        )
    return ElectionOutcome(
        num_leaders=len(leaders),
        leader_indices=leaders,
        candidate_indices=candidates,
        unique_leader=len(leaders) == 1,
        agreement=agreement,
    )


def safety_violations(
    results: Iterable[LeaderElectionResult],
) -> List[LeaderElectionResult]:
    """The runs that violated safety (more than one leader raised its flag).

    The robustness sweeps use this as their headline verdict: dialling a
    fault model up typically costs liveness (success rate drops) long
    before it costs safety, and a non-empty return value pinpoints the
    exact (topology, seed, adversary) runs where an algorithm split the
    network.
    """
    return [result for result in results if not result.outcome.safe]


@dataclass
class SafetyTally:
    """Incremental safety/liveness bookkeeping over a stream of runs.

    The experiment pipeline folds every completed run into per-cell
    tallies instead of retaining the run list (see
    :mod:`repro.analysis.streaming`), so safety verdicts over arbitrarily
    large sweeps cost O(violations) memory, not O(runs).  Tallies merge
    associatively — fold order (serial, pool completion order, shard
    merge) never changes the summary.
    """

    runs: int = 0
    safe_runs: int = 0
    elected_runs: int = 0
    violations: List[Dict[str, object]] = field(default_factory=list)

    def add(self, result: LeaderElectionResult) -> None:
        """Fold one run into the tally."""
        outcome = result.outcome
        self.tally(
            result.algorithm,
            result.topology_name,
            result.seed,
            outcome.num_leaders,
            outcome.unique_leader,
            result.parameters.get("adversary"),
        )

    def tally(
        self,
        algorithm: str,
        topology_name: str,
        seed: Optional[int],
        num_leaders: int,
        unique_leader: bool,
        adversary: Optional[object],
    ) -> None:
        """Fold one run, given as the fields the tally reads.

        A run is safe when at most one leader raised its flag
        (:attr:`ElectionOutcome.safe`); a violation records ``adversary``,
        the run's ``parameters["adversary"]`` (``None`` without one).
        """
        self.runs += 1
        if num_leaders <= 1:
            self.safe_runs += 1
        else:
            self.violations.append(
                {
                    "algorithm": algorithm,
                    "topology": topology_name,
                    "seed": seed,
                    "num_leaders": num_leaders,
                    "adversary": adversary,
                }
            )
        if unique_leader:
            self.elected_runs += 1

    def merge(self, other: "SafetyTally") -> None:
        """Fold another tally (e.g. another cell's or shard's) into this one."""
        self.runs += other.runs
        self.safe_runs += other.safe_runs
        self.elected_runs += other.elected_runs
        self.violations.extend(other.violations)

    def summary(self) -> Dict[str, object]:
        """The aggregate verdict dict (the shape ``summarize_safety`` returns).

        Violations are sorted by (algorithm, topology, seed) so the
        summary is deterministic regardless of the order runs completed
        in — a parallel pool feeds the tally in scheduling order.
        """
        return {
            "runs": self.runs,
            "safe_runs": self.safe_runs,
            "elected_runs": self.elected_runs,
            "safety_rate": 1.0 if not self.runs else self.safe_runs / self.runs,
            "success_rate": 0.0 if not self.runs else self.elected_runs / self.runs,
            "violations": sorted(
                self.violations,
                key=lambda v: (
                    str(v["algorithm"]),
                    str(v["topology"]),
                    str(v["seed"]),
                    str(v["num_leaders"]),
                ),
            ),
        }


def summarize_safety(
    results: Sequence[LeaderElectionResult],
) -> Dict[str, object]:
    """Aggregate safety/liveness verdicts over a batch of runs."""
    tally = SafetyTally()
    for result in results:
        tally.add(result)
    return tally.summary()


def election_result_from_simulation(
    algorithm: str,
    simulation: SimulationResult,
    *,
    seed: Optional[int] = None,
    parameters: Optional[Dict[str, object]] = None,
    agreement_key: Optional[str] = None,
) -> LeaderElectionResult:
    """Package a finished simulation as a :class:`LeaderElectionResult`."""
    node_results = simulation.results()
    outcome = outcome_from_results(node_results, agreement_key=agreement_key)
    return LeaderElectionResult(
        algorithm=algorithm,
        topology_name=simulation.topology.name,
        num_nodes=simulation.topology.num_nodes,
        num_edges=simulation.topology.num_edges,
        outcome=outcome,
        metrics=simulation.metrics,
        rounds_executed=simulation.total_rounds,
        seed=seed,
        parameters=dict(parameters or {}),
        node_results=list(node_results),
    )
