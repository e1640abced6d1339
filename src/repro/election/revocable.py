"""Blind Leader Election with Certificates via Diffusion with Thresholds.

The revocable election of Section 5.2 (Algorithms 6–7, Theorem 3,
Corollary 1).  Nodes iterate over doubling network-size estimates
``k = 2, 4, 8, ...``; for each estimate they repeat a *certification*
phase ``f(k)`` times:

1. every node colours itself white with probability ``p(k)``;
2. a potential-diffusion phase of ``r(k)`` rounds averages potentials
   (black = 1, white = 0) and applies the low-``k`` detectors: too many
   neighbours, a neighbour already flagged low, or a final potential above
   ``τ(k)``;
3. a dissemination phase of ``k^{1+ε}`` rounds floods the colour/detector
   status and the strongest leadership certificate seen so far.

After the ``f(k)`` repetitions a node that has not yet chosen an ID, saw no
white node in more than half of the repetitions, and had at least one
repetition end in the *probing* state, draws an ID uniformly from
``{1..k^{4(1+ε)}·log⁴(4k)}`` and stamps it with the certificate ``K = k``.
The node with the strongest certificate (largest ``K``, then smallest ID)
is the leader; flags are revocable — a node lowers its flag whenever it
learns of a stronger certificate — which is exactly what Definition 2
permits and what Theorem 2 shows is unavoidable without knowing ``n``.

The protocol itself never terminates (nodes cannot know the election is
final); the driver :func:`run_revocable_election` — which, unlike the
nodes, knows ``n`` — simulates until the schedule's final estimate has been
processed and then reads off the outcome.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..core.errors import ConfigurationError
from ..core.generator_node import GeneratorNode
from ..core.metrics import MetricsCollector
from ..core.node import Inbox, Outbox, ProtocolNode
from ..core.simulator import SynchronousSimulator, build_nodes
from ..graphs.spectral import algebraic_connectivity
from ..graphs.topology import Topology
from .base import LeaderElectionResult, election_result_from_simulation
from .certificates import Certificate
from .diffusion import DiffusionMessage, DisseminationMessage, diffusion_share
from .schedules import ParameterSchedule, PaperSchedule, ScaledSchedule

__all__ = [
    "RevocableLeaderElectionNode",
    "run_revocable_election",
    "default_scaled_schedule",
    "ALGORITHM_NAME",
]

ALGORITHM_NAME = "kowalski-mosteiro-revocable"

PROBING = "probing"
LOW = "low"


class RevocableLeaderElectionNode(GeneratorNode):
    """One anonymous node running Algorithms 6–7.

    The node uses *no* information about the network: only its port count
    and its private randomness.  The parameter schedule is part of the
    algorithm (it is the same at every node), not knowledge about the
    graph — except for the optional isoperimetric number of Theorem 3,
    which callers opt into explicitly.
    """

    def __init__(
        self,
        num_ports: int,
        rng: random.Random,
        *,
        schedule: ParameterSchedule,
    ) -> None:
        super().__init__(num_ports, rng)
        self.schedule = schedule
        self.estimate = 1
        self.own_id: Optional[int] = None
        self.own_estimate: Optional[int] = None
        self.leader_certificate: Optional[Certificate] = None
        self.leader = False
        self.iterations_completed = 0
        self.decision_estimate: Optional[int] = None

    # ------------------------------------------------------------------ #
    # protocol body
    # ------------------------------------------------------------------ #
    def run(self):
        while True:
            self.estimate *= 2
            k = self.estimate
            repeats = self.schedule.certification_repeats(k)
            status: List[str] = []
            empty: List[bool] = []
            for _ in range(repeats):
                q, white_seen = yield from self._avg(k)
                status.append(q)
                empty.append(not white_seen)
            self._decision_phase(k, status, empty)
            self.iterations_completed += 1

    def _decision_phase(self, k: int, status: List[str], empty: List[bool]) -> None:
        """Algorithm 6, lines 14–17 (purely local, consumes no rounds)."""
        repeats = len(status)
        if (
            self.own_id is None
            and sum(empty) > repeats / 2.0
            and status.count(PROBING) > 0
        ):
            self.own_id = self.rng.randint(1, self.schedule.id_range(k))
            self.own_estimate = k
            self.decision_estimate = k
            own = Certificate(estimate=k, node_id=self.own_id)
            if own.beats(self.leader_certificate):
                self.leader_certificate = own
        self._refresh_leader_flag()

    def _refresh_leader_flag(self) -> None:
        self.leader = (
            self.own_id is not None
            and self.leader_certificate is not None
            and self.leader_certificate.estimate == self.own_estimate
            and self.leader_certificate.node_id == self.own_id
        )

    # ------------------------------------------------------------------ #
    # the Avg subroutine (Algorithm 7)
    # ------------------------------------------------------------------ #
    def _avg(self, k: int):
        """One certification repetition; returns ``(status, white_seen)``."""
        epsilon = self.schedule.epsilon
        share = diffusion_share(k, epsilon)
        degree_cap = float(k) ** (1.0 + epsilon)
        threshold = self.schedule.potential_threshold(k)

        white = self.rng.random() < self.schedule.white_probability(k)
        white_seen = white
        status = PROBING
        potential = 0.0 if white else 1.0

        # --- diffusion phase -------------------------------------------- #
        for _ in range(self.schedule.diffusion_rounds(k)):
            outbox: Outbox = dict.fromkeys(
                self.ports(),
                DiffusionMessage(
                    potential=potential,
                    status_low=(status == LOW),
                    white_seen=white_seen,
                    leader_id=(
                        self.leader_certificate.node_id
                        if self.leader_certificate
                        else None
                    ),
                    leader_estimate=(
                        self.leader_certificate.estimate
                        if self.leader_certificate
                        else None
                    ),
                ),
            )
            sent_potential = potential
            inbox = yield outbox

            neighbor_low = False
            incoming = 0.0
            for message in inbox.values():
                if isinstance(message, (DiffusionMessage, DisseminationMessage)):
                    if message.status_low:
                        neighbor_low = True
                    if message.white_seen:
                        white_seen = True
                    self._absorb_leader_info(message)
                if isinstance(message, DiffusionMessage):
                    incoming += message.potential

            if (
                status == PROBING
                and self.num_ports <= degree_cap
                and not neighbor_low
            ):
                potential = (
                    sent_potential
                    + share * incoming
                    - share * self.num_ports * sent_potential
                )
            else:
                status = LOW
                potential = 1.0

        if potential > threshold:
            status = LOW
            potential = 1.0

        # --- dissemination phase ---------------------------------------- #
        for _ in range(self.schedule.dissemination_rounds(k)):
            outbox = dict.fromkeys(
                self.ports(),
                DisseminationMessage(
                    status_low=(status == LOW),
                    white_seen=white_seen,
                    leader_id=(
                        self.leader_certificate.node_id
                        if self.leader_certificate
                        else None
                    ),
                    leader_estimate=(
                        self.leader_certificate.estimate
                        if self.leader_certificate
                        else None
                    ),
                ),
            )
            inbox = yield outbox
            for message in inbox.values():
                if isinstance(message, (DiffusionMessage, DisseminationMessage)):
                    if message.status_low:
                        status = LOW
                    if message.white_seen:
                        white_seen = True
                    self._absorb_leader_info(message)

        self._refresh_leader_flag()
        return status, white_seen

    def _absorb_leader_info(self, message) -> None:
        estimate, leader_id = message.leader_estimate, message.leader_id
        if leader_id is None or estimate is None:
            return
        # Compare keys before building a Certificate: a message that cannot
        # beat the current certificate is dropped unvalidated.  Honest nodes
        # only send certificates that passed Certificate.__post_init__, so
        # skipping that check on a losing message changes no reachable
        # outcome.
        current = self.leader_certificate
        if current is not None and (estimate, -leader_id) <= current.sort_key():
            return
        self.leader_certificate = Certificate(estimate=estimate, node_id=leader_id)
        # Revocation happens the moment a stronger certificate is heard.
        self._refresh_leader_flag()

    # ------------------------------------------------------------------ #
    def result(self) -> Dict[str, object]:
        return {
            "leader": self.leader,
            "candidate": self.own_id is not None,
            "node_id": self.own_id,
            "own_estimate": self.own_estimate,
            "decision_estimate": self.decision_estimate,
            "leader_certificate": (
                self.leader_certificate.as_tuple() if self.leader_certificate else None
            ),
            "estimate": self.estimate,
            "iterations_completed": self.iterations_completed,
        }


def default_scaled_schedule(
    topology: Topology,
    *,
    epsilon: float = 0.5,
    xi: float = 0.1,
    diffusion_scale: float = 2.0,
    certification_scale: float = 0.1,
    certification_min: int = 5,
) -> ScaledSchedule:
    """A :class:`ScaledSchedule` tuned to the topology's algebraic connectivity.

    Supplying a single expansion scalar plays the same role as supplying
    ``i(G)`` in Theorem 3 (the paper's own tighter variant); the blind
    Corollary 1 schedule is available through
    :class:`~repro.election.schedules.PaperSchedule`.
    """
    rate = algebraic_connectivity(topology)
    return ScaledSchedule(
        epsilon=epsilon,
        xi=xi,
        convergence_rate=max(rate, 1e-9),
        diffusion_scale=diffusion_scale,
        certification_scale=certification_scale,
        certification_min=certification_min,
    )


def run_revocable_election(
    topology: Topology,
    *,
    seed: Optional[int] = None,
    schedule: Optional[ParameterSchedule] = None,
    extra_estimates: int = 0,
    settle_rounds: Optional[int] = None,
    metrics: Optional[MetricsCollector] = None,
    max_rounds: Optional[int] = None,
) -> LeaderElectionResult:
    """Run the blind election until the schedule's final estimate completes.

    ``extra_estimates`` simulates additional full doublings beyond the
    point at which Theorem 3 guarantees every node has decided.
    ``settle_rounds`` (default ``2n + 2``) simulates a slice of the next
    estimate so the strongest certificate — chosen in the final decision
    phase — can flood the network and pretenders lower their flags; this
    is exactly the revocation behaviour Definition 2 allows.

    Registered in the protocol registry as ``revocable`` with
    ``epsilon``/``xi``/``extra_estimates`` as its schema (see
    :mod:`repro.protocols`): a spec like ``revocable:epsilon=0.25`` builds
    the :func:`default_scaled_schedule` with those constants and runs this
    entry point.
    """
    if schedule is None:
        schedule = default_scaled_schedule(topology)
    final_estimate = schedule.final_estimate(topology.num_nodes)
    for _ in range(extra_estimates):
        final_estimate *= 2
    if settle_rounds is None:
        settle_rounds = 2 * topology.num_nodes + 2
    total_rounds = schedule.total_rounds_through(final_estimate) + settle_rounds
    if max_rounds is not None:
        total_rounds = min(total_rounds, max_rounds)

    collector = metrics if metrics is not None else MetricsCollector()

    def factory(index: int, num_ports: int, rng: random.Random) -> ProtocolNode:
        return RevocableLeaderElectionNode(num_ports, rng, schedule=schedule)

    nodes = build_nodes(topology, factory, seed=seed)
    simulator = SynchronousSimulator(topology, nodes, metrics=collector)
    with collector.phase("certification"):
        simulation = simulator.run(total_rounds)

    parameters: Dict[str, object] = {
        "schedule": type(schedule).__name__,
        "epsilon": schedule.epsilon,
        "xi": schedule.xi,
        "final_estimate": final_estimate,
        "simulated_rounds": total_rounds,
        "paper_bit_rounds": sum(
            schedule.paper_bit_rounds_for_estimate(k)
            for k in schedule.estimates(final_estimate)
        ),
    }
    return election_result_from_simulation(
        ALGORITHM_NAME,
        simulation,
        seed=seed,
        parameters=parameters,
        agreement_key="leader_certificate",
    )
