"""Flooding max-ID election (the Kutten et al. [16] style baseline).

The classic ``O(m)``-messages / ``O(D)``-time randomized election for known
``n`` and ``D``: a few candidates (sampled with probability ``c·log n / n``)
draw random IDs and flood them; every node forwards the largest ID it has
seen, but only when that value changes, so each link carries ``O(log n)``
announcements overall.  After ``D + O(1)`` rounds the candidate holding the
globally largest ID is the unique node that never heard a larger one.

This is the "known ``n, D``" row of Table 1 that the paper's Theorem 1
undercuts on message complexity for well-connected graphs (where
``√(n·t_mix)/Φ ≪ m``) while losing on time for small-diameter graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from ..core.errors import ConfigurationError
from ..core.messages import Message
from ..core.metrics import MetricsCollector
from ..core.node import Inbox, Outbox, ProtocolNode
from ..core.simulator import SynchronousSimulator, build_nodes
from ..graphs.topology import Topology
from ..election.base import LeaderElectionResult, election_result_from_simulation
from ..election.ids import draw_identity

__all__ = [
    "FloodAnnouncement",
    "FloodingConfig",
    "FloodingMaxIdNode",
    "run_flooding_election",
    "ALGORITHM_NAME",
]

ALGORITHM_NAME = "flooding-max-id"


@dataclass(frozen=True)
class FloodAnnouncement(Message):
    """The largest candidate ID known to the sender."""

    candidate_id: int


@dataclass(frozen=True)
class FloodingConfig:
    """Parameters of the flooding election."""

    n: int
    diameter: int
    c: float = 2.0
    #: every node (not only sampled candidates) competes when True — used by
    #: the ``uniform-id`` baseline variant.
    all_nodes_compete: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"n must be positive, got {self.n}")
        if self.diameter < 0:
            raise ConfigurationError(
                f"diameter must be non-negative, got {self.diameter}"
            )
        if self.c <= 0:
            raise ConfigurationError(f"c must be positive, got {self.c}")

    def total_rounds(self) -> int:
        """Flood for ``D + 1`` rounds, plus one round to settle the flags."""
        return self.diameter + 2

    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        *,
        c: float = 2.0,
        all_nodes_compete: bool = False,
    ) -> "FloodingConfig":
        return cls(
            n=topology.num_nodes,
            diameter=topology.diameter(),
            c=c,
            all_nodes_compete=all_nodes_compete,
        )


class FloodingMaxIdNode(ProtocolNode):
    """One node of the flooding max-ID election."""

    #: set once, by the final round's step
    halted = False

    def __init__(
        self,
        num_ports: int,
        rng: random.Random,
        *,
        config: FloodingConfig,
    ) -> None:
        super().__init__(num_ports, rng)
        self.config = config
        identity = draw_identity(rng, config.n, config.c)
        self.node_id = identity.node_id
        self.candidate = True if config.all_nodes_compete else identity.candidate
        self.max_seen = self.node_id if self.candidate else 0
        self.leader = False
        self._announced: Optional[int] = None
        self._final_round = config.total_rounds() - 1

    def step(self, round_index: int, inbox: Inbox) -> Outbox:
        for message in inbox.values():
            if isinstance(message, FloodAnnouncement):
                if message.candidate_id > self.max_seen:
                    self.max_seen = message.candidate_id

        if round_index >= self._final_round:
            self.leader = self.candidate and self.max_seen == self.node_id
            self.halted = True
            return {}

        if self.max_seen > 0 and self._announced != self.max_seen:
            # Forward the new maximum exactly once per improvement.
            self._announced = self.max_seen
            return dict.fromkeys(
                self.ports(), FloodAnnouncement(candidate_id=self.max_seen)
            )
        return {}

    def result(self) -> Dict[str, object]:
        return {
            "leader": self.leader,
            "candidate": self.candidate,
            "node_id": self.node_id,
            "max_seen": self.max_seen,
            "halted": self.halted,
        }


def run_flooding_election(
    topology: Topology,
    *,
    seed: Optional[int] = None,
    config: Optional[FloodingConfig] = None,
    c: float = 2.0,
    all_nodes_compete: bool = False,
    metrics: Optional[MetricsCollector] = None,
) -> LeaderElectionResult:
    """Run the flooding baseline once and return outcome + cost.

    Registered in the protocol registry as ``flooding`` with
    ``c``/``all_nodes_compete`` as its schema (see :mod:`repro.protocols`).
    """
    if config is None:
        config = FloodingConfig.from_topology(
            topology, c=c, all_nodes_compete=all_nodes_compete
        )
    collector = metrics if metrics is not None else MetricsCollector()

    def factory(index: int, num_ports: int, rng: random.Random) -> ProtocolNode:
        return FloodingMaxIdNode(num_ports, rng, config=config)

    nodes = build_nodes(topology, factory, seed=seed)
    simulator = SynchronousSimulator(topology, nodes, metrics=collector)
    with collector.phase("flooding"):
        simulation = simulator.run(config.total_rounds())
    algorithm = "uniform-id-flooding" if config.all_nodes_compete else ALGORITHM_NAME
    return election_result_from_simulation(
        algorithm,
        simulation,
        seed=seed,
        parameters={
            "n": config.n,
            "diameter": config.diameter,
            "c": config.c,
            "all_nodes_compete": config.all_nodes_compete,
            "total_rounds": config.total_rounds(),
        },
    )
