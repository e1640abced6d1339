"""Irrevocable Leader Election for known network size (Section 4, Theorem 1).

The composite protocol of Algorithm 1:

1. every node draws a random ID from ``{1..n^4}`` and becomes a candidate
   with probability ``c·log n / n``;
2. candidates grow bounded territories with *cautious broadcast*
   (Algorithms 2–4), multiplexed over super-rounds so that a node serves at
   most one broadcast per round;
3. candidates issue ``x`` lazy random walks carrying their IDs
   (Algorithm 5); every node remembers the largest walk ID seen;
4. the maxima are convergecast up every broadcast tree; the candidate that
   never hears an ID larger than its own raises its flag.

The protocol needs (linear upper bounds on) ``n``, the mixing time
``t_mix`` and the conductance ``Φ``; :class:`IrrevocableConfig` either
takes them explicitly or measures them from the topology
(:meth:`IrrevocableConfig.from_topology`), mirroring how the paper assumes
they are known.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.errors import ConfigurationError
from ..core.metrics import MetricsCollector
from ..core.node import Inbox, Outbox, ProtocolNode
from ..core.simulator import SynchronousSimulator, build_nodes
from ..graphs.properties import conductance as measure_conductance
from ..graphs.spectral import mixing_time as measure_mixing_time
from ..graphs.topology import Topology
from .base import LeaderElectionResult, election_result_from_simulation
from .cautious_broadcast import CautiousBroadcastConfig, CautiousBroadcastManager
from .convergecast import ConvergecastConfig, ConvergecastState
from .ids import candidate_count_upper_bound, draw_identity
from .random_walk_probe import RandomWalkProbeConfig, RandomWalkProbeState

__all__ = [
    "IrrevocableConfig",
    "IrrevocableLeaderElectionNode",
    "run_irrevocable_election",
    "ALGORITHM_NAME",
]

ALGORITHM_NAME = "kowalski-mosteiro-irrevocable"


@dataclass(frozen=True)
class IrrevocableConfig:
    """All parameters of the known-``n`` election.

    ``x`` (the number of walks per candidate) defaults to the paper's
    choice ``Θ̃(sqrt(n·log n / (Φ·t_mix)))`` scaled by ``x_multiplier``,
    which controls how much slack the high-probability arguments get in a
    finite simulation.
    """

    n: int
    t_mix: int
    conductance: float
    c: float = 2.0
    x_multiplier: float = 2.0
    x: Optional[int] = None
    super_round_slots: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"n must be positive, got {self.n}")
        if self.t_mix < 1:
            raise ConfigurationError(f"t_mix must be positive, got {self.t_mix}")
        if not (0.0 < self.conductance <= 1.0):
            raise ConfigurationError(
                f"conductance must be in (0, 1], got {self.conductance}"
            )
        if self.c <= 0:
            raise ConfigurationError(f"c must be positive, got {self.c}")
        if self.x_multiplier <= 0:
            raise ConfigurationError(
                f"x_multiplier must be positive, got {self.x_multiplier}"
            )
        if self.x is not None and self.x < 1:
            raise ConfigurationError(f"x must be >= 1, got {self.x}")
        if self.super_round_slots is not None and self.super_round_slots < 1:
            raise ConfigurationError(
                f"super_round_slots must be >= 1, got {self.super_round_slots}"
            )

    # ------------------------------------------------------------------ #
    # derived parameters (all deterministic functions of the inputs, so
    # every node computes identical phase boundaries)
    # ------------------------------------------------------------------ #
    @property
    def log_n(self) -> float:
        return max(1.0, math.log(self.n))

    @property
    def walks_per_candidate(self) -> int:
        """The paper's ``x = Θ̃(sqrt(n·log n / (Φ·t_mix)))``."""
        if self.x is not None:
            return self.x
        raw = math.sqrt(self.n * self.log_n / (self.conductance * self.t_mix))
        return max(1, math.ceil(self.x_multiplier * raw))

    @property
    def phase_rounds(self) -> int:
        """Per-phase protocol round budget ``c·t_mix·log n``."""
        return max(1, math.ceil(self.c * self.t_mix * self.log_n))

    @property
    def num_slots(self) -> int:
        """Super-round length: one slot per possible parallel broadcast."""
        if self.super_round_slots is not None:
            return self.super_round_slots
        return candidate_count_upper_bound(self.n, self.c)

    @property
    def territory_cap(self) -> float:
        """Territory growth cap ``x·t_mix·Φ``."""
        return max(2.0, self.walks_per_candidate * self.t_mix * self.conductance)

    @property
    def broadcast_phase_rounds(self) -> int:
        """Wall-clock rounds of the multiplexed cautious-broadcast phase."""
        return self.num_slots * self.phase_rounds

    @property
    def walk_phase_rounds(self) -> int:
        return self.phase_rounds

    @property
    def convergecast_phase_rounds(self) -> int:
        return self.phase_rounds

    def total_rounds(self) -> int:
        """Rounds from start to the decision round (inclusive)."""
        return (
            self.broadcast_phase_rounds
            + self.walk_phase_rounds
            + self.convergecast_phase_rounds
            + 1
        )

    # ------------------------------------------------------------------ #
    def broadcast_config(self) -> CautiousBroadcastConfig:
        return CautiousBroadcastConfig(
            protocol_rounds=self.phase_rounds,
            territory_cap=self.territory_cap,
        )

    def walk_config(self) -> RandomWalkProbeConfig:
        return RandomWalkProbeConfig(
            walk_rounds=self.walk_phase_rounds,
            walks_per_candidate=self.walks_per_candidate,
        )

    def convergecast_config(self) -> ConvergecastConfig:
        return ConvergecastConfig(convergecast_rounds=self.convergecast_phase_rounds)

    def as_dict(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "t_mix": self.t_mix,
            "conductance": self.conductance,
            "c": self.c,
            "x": self.walks_per_candidate,
            "x_multiplier": self.x_multiplier,
            "territory_cap": self.territory_cap,
            "phase_rounds": self.phase_rounds,
            "num_slots": self.num_slots,
            "total_rounds": self.total_rounds(),
        }

    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        *,
        c: float = 2.0,
        x_multiplier: float = 2.0,
        x: Optional[int] = None,
        t_mix: Optional[int] = None,
        conductance: Optional[float] = None,
        super_round_slots: Optional[int] = None,
    ) -> "IrrevocableConfig":
        """Measure ``t_mix`` and ``Φ`` from the topology unless provided."""
        measured_t_mix = t_mix if t_mix is not None else measure_mixing_time(topology)
        measured_phi = (
            conductance if conductance is not None else measure_conductance(topology)
        )
        return cls(
            n=topology.num_nodes,
            t_mix=max(1, int(measured_t_mix)),
            conductance=float(measured_phi),
            c=c,
            x_multiplier=x_multiplier,
            x=x,
            super_round_slots=super_round_slots,
        )


class IrrevocableLeaderElectionNode(ProtocolNode):
    """One anonymous node running Algorithm 1."""

    #: A plain attribute rather than the base property: the simulator
    #: reads it after every step.  Set once, by the decision step.
    halted = False

    def __init__(
        self,
        num_ports: int,
        rng: random.Random,
        *,
        config: IrrevocableConfig,
    ) -> None:
        super().__init__(num_ports, rng)
        self.config = config
        identity = draw_identity(rng, config.n, config.c)
        self.node_id = identity.node_id
        self.candidate = identity.candidate

        self._broadcast = CautiousBroadcastManager(
            num_ports=num_ports,
            config=config.broadcast_config(),
            num_slots=config.num_slots,
        )
        if self.candidate:
            self._broadcast.add_source_instance(self.node_id)
        self._walk: Optional[RandomWalkProbeState] = None
        self._convergecast: Optional[ConvergecastState] = None
        self.leader = False

        # Phase boundaries (identical at every node).
        self._broadcast_end = config.broadcast_phase_rounds
        self._walk_end = self._broadcast_end + config.walk_phase_rounds
        self._convergecast_end = self._walk_end + config.convergecast_phase_rounds

    # ------------------------------------------------------------------ #
    def step(self, round_index: int, inbox: Inbox) -> Outbox:
        if round_index < self._broadcast_end:
            broadcast = self._broadcast
            if inbox:
                broadcast.handle_inbox(inbox)
            slot = round_index % broadcast.num_slots
            return broadcast.transmissions_for_slot(slot, self.rng)
        if round_index < self._walk_end:
            walk = self._walk
            if walk is None:
                return self._walk_step(inbox)
            return walk.step(self.rng, inbox)
        if round_index < self._convergecast_end:
            return self._convergecast_step(round_index, inbox)
        return self._decision_step(inbox)

    # ------------------------------------------------------------------ #
    def _walk_step(self, inbox: Inbox) -> Outbox:
        """First walk round: build the walk state, then take its first step.

        Leftover broadcast messages in the inbox are still routed to the
        broadcast manager before walking begins.  Later walk rounds go
        straight to :meth:`RandomWalkProbeState.step`.
        """
        self._broadcast.handle_inbox(inbox)
        self._walk = RandomWalkProbeState(
            num_ports=self.num_ports,
            config=self.config.walk_config(),
            candidate=self.candidate,
            node_id=self.node_id,
        )
        return self._walk.step(self.rng, {})

    def _convergecast_step(self, round_index: int, inbox: Inbox) -> Outbox:
        if self._convergecast is None:
            if self._walk is not None:
                self._walk.absorb(inbox)
                inbox = {}
                max_walk_id = self._walk.max_walk_id
            else:  # pragma: no cover - the walk phase always runs first
                max_walk_id = self.node_id if self.candidate else 0
            self._convergecast = ConvergecastState(
                config=self.config.convergecast_config(),
                candidate=self.candidate,
                max_walk_id=max_walk_id,
                parent_ports=self._broadcast.parent_ports(),
            )
        return self._convergecast.step(inbox)

    def _decision_step(self, inbox: Inbox) -> Outbox:
        if self._convergecast is not None:
            self._convergecast.absorb(inbox)
            id_max = self._convergecast.max_walk_id
        else:  # pragma: no cover - defensive
            id_max = self.node_id if self.candidate else 0
        # Deviation 2 (DESIGN.md): only candidates may raise the flag.
        self.leader = self.candidate and id_max == self.node_id
        self.halted = True
        return {}

    # ------------------------------------------------------------------ #
    def quiescent_until(self, round_index: int) -> int:
        """Declare quiescence to the event-driven simulator backend.

        Each phase's state machine knows when stepping it with an empty
        inbox is a no-op (the ``quiescent`` methods of the broadcast and
        convergecast states; a scattered walk state holding no tokens);
        while that holds, the node may sleep until the next phase
        boundary — any reception wakes it, and the first round of a phase
        always wakes it to build that phase's state.  In the broadcast
        phase a round only serves the instance owning its slot, so the node
        sleeps until the first slot of a non-quiescent instance
        (:meth:`CautiousBroadcastManager.next_busy_round`).
        The declaration makes the event backend bit-identical to the round
        backend on this protocol: skipped steps would have sent nothing,
        drawn nothing and decided nothing.
        """
        if round_index < self._broadcast_end:
            busy = self._broadcast.next_busy_round(round_index)
            end = self._broadcast_end
            return end if busy is None or busy > end else busy
        if round_index < self._walk_end:
            walk = self._walk
            if walk is not None and walk.scattered and not walk.tokens:
                return self._walk_end
            return round_index
        if round_index < self._convergecast_end:
            if self._convergecast is not None and self._convergecast.quiescent():
                return self._convergecast_end
            return round_index
        return round_index

    # ------------------------------------------------------------------ #
    def result(self) -> Dict[str, object]:
        return {
            "leader": self.leader,
            "candidate": self.candidate,
            "node_id": self.node_id,
            "max_walk_id": (
                self._convergecast.max_walk_id
                if self._convergecast is not None
                else (self._walk.max_walk_id if self._walk is not None else None)
            ),
            "joined_territories": sorted(self._broadcast.joined_instances()),
            "parallel_broadcasts": self._broadcast.instance_count(),
            "broadcast_overflow": self._broadcast.overflow_instances,
            "halted": self.halted,
        }


def run_irrevocable_election(
    topology: Topology,
    *,
    seed: Optional[int] = None,
    config: Optional[IrrevocableConfig] = None,
    c: float = 2.0,
    x_multiplier: float = 2.0,
    metrics: Optional[MetricsCollector] = None,
    enforce_congest: bool = False,
) -> LeaderElectionResult:
    """Run the known-``n`` election once and return outcome + cost.

    Phases are attributed separately in the returned metrics, so the
    benchmark harness can report the cost of cautious broadcast, probing
    and convergecast individually (matching Lemma 1 / Lemma 2 / Theorem 1).

    Registered in the protocol registry as ``irrevocable`` with ``c`` and
    ``x_multiplier`` as its schema (see :mod:`repro.protocols`): the CLI
    and experiment grids reach this entry point through
    ``ProtocolSpec.parse("irrevocable:c=3,x_multiplier=1.5")``.
    """
    if config is None:
        config = IrrevocableConfig.from_topology(
            topology, c=c, x_multiplier=x_multiplier
        )
    collector = metrics if metrics is not None else MetricsCollector()

    def factory(index: int, num_ports: int, rng: random.Random) -> ProtocolNode:
        return IrrevocableLeaderElectionNode(num_ports, rng, config=config)

    nodes = build_nodes(topology, factory, seed=seed)
    simulator = SynchronousSimulator(
        topology,
        nodes,
        metrics=collector,
        enforce_congest=enforce_congest,
    )
    with collector.phase("cautious-broadcast"):
        simulator.run(config.broadcast_phase_rounds)
    with collector.phase("random-walk"):
        simulator.run(config.walk_phase_rounds)
    with collector.phase("convergecast"):
        simulator.run(config.convergecast_phase_rounds + 1)
    simulation = simulator.run(0)  # package the final state
    return election_result_from_simulation(
        ALGORITHM_NAME,
        simulation,
        seed=seed,
        parameters=config.as_dict(),
    )
