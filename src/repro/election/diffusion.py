"""Potential diffusion (the ``Avg`` building block, Section 5.2, Algorithm 7).

Black nodes start with potential 1, white nodes with 0.  In every round
each *probing* node ships a ``1/(2k^{1+ε})`` fraction of its potential to
every neighbour and keeps the rest.  Because the induced Markov chain is
doubly stochastic, the potentials converge to their average
``(n - ℓ)/n`` (Lemma 3), and when the estimate ``k`` is large enough
(``k^{1+ε} ≥ 2n+1``) the converged value sits below the threshold ``τ(k)``
whenever at least one white node exists (Lemma 5).

The full election drives this process from inside its generator
(:mod:`repro.election.revocable`); this module provides the message types
and a standalone :class:`DiffusionAveragingNode` used by unit and property
tests to verify conservation and convergence of the averaging process in
isolation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Optional

from ..core.errors import ConfigurationError
from ..core.generator_node import GeneratorNode
from ..core.messages import Message

__all__ = [
    "DiffusionMessage",
    "DisseminationMessage",
    "diffusion_share",
    "DiffusionAveragingNode",
    "expected_average",
    "convergence_rounds_estimate",
]


@dataclass(frozen=True)
class DiffusionMessage(Message):
    """Per-round broadcast during the diffusion phase (Algorithm 7, line 6)."""

    potential: float
    status_low: bool
    white_seen: bool
    leader_id: Optional[int] = None
    leader_estimate: Optional[int] = None


@dataclass(frozen=True)
class DisseminationMessage(Message):
    """Per-round broadcast during the dissemination phase (line 15)."""

    status_low: bool
    white_seen: bool
    leader_id: Optional[int] = None
    leader_estimate: Optional[int] = None


def diffusion_share(k: int, epsilon: float) -> float:
    """The per-neighbour potential fraction ``1/(2·k^{1+ε})``."""
    if k < 1:
        raise ConfigurationError(f"estimate k must be positive, got {k}")
    if not (0.0 < epsilon <= 1.0):
        raise ConfigurationError(f"epsilon must be in (0, 1], got {epsilon}")
    return 1.0 / (2.0 * float(k) ** (1.0 + epsilon))


class DiffusionAveragingNode(GeneratorNode):
    """Standalone potential-averaging node (no election logic).

    Runs ``rounds`` rounds of the diffusion update with share
    ``1/(2k^{1+ε})`` and then halts; :meth:`result` exposes the final
    potential so tests can check conservation and convergence to the
    network-wide average.
    """

    def __init__(
        self,
        num_ports: int,
        rng: random.Random,
        *,
        initial_potential: float,
        k: int,
        epsilon: float = 1.0,
        rounds: int = 10,
    ) -> None:
        super().__init__(num_ports, rng)
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        if initial_potential < 0:
            raise ConfigurationError(
                f"initial_potential must be non-negative, got {initial_potential}"
            )
        self.potential = float(initial_potential)
        self.k = k
        self.epsilon = epsilon
        self.rounds = rounds
        self.share = diffusion_share(k, epsilon)
        if self.num_ports * self.share > 1.0:
            raise ConfigurationError(
                f"degree {num_ports} too large for estimate k={k}: the node "
                f"would ship more potential than it holds"
            )

    def run(self):
        for _ in range(self.rounds):
            outbox = dict.fromkeys(
                self.ports(),
                DiffusionMessage(
                    potential=self.potential, status_low=False, white_seen=False
                ),
            )
            sent_potential = self.potential
            inbox = yield outbox
            incoming = sum(
                message.potential
                for message in inbox.values()
                if isinstance(message, DiffusionMessage)
            )
            self.potential = (
                sent_potential
                + self.share * incoming
                - self.share * self.num_ports * sent_potential
            )

    def result(self) -> Dict[str, object]:
        return {
            "potential": self.potential,
            "rounds": self.rounds,
            "share": self.share,
        }


def expected_average(total_potential: float, num_nodes: int) -> float:
    """The value every potential converges to: ``||Φ₁|| / n``."""
    if num_nodes < 1:
        raise ConfigurationError(f"num_nodes must be positive, got {num_nodes}")
    return total_potential / num_nodes


def convergence_rounds_estimate(
    *, k: int, epsilon: float, isoperimetric_number: float, relative_error: float
) -> int:
    """Rounds needed for the diffusion to reach a relative error (Lemma 4).

    ``r >= (2/φ²)·log(n/γ)`` with the chain conductance
    ``φ = i(G)·share = i(G)/(2k^{1+ε})``; used by tests to size standalone
    diffusion runs consistently with the analysis.
    """
    if isoperimetric_number <= 0:
        raise ConfigurationError("isoperimetric_number must be positive")
    if not (0.0 < relative_error < 1.0):
        raise ConfigurationError("relative_error must be in (0, 1)")
    phi = isoperimetric_number * diffusion_share(k, epsilon)
    return max(1, math.ceil(2.0 / phi ** 2 * math.log(1.0 / relative_error)))
