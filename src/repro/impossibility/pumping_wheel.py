"""The pumping-wheel construction of Theorem 2 (Section 5.1, Figures 1–2).

Theorem 2 states that without knowledge of the network size no algorithm
can solve *Irrevocable* Leader Election within any time bound ``T(n)`` with
constant probability.  The proof builds a large cycle ``C_N`` out of many
disjoint *witnesses* — paths of length ``2T(n) + 2n`` whose middle ``2n``
nodes form a *core* of two ``n``-node *segments* (Figure 1) — separated by
``2T(n)`` buffer nodes so their executions are independent for the first
``T(n)`` rounds.  Any execution that succeeds on ``C_n`` has a winning
configuration that, with enough witnesses, reappears in both segments of
some witness, so the nodes there stop with **two** leaders (Figure 2).

This module provides the construction and an empirical driver:

* :class:`WitnessLayout` — the geometry of a witness for given ``n, T``;
* :func:`build_pumping_wheel` — the cycle ``C_N`` holding a requested
  number of 2T-separated witnesses, plus the paper's (astronomically
  large) witness count needed for the union bound;
* :class:`BoundedUnknownSizeElectionNode` — a natural bounded-time election
  protocol for unknown-size networks: it assumes a size bound, floods the
  maximum random ID for ``T = 2·assumed_size`` rounds and stops.  On
  ``C_n`` with a correct assumption it elects exactly one leader w.h.p.;
* :func:`demonstrate_impossibility` — runs that protocol on ``C_n`` and on
  pumping wheels of growing witness count and reports how often the wheel
  ends with two or more raised flags, reproducing the phenomenon behind
  Theorem 2 (no specific algorithm can escape it; this driver accepts any
  bounded-time node factory).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core.errors import ConfigurationError
from ..core.messages import Message
from ..core.metrics import MetricsCollector
from ..core.node import Inbox, Outbox, ProtocolNode
from ..core.simulator import SynchronousSimulator, build_nodes
from ..election.base import outcome_from_results
from ..election.ids import id_space_size
from ..graphs.generators import cycle
from ..graphs.topology import Topology

__all__ = [
    "WitnessLayout",
    "build_pumping_wheel",
    "paper_witness_count",
    "BoundedUnknownSizeElectionNode",
    "ImpossibilityTrial",
    "ImpossibilityReport",
    "demonstrate_impossibility",
]


# --------------------------------------------------------------------------- #
# construction
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class WitnessLayout:
    """Geometry of a single witness (Figure 1).

    A witness is a path of ``2·T + 2·n`` nodes: ``T`` buffer nodes, a core
    of two ``n``-node segments, and ``T`` more buffer nodes.
    """

    n: int
    horizon: int  # T(n)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"n must be positive, got {self.n}")
        if self.horizon < 1:
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")

    @property
    def core_length(self) -> int:
        return 2 * self.n

    @property
    def witness_length(self) -> int:
        return 2 * self.horizon + self.core_length

    @property
    def separation(self) -> int:
        """Buffer between consecutive witnesses so executions are independent."""
        return 2 * self.horizon

    @property
    def period(self) -> int:
        """Nodes consumed per witness on the wheel: witness + separation."""
        return self.witness_length + self.separation

    def core_slice(self, witness_index: int) -> range:
        """Indices of the core nodes of the ``witness_index``-th witness."""
        start = witness_index * self.period + self.horizon
        return range(start, start + self.core_length)

    def segment_slices(self, witness_index: int) -> Sequence[range]:
        """The two ``n``-node segments of the witness's core."""
        core = self.core_slice(witness_index)
        return (
            range(core.start, core.start + self.n),
            range(core.start + self.n, core.stop),
        )


def paper_witness_count(n: int, horizon: int, success_probability: float) -> float:
    """The witness count used in the paper's union bound.

    Theorem 2 takes ``x > ln(1/c)/c² · 2^{2nT(n)}`` witnesses so that some
    witness reproduces the winning configuration with probability ``> 1-c``.
    The value is astronomically large for any non-trivial ``n`` — that is
    the point of reporting it — while the *empirical* demonstration below
    needs only a handful of witnesses because real protocols are far more
    repetitive than the worst case the union bound allows for.
    """
    if not (0.0 < success_probability < 1.0):
        raise ConfigurationError(
            f"success_probability must be in (0, 1), got {success_probability}"
        )
    c = success_probability
    return math.log(1.0 / c) / (c * c) * 2.0 ** (2 * n * horizon)


def build_pumping_wheel(
    layout: WitnessLayout,
    num_witnesses: int,
    *,
    port_seed: Optional[int] = None,
) -> Topology:
    """The cycle ``C_N`` containing ``num_witnesses`` 2T-separated witnesses."""
    if num_witnesses < 1:
        raise ConfigurationError(
            f"num_witnesses must be positive, got {num_witnesses}"
        )
    total = layout.period * num_witnesses
    wheel = cycle(total, port_seed=port_seed)
    return Topology(
        wheel.num_nodes,
        list(wheel.edges()),
        name=f"pumping_wheel(n={layout.n},T={layout.horizon},witnesses={num_witnesses})",
        port_seed=port_seed,
    )


# --------------------------------------------------------------------------- #
# a natural bounded-time protocol for unknown-size networks
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class WheelAnnouncement(Message):
    """Flooded maximum ID used by the bounded-time election."""

    node_id: int


class BoundedUnknownSizeElectionNode(ProtocolNode):
    """A bounded-time election protocol that does not know the true size.

    The node assumes the network has at most ``assumed_size`` nodes, draws
    an ID from ``{1..assumed_size^4}``, floods the maximum for
    ``T = 2·assumed_size`` rounds (twice the diameter of the cycle it was
    designed for) and then *stops*, raising the flag iff it never heard a
    larger ID.  On ``C_n`` with ``assumed_size >= n`` this is a perfectly
    sensible Irrevocable Leader Election algorithm; Theorem 2 says every
    such bounded-time protocol must fail on some larger network, and the
    pumping wheel makes it fail visibly.
    """

    def __init__(
        self,
        num_ports: int,
        rng: random.Random,
        *,
        assumed_size: int,
        horizon: Optional[int] = None,
    ) -> None:
        super().__init__(num_ports, rng)
        if assumed_size < 1:
            raise ConfigurationError(
                f"assumed_size must be positive, got {assumed_size}"
            )
        self.assumed_size = assumed_size
        self.horizon = horizon if horizon is not None else 2 * assumed_size
        self.node_id = rng.randint(1, id_space_size(assumed_size))
        self.max_seen = self.node_id
        self.leader = False
        self._announced: Optional[int] = None
        self._halted = False

    @property
    def halted(self) -> bool:
        return self._halted

    def step(self, round_index: int, inbox: Inbox) -> Outbox:
        for message in inbox.values():
            if isinstance(message, WheelAnnouncement):
                if message.node_id > self.max_seen:
                    self.max_seen = message.node_id
        if round_index >= self.horizon:
            self.leader = self.max_seen == self.node_id
            self._halted = True
            return {}
        if self._announced != self.max_seen:
            self._announced = self.max_seen
            return dict.fromkeys(self.ports(), WheelAnnouncement(node_id=self.max_seen))
        return {}

    def result(self) -> Dict[str, object]:
        return {
            "leader": self.leader,
            "candidate": True,
            "node_id": self.node_id,
            "max_seen": self.max_seen,
            "assumed_size": self.assumed_size,
            "horizon": self.horizon,
            "halted": self._halted,
        }


# --------------------------------------------------------------------------- #
# empirical demonstration
# --------------------------------------------------------------------------- #

#: Factory signature for the protocol under test.
BoundedProtocolFactory = Callable[[int, random.Random, int], ProtocolNode]


def _default_factory(num_ports: int, rng: random.Random, assumed_size: int) -> ProtocolNode:
    return BoundedUnknownSizeElectionNode(num_ports, rng, assumed_size=assumed_size)


@dataclass(frozen=True)
class ImpossibilityTrial:
    """One seed's outcome on the base cycle and on the pumping wheel."""

    seed: int
    base_leaders: int
    wheel_leaders: int

    @property
    def base_correct(self) -> bool:
        return self.base_leaders == 1

    @property
    def wheel_failed(self) -> bool:
        """The wheel execution violated uniqueness (zero or several flags)."""
        return self.wheel_leaders != 1


@dataclass
class ImpossibilityReport:
    """Aggregate of the impossibility demonstration."""

    n: int
    horizon: int
    num_witnesses: int
    wheel_size: int
    paper_witnesses: float
    trials: List[ImpossibilityTrial] = field(default_factory=list)

    @property
    def base_success_rate(self) -> float:
        if not self.trials:
            return 0.0
        return sum(t.base_correct for t in self.trials) / len(self.trials)

    @property
    def wheel_failure_rate(self) -> float:
        if not self.trials:
            return 0.0
        return sum(t.wheel_failed for t in self.trials) / len(self.trials)

    @property
    def mean_wheel_leaders(self) -> float:
        if not self.trials:
            return 0.0
        return sum(t.wheel_leaders for t in self.trials) / len(self.trials)

    def as_dict(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "horizon": self.horizon,
            "num_witnesses": self.num_witnesses,
            "wheel_size": self.wheel_size,
            "paper_witnesses": self.paper_witnesses,
            "trials": len(self.trials),
            "base_success_rate": self.base_success_rate,
            "wheel_failure_rate": self.wheel_failure_rate,
            "mean_wheel_leaders": self.mean_wheel_leaders,
        }


def _count_leaders(
    topology: Topology,
    factory: BoundedProtocolFactory,
    assumed_size: int,
    horizon: int,
    seed: int,
) -> int:
    def node_factory(index: int, num_ports: int, rng: random.Random) -> ProtocolNode:
        return factory(num_ports, rng, assumed_size)

    nodes = build_nodes(topology, node_factory, seed=seed)
    simulator = SynchronousSimulator(topology, nodes, metrics=MetricsCollector())
    simulation = simulator.run(horizon + 2, require_halt=False)
    outcome = outcome_from_results(simulation.results())
    return outcome.num_leaders


def demonstrate_impossibility(
    n: int,
    *,
    num_witnesses: int = 4,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    success_probability: float = 0.9,
    factory: BoundedProtocolFactory = _default_factory,
) -> ImpossibilityReport:
    """Run the bounded-time protocol on ``C_n`` and on the pumping wheel.

    Returns a report whose ``wheel_failure_rate`` shows how often the
    bounded-time protocol — correct on the cycle it was designed for —
    stops with several leaders on the larger wheel, the failure mode
    Theorem 2 proves is unavoidable.
    """
    if n < 3:
        raise ConfigurationError(f"n must be at least 3 for a cycle, got {n}")
    if not seeds:
        raise ConfigurationError("seeds must not be empty: no trial would run")
    horizon = 2 * n
    layout = WitnessLayout(n=n, horizon=horizon)
    wheel = build_pumping_wheel(layout, num_witnesses)
    base = cycle(n)
    report = ImpossibilityReport(
        n=n,
        horizon=horizon,
        num_witnesses=num_witnesses,
        wheel_size=wheel.num_nodes,
        paper_witnesses=paper_witness_count(n, horizon, success_probability),
    )
    for seed in seeds:
        base_leaders = _count_leaders(base, factory, n, horizon, seed)
        wheel_leaders = _count_leaders(wheel, factory, n, horizon, seed)
        report.trials.append(
            ImpossibilityTrial(
                seed=seed,
                base_leaders=base_leaders,
                wheel_leaders=wheel_leaders,
            )
        )
    return report
