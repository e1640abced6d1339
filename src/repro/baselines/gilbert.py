"""Gilbert et al. (PODC 2018) style random-walk election baseline.

The "Leader election in well-connected graphs" algorithm [10] is the prior
work the paper's Theorem 1 improves on: for known ``n`` it elects a leader
with ``Õ(t_mix·√n)`` messages by having the ``Θ(log n)`` sampled candidates
spray ``Θ̃(√n)`` random-walk tokens; token sets of different candidates
intersect w.h.p. (birthday paradox), letting smaller candidates learn about
larger ones.

Our re-implementation keeps that structure and cost shape:

* **marking phase** — each candidate releases ``K = Θ(√n·log n)`` lazy
  random-walk tokens for ``L = Θ(t_mix·log n)`` steps; every visited node
  remembers the largest candidate ID that marked it;
* **probing phase** — each candidate releases another ``K`` tokens that
  record the largest mark seen along their path;
* **return phase** — probe tokens retrace their recorded path back to the
  candidate, delivering the largest mark they collected.

A candidate that hears no ID larger than its own raises the flag.  Each
token hop is one CONGEST message of ``O(log n)`` bits (tokens sharing a
link in a round are bundled into one :class:`TokenBundle` but accounted
per token); the reverse path kept
inside probe tokens models the source routing that [10] engineer around and
is excluded from bit accounting (see DESIGN.md §3.5).  Knowledge of
``t_mix`` is granted to the baseline (the original pays extra *time*, not
messages, to avoid it), so its message complexity — the quantity Table 1
compares — is represented faithfully.

RNG contract: the node's RNG is the ``random.Random`` that
:func:`~repro.core.simulator.build_nodes` hands out.  After the identity
draw, each round the node takes one ``random()`` coin per walking token
(marks, and probes with steps left), in the order it holds them; a mover
then draws its port as ``getrandbits(k)`` with rejection
(``k = n.bit_length()``), which is exactly the stream of ``randint(1, n)``,
as in the irrevocable election's walk.  Returning tokens and nodes
without ports draw nothing.

Quiescence: a node holding no tokens declares itself quiescent
(:meth:`GilbertStyleNode.quiescent_until`) until its next phase
boundary — the mark-phase end for a candidate that has not passed it,
otherwise the final round — so the event-driven simulator core steps it
only when tokens arrive or a boundary comes.

Cost per bundle, not per token: a node builds each port's bundle once per
round, pre-sized through :func:`~repro.core.messages.presized` with the
bits it added up while bundling, so the simulator never calls the
bundle's ``size_bits``/``congest_units`` (which stay the definition of
its cost; a property test checks that the two agree).  A candidate's
``K`` tokens start as one shared object, and a token that is the same
object as the one just handled shares its successor and bit cost, so runs
of tokens that stay or move together are built once.  The derived config
values (``K``, ``L``, phase ends) are computed once per config.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..core.errors import ConfigurationError
from ..core.messages import Message, presized
from ..core.metrics import MetricsCollector
from ..core.node import Inbox, Outbox, ProtocolNode
from ..core.simulator import SynchronousSimulator, build_nodes
from ..graphs.spectral import mixing_time as measure_mixing_time
from ..graphs.topology import Topology
from ..election.base import LeaderElectionResult, election_result_from_simulation
from ..election.ids import draw_identity

__all__ = [
    "WalkToken",
    "TokenBundle",
    "GilbertConfig",
    "GilbertStyleNode",
    "run_gilbert_election",
    "ALGORITHM_NAME",
]

ALGORITHM_NAME = "gilbert-random-walk"

MODE_MARK = "mark"
MODE_PROBE = "probe"
MODE_RETURN = "return"


class WalkToken(NamedTuple):
    """One random-walk token (an immutable tuple).

    ``path`` holds the arrival ports needed to retrace the walk (newest
    last); it models source routing and is excluded from the CONGEST bit
    accounting.
    """

    candidate_id: int
    mode: str
    steps_remaining: int
    collected_max: int
    path: Tuple[int, ...] = ()


#: Builds a token from a 5-tuple of its fields in one C call.
_new = tuple.__new__


@dataclass(frozen=True)
class TokenBundle(Message):
    """All tokens forwarded over one link in one round."""

    tokens: Tuple[WalkToken, ...]

    def size_bits(self, network_size: Optional[int] = None) -> int:
        """Tag, plus per token its three integers and a 2-bit mode tag.

        Each integer costs :func:`~repro.core.messages.bits_for_int`,
        written inline: ``x.bit_length() + (x <= 0)``.
        """
        total = self.TYPE_TAG_BITS + 2 * len(self.tokens)
        for candidate_id, _, steps, collected, _ in self.tokens:
            total += (
                candidate_id.bit_length()
                + (candidate_id <= 0)
                + steps.bit_length()
                + (steps <= 0)
                + collected.bit_length()
                + (collected <= 0)
            )
        return total

    def congest_units(self) -> int:
        """Each token is its own ``O(log n)``-bit CONGEST message."""
        return max(1, len(self.tokens))


@dataclass(frozen=True)
class GilbertConfig:
    """Parameters of the Gilbert-style baseline."""

    n: int
    t_mix: int
    c: float = 2.0
    token_multiplier: float = 1.0
    walk_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"n must be positive, got {self.n}")
        if self.t_mix < 1:
            raise ConfigurationError(f"t_mix must be positive, got {self.t_mix}")
        if self.c <= 0 or self.token_multiplier <= 0 or self.walk_multiplier <= 0:
            raise ConfigurationError("constants must be positive")

    # The derived values below are computed once per config (a run's
    # nodes share one) and kept in the instance's ``__dict__``; equality,
    # hashing and ``repr`` see the fields only.
    @cached_property
    def log_n(self) -> float:
        return max(1.0, math.log(self.n))

    @cached_property
    def tokens_per_candidate(self) -> int:
        """``K = Θ(√n · log n)`` tokens per candidate."""
        return max(1, math.ceil(self.token_multiplier * math.sqrt(self.n) * self.log_n))

    @cached_property
    def walk_length(self) -> int:
        """``L = Θ(t_mix · log n)`` steps per token."""
        return max(1, math.ceil(self.walk_multiplier * self.t_mix * self.log_n))

    @cached_property
    def mark_phase_end(self) -> int:
        return self.walk_length + 1

    @cached_property
    def probe_phase_end(self) -> int:
        return self.mark_phase_end + self.walk_length + 1

    def total_rounds(self) -> int:
        """Marking + probing + return + settling."""
        return self.probe_phase_end + self.walk_length + 2

    def as_dict(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "t_mix": self.t_mix,
            "c": self.c,
            "tokens_per_candidate": self.tokens_per_candidate,
            "walk_length": self.walk_length,
            "total_rounds": self.total_rounds(),
        }

    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        *,
        c: float = 2.0,
        t_mix: Optional[int] = None,
        token_multiplier: float = 1.0,
        walk_multiplier: float = 2.0,
    ) -> "GilbertConfig":
        measured = t_mix if t_mix is not None else measure_mixing_time(topology)
        return cls(
            n=topology.num_nodes,
            t_mix=max(1, int(measured)),
            c=c,
            token_multiplier=token_multiplier,
            walk_multiplier=walk_multiplier,
        )


class GilbertStyleNode(ProtocolNode):
    """One node of the Gilbert-style random-walk election.

    The walk length, phase boundaries and tokens per candidate are read
    from the config once, at construction; see the module docstring for
    the RNG contract, the quiescence declaration and the pre-sized
    bundles.
    """

    #: set once, by the final round's step
    halted = False

    def __init__(
        self,
        num_ports: int,
        rng: random.Random,
        *,
        config: GilbertConfig,
    ) -> None:
        super().__init__(num_ports, rng)
        self.config = config
        identity = draw_identity(rng, config.n, config.c)
        self.node_id = identity.node_id
        self.candidate = identity.candidate
        self.mark = self.node_id if self.candidate else 0
        self.heard_max = self.node_id if self.candidate else 0
        self.leader = False
        self._walk_length = config.walk_length
        self._tokens_per_candidate = config.tokens_per_candidate
        self._mark_phase_end = config.mark_phase_end
        self._final_round = config.total_rounds() - 1
        self._held: List[WalkToken] = []
        if self.candidate:
            token = WalkToken(self.node_id, MODE_MARK, self._walk_length, self.node_id)
            self._held = [token] * self._tokens_per_candidate

    # ------------------------------------------------------------------ #
    def quiescent_until(self, round_index: int) -> int:
        """A node holding no tokens sleeps until its next phase boundary.

        That is the mark-phase end for a candidate that has not passed it
        (it releases its probes there), otherwise the final round.
        """
        if self._held:
            return round_index
        if self.candidate and round_index <= self._mark_phase_end:
            return self._mark_phase_end
        return self._final_round

    def step(self, round_index: int, inbox: Inbox) -> Outbox:
        if inbox:
            self._absorb(inbox)

        if round_index == self._mark_phase_end and self.candidate:
            # Release the probing wave.
            probe = WalkToken(self.node_id, MODE_PROBE, self._walk_length, self.mark)
            self._held.extend([probe] * self._tokens_per_candidate)

        if round_index >= self._final_round:
            self.leader = (
                self.candidate and max(self.heard_max, self.mark) <= self.node_id
            )
            self.halted = True
            return {}

        if not self._held:
            return {}
        return self._move_tokens()

    # ------------------------------------------------------------------ #
    def _absorb(self, inbox: Inbox) -> None:
        """Take in arriving tokens: marks mark, probes record, returns land.

        A probe that is the same object as the one just recorded shares
        its recorded successor.
        """
        held = self._held
        mark = self.mark
        heard_max = self.heard_max
        for port, message in inbox.items():
            if not isinstance(message, TokenBundle):
                continue
            last = recorded = None
            for token in message.tokens:
                mode = token[1]
                if mode == MODE_MARK:
                    if token[0] > mark:
                        mark = token[0]
                    held.append(token)
                elif mode == MODE_PROBE:
                    if token is not last:
                        last = token
                        candidate_id, _, steps, collected, path = token
                        if mark > collected:
                            collected = mark
                        recorded = _new(
                            WalkToken, (candidate_id, mode, steps, collected, path + (port,))
                        )
                    held.append(recorded)
                elif mode == MODE_RETURN:
                    if token[4]:
                        held.append(token)
                    elif token[3] > heard_max:
                        # Back at its origin: record what it collected.
                        heard_max = token[3]
        self.mark = mark
        self.heard_max = heard_max

    def _move_tokens(self) -> Outbox:
        """One hop for every held token; returns the per-port bundles.

        Walking tokens (marks, and probes with steps left) each draw a
        lazy coin and, if they move, a port inline (the module's RNG
        contract).  Exhausted marks evaporate; exhausted probes turn into
        return tokens, which retrace their path to the origin.  Each port's
        bundle is built once, pre-sized with the bits of its tokens as
        :meth:`TokenBundle.size_bits` counts them.  A token that is the same
        object as the one just handled shares its successor and bit cost.
        """
        num_ports = self.num_ports
        mark = self.mark
        heard_max = self.heard_max
        bits = num_ports.bit_length()
        coin = self.rng.random
        getrandbits = self.rng.getrandbits
        new = _new
        # port -> [bits of its tokens, token, token, ...]
        per_port: Dict[int, list] = {}
        still_held: List[WalkToken] = []
        last = moved = None
        walks = False  # whether ``moved`` walks on or retraces its path
        back = 0  # the port a retracing ``moved`` takes
        cost = 0  # bits of ``moved`` in a bundle; 0 until first needed
        for token in self._held:
            if token is not last:
                last = token
                cost = 0
                candidate_id, mode, steps, collected, path = token
                if steps > 0 and mode != MODE_RETURN:
                    walks = True
                    moved = new(WalkToken, (candidate_id, mode, steps - 1, collected, path))
                elif mode == MODE_MARK:
                    moved = None  # exhausted mark tokens evaporate
                else:
                    # An exhausted probe turns back with the largest mark
                    # seen; a return token takes one more step back along
                    # its path.
                    walks = False
                    if mode == MODE_PROBE and mark > collected:
                        collected = mark
                    if path:
                        back = path[-1]
                        moved = new(
                            WalkToken, (candidate_id, MODE_RETURN, steps, collected, path[:-1])
                        )
                    else:
                        # At its origin: record what it collected.
                        if collected > heard_max:
                            heard_max = collected
                        moved = None
            if moved is None:
                continue
            if walks:
                if num_ports == 0 or coin() < 0.5:
                    still_held.append(moved)
                    continue
                r = getrandbits(bits)
                while r >= num_ports:
                    r = getrandbits(bits)
                port = r + 1
            else:
                port = back
            if not cost:
                # A 2-bit mode tag plus bits_for_int of the three integers.
                candidate_id, _, steps, collected, _ = moved
                cost = (
                    2
                    + candidate_id.bit_length()
                    + (candidate_id <= 0)
                    + steps.bit_length()
                    + (steps <= 0)
                    + collected.bit_length()
                    + (collected <= 0)
                )
            entry = per_port.get(port)
            if entry is None:
                per_port[port] = [cost, moved]
            else:
                entry[0] += cost
                entry.append(moved)
        self._held = still_held
        self.heard_max = heard_max
        outbox = {}
        for port, entry in per_port.items():
            tokens = tuple(entry[1:])
            outbox[port] = presized(
                TokenBundle, TokenBundle.TYPE_TAG_BITS + entry[0], len(tokens), tokens=tokens
            )
        return outbox

    # ------------------------------------------------------------------ #
    def result(self) -> Dict[str, object]:
        return {
            "leader": self.leader,
            "candidate": self.candidate,
            "node_id": self.node_id,
            "mark": self.mark,
            "heard_max": self.heard_max,
            "halted": self.halted,
        }


def run_gilbert_election(
    topology: Topology,
    *,
    seed: Optional[int] = None,
    config: Optional[GilbertConfig] = None,
    c: float = 2.0,
    metrics: Optional[MetricsCollector] = None,
) -> LeaderElectionResult:
    """Run the Gilbert-style baseline once and return outcome + cost.

    Registered in the protocol registry as ``gilbert`` with ``c`` as its
    schema (see :mod:`repro.protocols`).
    """
    if config is None:
        config = GilbertConfig.from_topology(topology, c=c)
    collector = metrics if metrics is not None else MetricsCollector()

    def factory(index: int, num_ports: int, rng: random.Random) -> ProtocolNode:
        return GilbertStyleNode(num_ports, rng, config=config)

    nodes = build_nodes(topology, factory, seed=seed)
    simulator = SynchronousSimulator(topology, nodes, metrics=collector)
    with collector.phase("random-walk-tokens"):
        simulation = simulator.run(config.total_rounds())
    return election_result_from_simulation(
        ALGORITHM_NAME,
        simulation,
        seed=seed,
        parameters=config.as_dict(),
    )
