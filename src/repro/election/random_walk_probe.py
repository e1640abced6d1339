"""Random-walk probing of broadcast territories (Section 4, Algorithm 5).

After the candidates have grown their territories, each candidate issues
``x`` independent *lazy* random-walk tokens carrying its ID.  Tokens walk
for ``c·t_mix·log n`` rounds; every visited node remembers the largest walk
ID it has ever seen.  The CONGEST encoding follows the paper: all tokens a
node forwards through the same port in one round are merged into a single
message carrying the current maximum walk ID and the token count, and a
node never forwards more than one distinct ID per link per round (smaller
IDs are absorbed by larger ones).

:class:`RandomWalkProbeState` is the per-node state machine; the composite
irrevocable-election node drives it, and :class:`RandomWalkProbeNode` wraps
it as a standalone protocol for unit tests and analysis.

RNG contract: the node's RNG is the ``random.Random`` that
:func:`~repro.core.simulator.build_nodes` hands out.  A candidate's initial
scatter draws ``randint(1, n)`` per token.  Afterwards each held token
draws one ``random()`` coin, in order; a mover then draws its port as
``getrandbits(k)`` with rejection (``k = n.bit_length()``), which is
exactly the stream of ``randint(1, n)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from ..core.errors import ConfigurationError
from ..core.messages import Message
from ..core.node import Inbox, Outbox, ProtocolNode

__all__ = [
    "WalkMessage",
    "RandomWalkProbeConfig",
    "RandomWalkProbeState",
    "RandomWalkProbeNode",
]


@dataclass(frozen=True)
class WalkMessage(Message):
    """Tokens forwarded through one port in one round.

    ``walk_id`` is the largest walk ID among the forwarded tokens (smaller
    IDs are substituted by larger ones, per the paper); ``count`` is the
    number of token copies taking this link.
    """

    walk_id: int
    count: int


@dataclass(frozen=True)
class RandomWalkProbeConfig:
    """Parameters of the probing phase."""

    walk_rounds: int
    walks_per_candidate: int

    def __post_init__(self) -> None:
        if self.walk_rounds < 1:
            raise ConfigurationError(
                f"walk_rounds must be >= 1, got {self.walk_rounds}"
            )
        if self.walks_per_candidate < 1:
            raise ConfigurationError(
                f"walks_per_candidate must be >= 1, got {self.walks_per_candidate}"
            )


class RandomWalkProbeState:
    """Per-node state of the walk phase.

    ``max_walk_id`` starts at the node's own ID for candidates (their
    tokens carry it) and at 0 for everyone else — a non-candidate's private
    ID never enters any walk, so it must not shadow the candidates'
    (see DESIGN.md, deviation 2).

    Draws follow the module's RNG contract: one ``random()`` coin per held
    token, then, for a mover, ``getrandbits(k)`` with rejection, equal to
    ``randint(1, num_ports)``.  ``rng`` must be a ``random.Random`` (not a
    subclass that overrides ``random`` alone) for that equality to hold.
    """

    def __init__(
        self,
        *,
        num_ports: int,
        config: RandomWalkProbeConfig,
        candidate: bool,
        node_id: int,
    ) -> None:
        self.config = config
        self.num_ports = num_ports
        self._port_bits = num_ports.bit_length()
        self.candidate = candidate
        self.node_id = node_id
        self.max_walk_id = node_id if candidate else 0
        self.tokens = 0
        self.tokens_seen = 0
        self.rounds_executed = 0
        #: Whether the initial scatter has run (the first walk round).  Once
        #: it has, a node holding no tokens is quiescent: a step with an
        #: empty inbox draws nothing, sends nothing and decides nothing.
        self.scattered = False
        #: Sent messages by token count, all carrying ``_messages_id``;
        #: reused across ports and rounds until ``max_walk_id`` changes.
        self._messages: Dict[int, WalkMessage] = {}
        self._messages_id = self.max_walk_id

    # -------------------------------------------------------------- #
    def initial_scatter(self, rng: random.Random) -> Dict[int, int]:
        """Distribute the candidate's ``x`` tokens to random ports.

        Non-candidates scatter nothing.  Returns per-port token counts.
        """
        self.scattered = True
        counts: Dict[int, int] = {}
        if not self.candidate or self.num_ports == 0:
            return counts
        for _ in range(self.config.walks_per_candidate):
            port = rng.randint(1, self.num_ports)
            counts[port] = counts.get(port, 0) + 1
        return counts

    def absorb(self, inbox: Inbox) -> None:
        """Merge received tokens and walk IDs into the local state."""
        for message in inbox.values():
            if not isinstance(message, WalkMessage):
                continue
            self.tokens += message.count
            self.tokens_seen += message.count
            if message.walk_id > self.max_walk_id:
                self.max_walk_id = message.walk_id

    def step(self, rng: random.Random, inbox: Inbox) -> Outbox:
        """One walk round: absorb, move, and emit the per-port messages.

        The inbox is merged inline with :meth:`absorb`'s semantics.  Then
        every held token flips its lazy coin; a mover's port is
        ``randint(1, n)`` drawn inline: the body of the stdlib's
        ``_randbelow`` for a ``random.Random``, so the RNG stream is the
        same (see the module's RNG contract).
        """
        if inbox:
            received = 0
            max_walk_id = self.max_walk_id
            for message in inbox.values():
                if isinstance(message, WalkMessage):
                    received += message.count
                    if message.walk_id > max_walk_id:
                        max_walk_id = message.walk_id
            self.tokens += received
            self.tokens_seen += received
            self.max_walk_id = max_walk_id
        self.rounds_executed += 1
        held = self.tokens
        n = self.num_ports
        if not self.scattered:
            outbox = self.initial_scatter(rng)
        elif held and n:
            outbox = {}
            k = self._port_bits
            coin = rng.random
            getrandbits = rng.getrandbits
            staying = 0
            for _ in range(held):
                if coin() < 0.5:
                    staying += 1
                else:
                    r = getrandbits(k)
                    while r >= n:
                        r = getrandbits(k)
                    port = r + 1
                    outbox[port] = outbox.get(port, 0) + 1
            self.tokens = staying
        else:
            return {}
        # Swap each port's token count in place for its reused message.
        walk_id = self.max_walk_id
        messages = self._messages
        if walk_id != self._messages_id:
            messages.clear()
            self._messages_id = walk_id
        for port, count in outbox.items():
            message = messages.get(count)
            if message is None:
                message = messages[count] = WalkMessage(walk_id, count)
            outbox[port] = message
        return outbox

    def summary(self) -> Dict[str, object]:
        return {
            "candidate": self.candidate,
            "node_id": self.node_id,
            "max_walk_id": self.max_walk_id,
            "tokens_held": self.tokens,
            "tokens_seen": self.tokens_seen,
            "rounds_executed": self.rounds_executed,
        }


class RandomWalkProbeNode(ProtocolNode):
    """Standalone protocol node running only the walk phase."""

    def __init__(
        self,
        num_ports: int,
        rng: random.Random,
        *,
        config: RandomWalkProbeConfig,
        candidate: bool,
        node_id: int,
    ) -> None:
        super().__init__(num_ports, rng)
        self.config = config
        self.state = RandomWalkProbeState(
            num_ports=num_ports,
            config=config,
            candidate=candidate,
            node_id=node_id,
        )
        self._halted = False

    @property
    def halted(self) -> bool:
        return self._halted

    def step(self, round_index: int, inbox: Inbox) -> Outbox:
        if round_index >= self.config.walk_rounds:
            self.state.absorb(inbox)
            self._halted = True
            return {}
        return self.state.step(self.rng, inbox)

    def result(self) -> Dict[str, object]:
        summary = self.state.summary()
        summary["halted"] = self._halted
        return summary
