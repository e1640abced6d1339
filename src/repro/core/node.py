"""Protocol node abstraction for the synchronous anonymous-network model.

A protocol node is *anonymous*: it does not know its own index in the
network, it only knows how many ports (communication links) it has, numbered
``1..num_ports``, exactly as in the paper's model (Section 2).  Everything
else the node knows must be passed in explicitly through its configuration —
e.g. the algorithms of Section 4 receive (linear upper bounds on) the
network size ``n``, the mixing time ``t_mix`` and the conductance ``Φ``,
while the blind protocol of Section 5.2 receives nothing at all.

The simulator drives nodes with :meth:`ProtocolNode.step`: once per
synchronous round it hands each node the messages received through its
ports during the previous round and collects the messages the node wants to
transmit in this round, as a mapping ``port -> message``.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Dict, Mapping, Optional

from .messages import Message

__all__ = ["Inbox", "Outbox", "ProtocolNode", "PassiveNode"]

#: Messages received in a round, keyed by the local port they arrived on.
Inbox = Mapping[int, Message]

#: Messages to transmit in a round, keyed by the local port to send through.
Outbox = Dict[int, Message]


class ProtocolNode(ABC):
    """Base class for all protocol implementations.

    Parameters
    ----------
    num_ports:
        Number of incident links, i.e. the degree of the node.  Ports are
        numbered ``1..num_ports``.  Fixed after construction: the
        simulator reads it once per run.
    rng:
        Private source of randomness for this node.  All protocol decisions
        must draw from it (never from the global ``random`` module) so that
        executions are reproducible from the experiment seed.
    """

    def __init__(self, num_ports: int, rng: random.Random) -> None:
        if num_ports < 0:
            raise ValueError(f"num_ports must be non-negative, got {num_ports}")
        self.num_ports = num_ports
        self.rng = rng

    # ------------------------------------------------------------------ #
    # the synchronous-round interface
    # ------------------------------------------------------------------ #
    @abstractmethod
    def step(self, round_index: int, inbox: Inbox) -> Outbox:
        """Execute one synchronous round.

        ``round_index`` starts at 0.  ``inbox`` holds the messages that
        were transmitted to this node in round ``round_index - 1`` (empty
        in round 0).  The return value maps ports to the messages to send
        in this round; at most one message per port (CONGEST).

        The ``inbox`` mapping is only valid for the duration of this call:
        the simulator recycles inbox containers between rounds, so
        implementations that need received messages later must copy them
        (``dict(inbox)``), never store the mapping itself.
        """

    @property
    def halted(self) -> bool:
        """Whether the node has terminated its protocol.

        Irrevocable protocols eventually halt at every node; revocable
        protocols may run forever (the simulator then stops at its round
        limit).  A halted node is no longer stepped, and its last outbox is
        assumed empty.  The flag may change only inside :meth:`step`: the
        simulator reads it once per run and again after each step.
        """
        return False

    def result(self) -> Dict[str, Any]:
        """Protocol-specific outcome of this node (flags, IDs, estimates).

        The default is an empty mapping; election protocols override it to
        expose at least ``{"leader": bool}``.
        """
        return {}

    def quiescent_until(self, round_index: int) -> int:
        """First round at or after ``round_index`` this node may act in.

        The event-driven simulator backend skips a node's steps while it is
        *quiescent*.  Returning a round ``r > round_index`` asserts that for
        every round in ``[round_index, r)`` a step with an **empty** inbox
        would return an empty outbox, draw nothing from ``self.rng`` and
        change no observable state — i.e. the step is a no-op the backend
        may elide.  An arriving message always wakes the node regardless of
        the declared horizon.  The declaration is re-queried after every
        executed step that leaves the node with no messages delivered for
        the next round (a node with messages waiting is due then anyway,
        and is asked after that step), so it must depend on the node's
        state alone, not on when or how often it is asked.

        The default returns ``round_index`` (never quiescent), which keeps
        the event backend bit-identical to the round backend for protocols
        that do not opt in.
        """
        return round_index

    # ------------------------------------------------------------------ #
    # small conveniences shared by protocol implementations
    # ------------------------------------------------------------------ #
    def ports(self) -> range:
        """All local port numbers, ``1..num_ports``."""
        return range(1, self.num_ports + 1)

    def random_port(self) -> int:
        """A port chosen uniformly at random (requires ``num_ports >= 1``)."""
        if self.num_ports == 0:
            raise ValueError("node has no ports")
        return self.rng.randint(1, self.num_ports)


class PassiveNode(ProtocolNode):
    """A node that never transmits and never halts.

    Useful as a placeholder in tests and as a building block for
    experiments that only exercise part of a network.
    """

    def step(self, round_index: int, inbox: Inbox) -> Outbox:  # noqa: D401
        self.last_inbox = dict(inbox)
        return {}

    def result(self) -> Dict[str, Any]:
        return {"passive": True}
