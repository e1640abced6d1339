"""Cautious broadcast (Section 4, Algorithms 2–4).

A candidate grows a spanning tree of a bounded *territory* around itself:

* every tree node keeps a *confirmed* count of the nodes in its subtree and
  reports it to its parent whenever the count crosses the next power of two;
* growth (offering the source ID to a fresh random neighbour) is only
  allowed while a node's confirmed count is below its current threshold and
  the node is *active*; crossing a threshold doubles it, pauses the node and
  deactivates its children until the parent re-activates them;
* once the threshold reaches the territory cap ``x·t_mix·Φ`` the whole tree
  is stopped.

This "cautious" pacing is what bounds the number of messages to
``Õ(x·t_mix)`` while still informing ``Ω̃(x·t_mix·Φ)`` nodes w.h.p.
(Lemma 1).  The module provides

* :class:`CautiousBroadcastState` — the per-node, per-candidate state
  machine (exactly one candidate's broadcast);
* :class:`CautiousBroadcastNode` — a standalone protocol node running a
  single broadcast, used by unit tests and by the ablation benchmark;
* :class:`CautiousBroadcastManager` — the multiplexer that lets one node
  participate in many parallel broadcasts, serving at most one of them per
  round (the paper's super-round scheme), used by the composite
  irrevocable-election node.

Deviation from the literal pseudocode (documented in DESIGN.md): subtree
sizes are reported to the parent when they cross the node's current
threshold rather than in every round; this matches the prose description
and the message-complexity argument in Lemma 1 (a link carries O(1)
messages per threshold change), whereas the literal per-round reporting of
Algorithm 4 line 24 would inflate messages by a ``Θ(t_mix log n)`` factor.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Type, TypeVar

from ..core.errors import ConfigurationError, ProtocolError
from ..core.messages import Message
from ..core.node import Inbox, Outbox, ProtocolNode

__all__ = [
    "OfferMessage",
    "SizeMessage",
    "ActivateMessage",
    "DeactivateMessage",
    "StopMessage",
    "CautiousBroadcastConfig",
    "CautiousBroadcastState",
    "CautiousBroadcastNode",
    "CautiousBroadcastManager",
]

# --------------------------------------------------------------------------- #
# messages
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class OfferMessage(Message):
    """The source ID offered to a prospective child ("some ID")."""

    source_id: int


@dataclass(frozen=True)
class SizeMessage(Message):
    """Confirmed subtree size reported by a child to its parent."""

    source_id: int
    size: int


@dataclass(frozen=True)
class ActivateMessage(Message):
    """Re-activation prompt from a parent to a child."""

    source_id: int


@dataclass(frozen=True)
class DeactivateMessage(Message):
    """Deactivation prompt from a parent to a child."""

    source_id: int


@dataclass(frozen=True)
class StopMessage(Message):
    """Territory cap reached: stop the broadcast in the whole tree."""

    source_id: int


M = TypeVar("M", bound=Message)


@functools.lru_cache(maxsize=256)
def _instance_message(kind: Type[M], source_id: int) -> M:
    """The ``kind`` message of instance ``source_id``, built once and reused.

    Offers, activations, deactivations and stops carry nothing but the
    source ID, and messages are immutable values, so every node of a
    territory sends the same object.  The cache is bounded: an election
    has a few dozen ``(kind, source)`` pairs.
    """
    return kind(source_id)


# --------------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class CautiousBroadcastConfig:
    """Parameters of one cautious-broadcast execution.

    ``protocol_rounds`` is the per-instance round budget ``c·t_mix·log n``;
    ``territory_cap`` is the threshold ``x·t_mix·Φ`` at which the broadcast
    stops growing.
    """

    protocol_rounds: int
    territory_cap: float

    def __post_init__(self) -> None:
        if self.protocol_rounds < 1:
            raise ConfigurationError(
                f"protocol_rounds must be >= 1, got {self.protocol_rounds}"
            )
        if self.territory_cap < 1:
            raise ConfigurationError(
                f"territory_cap must be >= 1, got {self.territory_cap}"
            )

    @staticmethod
    def from_parameters(
        *,
        n: int,
        t_mix: int,
        conductance: float,
        walks_per_candidate: int,
        c: float = 2.0,
    ) -> "CautiousBroadcastConfig":
        """Build the config from the quantities the paper parameterises on."""
        if n < 1 or t_mix < 1 or conductance <= 0:
            raise ConfigurationError(
                f"invalid parameters n={n}, t_mix={t_mix}, conductance={conductance}"
            )
        log_n = max(1.0, math.log(n))
        rounds = max(1, math.ceil(c * t_mix * log_n))
        cap = max(2.0, walks_per_candidate * t_mix * conductance)
        return CautiousBroadcastConfig(protocol_rounds=rounds, territory_cap=cap)


# --------------------------------------------------------------------------- #
# per-instance state machine
# --------------------------------------------------------------------------- #

ACTIVE = "active"
PASSIVE = "passive"
STOPPED = "stop"


class CautiousBroadcastState:
    """State of one node in one candidate's cautious broadcast."""

    def __init__(
        self,
        *,
        num_ports: int,
        config: CautiousBroadcastConfig,
        source_id: int,
        is_source: bool,
    ) -> None:
        self.config = config
        self.source_id = source_id
        self.is_source = is_source
        self.joined = is_source
        self.parent_port: Optional[int] = None
        self.children: Set[int] = set()
        self.child_size: Dict[int, int] = {}
        self.child_active: Dict[int, bool] = {}
        self.avail: Set[int] = set(range(1, num_ports + 1))
        self.status = ACTIVE if is_source else PASSIVE
        self.threshold = 1
        self.rounds_executed = 0
        self.stop_notified = False
        self._size_reported = 0  # last size value sent to the parent
        self._confirmed = 1  # running 1 + sum(child_size.values())

    # -------------------------------------------------------------- #
    # receptions (Algorithm 3)
    # -------------------------------------------------------------- #
    def handle_message(self, port: int, message: Message) -> None:
        """Process one received message belonging to this instance."""
        # A port we heard from is no longer available for fresh offers.
        self.avail.discard(port)

        # Offers, the most common kind, are tested first.  The source is
        # joined from the start, so it ignores them.
        if isinstance(message, OfferMessage):
            if not self.joined:
                self.joined = True
                self.parent_port = port
                self.status = ACTIVE
            return
        if isinstance(message, StopMessage):
            self.status = STOPPED
            return
        if isinstance(message, SizeMessage):
            # A size report means the child just crossed a threshold and
            # paused itself; it stays paused until this node re-activates it
            # from its growth branch (the "re-activation prompt").
            self._confirmed += message.size - self.child_size.get(port, 0)
            self.child_size[port] = message.size
            self.child_active[port] = False
            self.children.add(port)
            return
        if self.is_source:
            # The source ignores activation prompts.
            return
        if isinstance(message, ActivateMessage):
            if self.status != STOPPED:
                self.status = ACTIVE
            return
        if isinstance(message, DeactivateMessage):
            if self.status != STOPPED:
                self.status = PASSIVE
            return
        raise ProtocolError(
            f"unexpected cautious-broadcast message {type(message).__name__}"
        )

    # -------------------------------------------------------------- #
    # transmissions (Algorithm 4)
    # -------------------------------------------------------------- #
    def confirmed_subtree_size(self) -> int:
        """This node plus the confirmed sizes reported by its children."""
        return self._confirmed

    @property
    def exhausted(self) -> bool:
        """Whether the per-instance round budget has been used up."""
        return self.rounds_executed >= self.config.protocol_rounds

    def prepare_transmissions(self, rng: random.Random) -> Outbox:
        """One protocol round of Algorithm 4 for this instance."""
        if not self.joined or self.rounds_executed >= self.config.protocol_rounds:
            return {}
        self.rounds_executed += 1
        outbox: Outbox = {}

        if self.threshold >= self.config.territory_cap:
            self.status = STOPPED

        if self.status == STOPPED:
            if not self.stop_notified:
                stop = _instance_message(StopMessage, self.source_id)
                for port in self.children:
                    outbox[port] = stop
                if not self.is_source and self.parent_port is not None:
                    outbox[self.parent_port] = stop
                self.stop_notified = True
            return outbox

        subtree = self._confirmed

        if subtree < self.threshold and self.status == ACTIVE:
            # Growth mode: re-activate children, then probe one fresh port.
            for port in self.children:
                if not self.child_active.get(port, False):
                    outbox[port] = _instance_message(ActivateMessage, self.source_id)
                    self.child_active[port] = True
            fresh = self._pick_available_port(rng, exclude=outbox)
            if fresh is not None:
                outbox[fresh] = _instance_message(OfferMessage, self.source_id)
        elif subtree >= self.threshold:
            # The confirmed count crossed the threshold: report upward,
            # double the threshold, pause the subtree.
            if not self.is_source and self.parent_port is not None:
                outbox[self.parent_port] = SizeMessage(self.source_id, subtree)
                self._size_reported = subtree
            self.threshold *= 2
            if not self.is_source:
                self.status = PASSIVE
            for port in self.children:
                if self.child_active.get(port, False):
                    outbox.setdefault(
                        port, _instance_message(DeactivateMessage, self.source_id)
                    )
                    self.child_active[port] = False
        return outbox

    def _pick_available_port(
        self, rng: random.Random, *, exclude: Outbox
    ) -> Optional[int]:
        avail = self.avail
        candidates = sorted(avail.difference(exclude) if exclude else avail)
        if not candidates:
            return None
        port = rng.choice(candidates)
        avail.discard(port)
        return port

    def quiescent(self) -> bool:
        """Whether :meth:`prepare_transmissions` is a guaranteed no-op.

        True only when every future call — until a message is received —
        would return an empty outbox, draw nothing from the RNG and leave
        the instance's observable behaviour unchanged.  ``rounds_executed``
        may drift: the event-driven simulator backend skips the calls of
        quiescent instances, both when the whole node sleeps and when the
        node wakes only for the slots of its busy sibling instances.  The
        drift is harmless because ``rounds_executed`` only feeds
        ``exhausted``: a super-round schedule gives an instance at most
        ``protocol_rounds`` slots per phase, so ``exhausted`` can flip no
        earlier than the instance's final in-phase slot, after which it is
        never served again.

        Computed afresh on each call: the manager's busy-slot index asks
        only after :meth:`handle_message` or :meth:`prepare_transmissions`
        changed the instance, so a stored answer would never be read twice.
        """
        if not self.joined or self.rounds_executed >= self.config.protocol_rounds:
            return True
        if self.threshold >= self.config.territory_cap and self.status != STOPPED:
            return False  # next step transitions to STOPPED and notifies
        if self.status == STOPPED:
            return self.stop_notified
        if self._confirmed >= self.threshold:
            return False  # next step reports upward and doubles the threshold
        if self.status != ACTIVE:
            return True  # passive below threshold: nothing to do
        child_active = self.child_active
        for port in self.children:
            if not child_active.get(port, False):
                return False  # next step re-activates children
        return not self.avail  # growth only possible with a fresh port left

    # -------------------------------------------------------------- #
    # inspection
    # -------------------------------------------------------------- #
    def summary(self) -> Dict[str, object]:
        return {
            "source_id": self.source_id,
            "is_source": self.is_source,
            "joined": self.joined,
            "parent_port": self.parent_port,
            "children": sorted(self.children),
            "status": self.status,
            "threshold": self.threshold,
            "confirmed_size": self.confirmed_subtree_size(),
            "rounds_executed": self.rounds_executed,
        }


# --------------------------------------------------------------------------- #
# standalone single-broadcast node
# --------------------------------------------------------------------------- #


class CautiousBroadcastNode(ProtocolNode):
    """A protocol node running exactly one cautious broadcast.

    Used on its own for unit tests and for the ablation benchmark that
    compares cautious broadcast against unrestricted flooding; the full
    election embeds the same state machine through
    :class:`CautiousBroadcastManager`.
    """

    def __init__(
        self,
        num_ports: int,
        rng: random.Random,
        *,
        config: CautiousBroadcastConfig,
        is_source: bool,
        source_id: int = 1,
    ) -> None:
        super().__init__(num_ports, rng)
        self.config = config
        self.state = CautiousBroadcastState(
            num_ports=num_ports,
            config=config,
            source_id=source_id,
            is_source=is_source,
        )
        self._halted = False

    @property
    def halted(self) -> bool:
        return self._halted

    def step(self, round_index: int, inbox: Inbox) -> Outbox:
        for port, message in inbox.items():
            self.state.handle_message(port, message)
        if round_index >= self.config.protocol_rounds:
            self._halted = True
            return {}
        return self.state.prepare_transmissions(self.rng)

    def result(self) -> Dict[str, object]:
        summary = self.state.summary()
        summary["halted"] = self._halted
        return summary


# --------------------------------------------------------------------------- #
# multiplexer for parallel broadcasts (the super-round scheme)
# --------------------------------------------------------------------------- #


class CautiousBroadcastManager:
    """Multiplexes the parallel cautious broadcasts a node participates in.

    Each node assigns the executions it knows about to the slots of a
    super-round in discovery order, exactly one execution transmitting per
    round (the paper's scheme, Section 4).  Receptions are processed in any
    round because they are purely local.

    A busy-slot index keeps :meth:`next_busy_round` from scanning every
    slot: it holds the positions whose instance was not quiescent when last
    checked, and only the positions that :meth:`handle_inbox` or
    :meth:`transmissions_for_slot` touched since are checked again, each by
    one fresh :meth:`CautiousBroadcastState.quiescent` call.
    """

    def __init__(
        self,
        *,
        num_ports: int,
        config: CautiousBroadcastConfig,
        num_slots: int,
    ) -> None:
        if num_slots < 1:
            raise ConfigurationError(f"num_slots must be >= 1, got {num_slots}")
        self.num_ports = num_ports
        self.config = config
        self.num_slots = num_slots
        self._states: Dict[int, CautiousBroadcastState] = {}
        #: ``_slots[s]`` is the instance served in slot ``s``: the first
        #: ``num_slots`` instances in discovery order.
        self._slots: List[CautiousBroadcastState] = []
        #: source ID -> slot position, for the instances that have one.
        self._position: Dict[int, int] = {}
        #: Positions whose instance was busy (not quiescent) when checked.
        self._busy: Set[int] = set()
        #: Positions whose instance may have changed since it was checked.
        self._touched: Set[int] = set()
        self.overflow_instances = 0

    # -------------------------------------------------------------- #
    def add_source_instance(self, source_id: int) -> CautiousBroadcastState:
        """Register this node as the source (candidate) of an instance."""
        return self._register(source_id, is_source=True)

    def _register(self, source_id: int, *, is_source: bool) -> CautiousBroadcastState:
        """Create this node's state in instance ``source_id``; give it a slot."""
        if source_id in self._states:
            raise ProtocolError(f"instance {source_id} registered twice")
        state = self._states[source_id] = CautiousBroadcastState(
            num_ports=self.num_ports,
            config=self.config,
            source_id=source_id,
            is_source=is_source,
        )
        if len(self._slots) < self.num_slots:
            position = len(self._slots)
            self._slots.append(state)
            self._position[source_id] = position
            self._touched.add(position)
        else:
            # More parallel executions than slots: the paper shows this does
            # not happen w.h.p.; we keep counting so experiments can verify.
            # An overflow instance is never served.
            self.overflow_instances += 1
        return state

    # -------------------------------------------------------------- #
    def handle_inbox(self, inbox: Inbox) -> None:
        """Route received broadcast messages to their instances."""
        states = self._states
        positions = self._position
        touched = self._touched
        for port, message in inbox.items():
            source_id = getattr(message, "source_id", None)
            if source_id is None:
                raise ProtocolError(
                    f"cautious-broadcast manager received foreign message "
                    f"{type(message).__name__}"
                )
            state = states.get(source_id)
            if state is None:  # the first message of an unknown instance
                state = self._register(source_id, is_source=False)
            state.handle_message(port, message)
            position = positions.get(source_id)
            if position is not None:
                touched.add(position)

    def transmissions_for_slot(self, slot: int, rng: random.Random) -> Outbox:
        """Transmissions of the instance assigned to ``slot`` (may be empty)."""
        if slot < 0 or slot >= self.num_slots:
            raise ProtocolError(f"slot {slot} out of range 0..{self.num_slots - 1}")
        if slot >= len(self._slots):
            return {}
        if slot not in self._busy and slot not in self._touched:
            return {}  # quiescent when checked, unchanged since: not served
        self._touched.add(slot)
        return self._slots[slot].prepare_transmissions(rng)

    def next_busy_round(self, round_index: int) -> Optional[int]:
        """First round ``>= round_index`` whose slot serves a busy instance.

        A round's slot is ``round % num_slots``; an instance is busy while
        it is not :meth:`~CautiousBroadcastState.quiescent`.  Returns
        ``None`` when every served instance is quiescent, i.e. every slot
        is a no-op until a message arrives.

        Only :meth:`handle_inbox` and :meth:`transmissions_for_slot` may
        mutate the served instances: the busy-slot index re-checks just the
        positions those two touched since the previous query.
        """
        busy = self._busy
        if self._touched:
            slots = self._slots
            for position in self._touched:
                if slots[position].quiescent():
                    busy.discard(position)
                else:
                    busy.add(position)
            self._touched.clear()
        if not busy:
            return None
        num_slots = self.num_slots
        slot = round_index % num_slots
        wait = num_slots
        for position in busy:
            gap = (position - slot) % num_slots
            if gap < wait:
                wait = gap
        return round_index + wait

    # -------------------------------------------------------------- #
    # inspection used by the later election phases and by analysis
    # -------------------------------------------------------------- #
    def joined_instances(self) -> List[int]:
        """Source IDs of the territories this node belongs to."""
        return [sid for sid, state in self._states.items() if state.joined]

    def parent_ports(self) -> Set[int]:
        """Distinct parent ports over all joined (non-source) instances."""
        return {
            state.parent_port
            for state in self._states.values()
            if state.joined and not state.is_source and state.parent_port is not None
        }

    def instance_count(self) -> int:
        return len(self._states)

    def state(self, source_id: int) -> CautiousBroadcastState:
        return self._states[source_id]

    def summaries(self) -> List[Dict[str, object]]:
        return [state.summary() for state in self._states.values()]
