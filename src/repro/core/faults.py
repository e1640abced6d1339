"""Core fault-adversary API: the simulator's delivery hook.

The paper's execution model (Section 2) is static and reliable: every
message sent in round ``r`` arrives at the start of round ``r+1``.  The
:mod:`repro.dynamics` subsystem perturbs exactly that step.  This module
defines the *contract* between the simulator and an adversary — the
concrete adversary models live in :mod:`repro.dynamics.adversaries` so the
core keeps no dependency on the higher layers.

An adversary sees every (sender, port, receiver, port, message) delivery
attempt and rules on it:

* :data:`DELIVER` (``0``) — deliver normally next round;
* :data:`DROP` (``-1``) — the message is lost;
* any positive integer ``d`` — the message is delayed by ``d`` extra
  rounds (it arrives at the start of round ``r + 1 + d``).

It can additionally mark nodes as inactive (crash-stop): an inactive node
is not stepped and everything addressed to it is droppable by the
adversary's own :meth:`~FaultAdversary.on_message`.

Determinism contract
--------------------

Adversaries must be deterministic functions of the run seed they were
constructed with: the simulator calls the hooks in a fixed order (nodes by
index, outbox ports in insertion order), so an adversary that draws all
randomness from a seed-derived private RNG perturbs a run identically in
every process — which is what keeps adversarial sweeps bit-identical
between the serial and parallel experiment backends.

The event core calls the round hooks (``begin_round``, ``node_active``,
``node_crashed``) only in rounds it executes.  It may skip a round in which
no node is due and no message is in flight only while the adversary's
:meth:`~FaultAdversary.quiescent_until` horizon lies beyond that round: the
adversary thereby promises that its round hooks would draw no randomness,
record no metric or trace event and change no state there.  The default
horizon is the round itself, so an adversary that does not opt in sees
every round, exactly as under the round core.

The *ambient fault scope* lets experiment drivers attach an adversary to
protocol entry points that build their own simulators internally
(``run_flooding_election`` and friends): inside ``fault_scope(factory)``
every :class:`~repro.core.simulator.SynchronousSimulator` constructed
without an explicit ``adversary`` asks ``factory()`` for one.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..graphs.topology import Topology
    from .messages import Message
    from .metrics import MetricsCollector
    from .tracing import TraceRecorder

__all__ = [
    "DELIVER",
    "DROP",
    "QUIET_FOREVER",
    "FaultAdversary",
    "fault_scope",
    "active_fault_factory",
]

#: Verdicts of :meth:`FaultAdversary.on_message`.
DELIVER = 0
DROP = -1

#: A :meth:`FaultAdversary.quiescent_until` horizon no run reaches: the
#: round hooks never act.
QUIET_FOREVER = 1 << 62


class FaultAdversary:
    """Base class (and null object) for delivery-step adversaries.

    Subclasses override the hooks they need; the defaults perturb nothing,
    so the base class doubles as a no-op adversary in tests.
    """

    #: Registry / reporting name of the model.
    name: str = "null"

    def __init__(self) -> None:
        self.topology: Optional["Topology"] = None
        self.metrics: Optional["MetricsCollector"] = None
        self.trace: Optional["TraceRecorder"] = None

    def attach(
        self,
        topology: "Topology",
        metrics: "MetricsCollector",
        trace: "TraceRecorder",
    ) -> None:
        """Bind the adversary to one simulator instance.

        Called by :class:`~repro.core.simulator.SynchronousSimulator` at
        construction.  Adversaries may use ``metrics.record_event`` and
        ``trace.record`` for model-specific fault accounting (the simulator
        itself counts dropped/delayed messages); overrides must call
        ``super().attach(...)``.
        """
        self.topology = topology
        self.metrics = metrics
        self.trace = trace

    # ------------------------------------------------------------------ #
    # hooks, called by the simulator
    # ------------------------------------------------------------------ #
    def begin_round(self, round_index: int) -> None:
        """Called once at the start of every round, before nodes step."""

    def node_active(self, round_index: int, node: int) -> bool:
        """Whether ``node`` participates in ``round_index`` (crash-stop)."""
        return True

    def node_crashed(self, round_index: int, node: int) -> bool:
        """Whether ``node`` is *permanently* gone as of ``round_index``.

        Distinct from :meth:`node_active`: a node may be temporarily
        inactive (frozen) yet come back, in which case this must stay
        ``False``.  The simulator uses this hook to terminate a run early
        once every node has either halted or crashed for good and no
        delayed message is still in flight — without it, crash-stop runs
        spin empty rounds to ``max_rounds``.
        """
        return False

    def on_message(
        self,
        round_index: int,
        sender: int,
        sender_port: int,
        receiver: int,
        receiver_port: int,
        message: "Message",
    ) -> int:
        """Rule on one delivery attempt: :data:`DELIVER`, :data:`DROP`, or a delay."""
        return DELIVER

    def quiescent_until(self, round_index: int) -> int:
        """First round at or after ``round_index`` whose round hooks may act.

        The counterpart of :meth:`~repro.core.node.ProtocolNode.quiescent_until`.
        Returning ``r > round_index`` asserts that for every round in
        ``[round_index, r)`` the hooks :meth:`begin_round`,
        :meth:`node_active` and :meth:`node_crashed` would draw no
        randomness, record no metric or trace event, change no state, and
        that :meth:`node_active` would return ``True`` and
        :meth:`node_crashed` ``False``.  The event core may then skip such
        rounds when no node is due and no delayed message is in flight.
        :meth:`on_message` is not covered: a skipped round sends nothing.

        The default returns ``round_index`` (never quiescent), so an
        adversary that does not opt in keeps the event core stepping every
        round, like the round core.  Models that act only in
        :meth:`on_message` return :data:`QUIET_FOREVER`.
        """
        return round_index

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, Any]:
        """Model name + parameters, for run records and reports."""
        return {"name": self.name}


#: The zero-arg factory producing a fresh adversary per simulator built
#: in the current context, or ``None`` (see ``fault_scope``).
_FAULT_FACTORY: ContextVar[Optional[Callable[[], FaultAdversary]]] = ContextVar(
    "fault_factory", default=None
)


def active_fault_factory() -> Optional[Callable[[], FaultAdversary]]:
    """The innermost ambient adversary factory, or ``None``."""
    return _FAULT_FACTORY.get()


@contextmanager
def fault_scope(factory: Callable[[], FaultAdversary]) -> Iterator[None]:
    """Attach ``factory`` to every simulator constructed inside the scope.

    Each simulator calls ``factory()`` once, so phase-structured protocols
    that build several simulators per run get a fresh adversary instance
    (with the same seed-derived schedule) per phase.  Scopes nest and the
    innermost wins.  A scope is context-local: the thread that opened it
    sees it, and no other thread does, so concurrent runs never share an
    adversary.
    """
    token = _FAULT_FACTORY.set(factory)
    try:
        yield
    finally:
        _FAULT_FACTORY.reset(token)
