"""Round-synchronous CONGEST simulator.

The simulator realises the paper's execution model (Section 2):

* time is slotted into globally synchronous rounds;
* in each round every node may send at most one message through each of its
  ports, and the message should fit in ``O(log n)`` bits (optionally
  enforced);
* messages sent in round ``r`` are delivered at the start of round ``r+1``;
* local computation is free — we only count rounds, messages and bits.

Nodes are :class:`~repro.core.node.ProtocolNode` instances, one per vertex
of a :class:`~repro.graphs.topology.Topology`.  The simulator never reveals
node indices to the protocol code; the only interface between neighbours is
the port-numbered message exchange.

Backends
--------

One run loop drives both cores; they differ only in which nodes are *due*
in a round:

* ``"round"`` — the reference semantics: every live (non-halted) node is
  due every round and no round is skipped.
* ``"event"`` — the fast core: a node is due when its inbox is non-empty
  or its declared quiescence horizon
  (:meth:`~repro.core.node.ProtocolNode.quiescent_until`) has been
  reached.  Horizons beyond the next round sit in a ``(wake, index)``
  heap whose stale entries are dropped lazily, delivery records the set
  of receivers, and a counter tracks the live nodes, so a round costs
  O(due nodes) rather than O(n).
  Rounds in which **no** node is due, the adversary (if any) is quiet
  (:meth:`~repro.core.faults.FaultAdversary.quiescent_until`) and no
  delayed message is in flight are fast-forwarded to the earliest wakeup
  or the end of the adversary's quiet stretch, whichever comes first, in
  O(1).

Due nodes are stepped in ascending index order under both cores, so inbox
insertion order and every adversary RNG draw follow the same sequence.
Because quiescence is opt-in and declared only for provably no-op steps,
the two backends produce bit-identical metrics, traces and results; the
event backend is simply faster on workloads with long quiet stretches, and
the round backend stays the equivalence oracle.  ``backend="auto"`` (the
default) resolves through the ambient backend scope
(:func:`backend_scope` / :func:`set_default_backend`) and falls back to
the event core.
"""

from __future__ import annotations

import heapq
import random
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..graphs.topology import Topology
from .errors import CongestViolationError, SimulationError
from .faults import DELIVER, QUIET_FOREVER, FaultAdversary, active_fault_factory
from .messages import Message, congest_budget_bits
from .metrics import Metrics, MetricsCollector
from .node import Outbox, ProtocolNode
from .rng import spawn_child_rngs
from .tracing import NullTraceRecorder, TraceRecorder, active_trace

__all__ = [
    "BACKENDS",
    "SimulationResult",
    "SynchronousSimulator",
    "backend_scope",
    "build_nodes",
    "default_backend",
    "run_protocol",
    "set_default_backend",
]

#: Factory signature: ``factory(index, num_ports, rng) -> ProtocolNode``.
NodeFactory = Callable[[int, int, random.Random], ProtocolNode]

#: Valid values for the ``backend`` argument / ambient backend default.
BACKENDS = ("auto", "round", "event")

#: ``wake`` entry of a node due next round whose horizon ``_run`` has not
#: asked since its last step (see ``_run``).
_UNASKED = -2

#: The backend ``"auto"`` resolves to in the current context (see
#: ``backend_scope`` and ``set_default_backend``).
_BACKEND: ContextVar[str] = ContextVar("backend", default="auto")


def _check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise SimulationError(
            f"unknown simulator backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def set_default_backend(backend: str) -> None:
    """Set the backend used when simulators in this context pass ``"auto"``.

    The parallel experiment engine calls this in its pool initializer so
    a ``--backend`` choice reaches worker processes, whose initializer
    and tasks run in the same (main) thread; ``"auto"`` restores the
    built-in resolution (event core).  The setting is context-local:
    threads started elsewhere do not see it.
    """
    _BACKEND.set(_check_backend(backend))


def default_backend() -> str:
    """The backend an ``"auto"`` simulator would resolve to right now."""
    backend = _BACKEND.get()
    return "event" if backend == "auto" else backend


@contextmanager
def backend_scope(backend: str) -> Iterator[None]:
    """Route every ``backend="auto"`` simulator in the scope to ``backend``.

    Mirrors :func:`~repro.core.faults.fault_scope`: protocol entry points
    construct their own simulators internally, so experiment drivers select
    a backend ambiently rather than threading an argument through every
    protocol signature.  Scopes nest; the innermost wins.  A scope is
    context-local: the thread that opened it sees it, and no other thread
    does.  Checkpoint task keys never include the backend — both cores
    produce bit-identical results, so records are interchangeable between
    them.
    """
    token = _BACKEND.set(_check_backend(backend))
    try:
        yield
    finally:
        _BACKEND.reset(token)


@dataclass
class SimulationResult:
    """Outcome of a simulator run.

    ``rounds_executed`` counts the rounds executed by the :meth:`~SynchronousSimulator.run`
    call that produced this result; ``total_rounds`` is the simulator's
    lifetime round counter.  The two differ when ``run`` is invoked more
    than once on the same simulator (phase-structured protocols).
    """

    nodes: List[ProtocolNode]
    metrics: Metrics
    rounds_executed: int
    all_halted: bool
    topology: Topology
    trace: Optional[TraceRecorder] = None
    node_results: List[Dict[str, object]] = field(default_factory=list)
    total_rounds: int = 0

    def results(self) -> List[Dict[str, object]]:
        """Per-node protocol results (cached at the end of the run)."""
        if not self.node_results:
            self.node_results = [node.result() for node in self.nodes]
        return self.node_results


def _hook(adversary: Optional[FaultAdversary], name: str) -> Optional[Callable]:
    """``adversary``'s round hook ``name``, or ``None`` if it has no effect.

    A hook has no effect when there is no adversary or its class keeps the
    :class:`~repro.core.faults.FaultAdversary` no-op, so the run loop need
    not call it.
    """
    if adversary is None:
        return None
    if getattr(type(adversary), name) is getattr(FaultAdversary, name):
        return None
    return getattr(adversary, name)


def build_nodes(
    topology: Topology,
    factory: NodeFactory,
    seed: Optional[int] = None,
) -> List[ProtocolNode]:
    """Instantiate one protocol node per vertex with independent RNGs.

    The factory receives the node index purely so that callers can build
    heterogeneous networks in tests; protocol implementations themselves
    must not use it (anonymity).
    """
    rngs = spawn_child_rngs(seed, topology.num_nodes)
    nodes: List[ProtocolNode] = []
    for index in range(topology.num_nodes):
        node = factory(index, topology.degree(index), rngs[index])
        nodes.append(node)
    return nodes


class SynchronousSimulator:
    """Drives a set of protocol nodes over a topology, round by round."""

    def __init__(
        self,
        topology: Topology,
        nodes: Sequence[ProtocolNode],
        *,
        metrics: Optional[MetricsCollector] = None,
        trace: Optional[TraceRecorder] = None,
        enforce_congest: bool = False,
        congest_bits: Optional[int] = None,
        count_bits: bool = True,
        adversary: Optional[FaultAdversary] = None,
        backend: str = "auto",
    ) -> None:
        if len(nodes) != topology.num_nodes:
            raise SimulationError(
                f"expected {topology.num_nodes} nodes, got {len(nodes)}"
            )
        for index, node in enumerate(nodes):
            if node.num_ports != topology.degree(index):
                raise SimulationError(
                    f"node {index} has {node.num_ports} ports but degree "
                    f"{topology.degree(index)} in the topology"
                )
        _check_backend(backend)
        self.backend = default_backend() if backend == "auto" else backend
        self.topology = topology
        self.nodes = list(nodes)
        self.metrics = metrics if metrics is not None else MetricsCollector()
        # Explicit trace= wins; otherwise an ambient trace_scope recorder
        # (the route into registry-driven runs, e.g. `elect --trace`);
        # otherwise the no-op recorder.
        if trace is None:
            trace = active_trace()
        self.trace = trace if trace is not None else NullTraceRecorder()
        self.enforce_congest = enforce_congest
        self.count_bits = count_bits
        self._congest_bits = (
            congest_bits
            if congest_bits is not None
            else congest_budget_bits(topology.num_nodes)
        )
        self._round = 0
        # _endpoints[u][p] == (neighbour, neighbour_port), built once; the
        # delivery lookup is the port check (a bad port raises KeyError).
        self._endpoints = [dict(enumerate(row, 1)) for row in topology.endpoint_table()]
        # Inboxes are reused: after a round's steps the receivers' inboxes
        # are cleared and refilled with that round's traffic instead of
        # allocating n fresh dicts per round.  Consequently an inbox dict
        # handed to ``node.step`` is only valid for the duration of that
        # call; nodes must copy anything they keep.
        self._inboxes: List[Dict[int, Message]] = [
            {} for _ in range(topology.num_nodes)
        ]
        #: Indices of the nodes whose inbox is non-empty (each listed once),
        #: recorded by delivery; only these inboxes are ever cleared.
        self._receivers: List[int] = []
        # Fault injection (repro.dynamics): an explicit adversary wins;
        # otherwise the ambient fault scope supplies one, so experiment
        # drivers can perturb protocol entry points that construct their
        # own simulators.  ``None`` keeps the delivery loop on the
        # unperturbed hot path.
        if adversary is None:
            factory = active_fault_factory()
            if factory is not None:
                adversary = factory()
        self._adversary = adversary
        #: arrival round -> [(receiver, receiver_port, message), ...]
        self._delayed: Dict[int, List[Tuple[int, int, Message]]] = {}
        if adversary is not None:
            adversary.attach(self.topology, self.metrics, self.trace)

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def current_round(self) -> int:
        """Index of the next round to execute."""
        return self._round

    @property
    def congest_bits(self) -> int:
        """Per-message bit budget used for CONGEST validation."""
        return self._congest_bits

    @property
    def adversary(self) -> Optional[FaultAdversary]:
        """The fault adversary perturbing deliveries, if any."""
        return self._adversary

    def all_halted(self) -> bool:
        return all(node.halted for node in self.nodes)

    def pending_delayed(self) -> int:
        """Number of adversary-delayed messages still in flight.

        These are counted in ``sent_messages`` (and ``delayed_messages``)
        but in neither ``delivered_messages`` nor ``dropped_messages`` yet:
        they close the conservation identity ``sent == delivered + dropped
        + pending`` for runs that end with traffic still queued.  The queue
        is keyed by absolute arrival round, so a subsequent :meth:`run`
        call on the same simulator keeps draining it.
        """
        return sum(len(batch) for batch in self._delayed.values())

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run_round(self) -> None:
        """Execute one synchronous round (none once every node has halted)."""
        self._run(1)

    def _deliver_and_finish(
        self,
        round_index: int,
        senders: List[Tuple[int, Outbox]],
        tally: List[int],
    ) -> None:
        """Deliver this round's outboxes and close the round.

        The inboxes consumed this round are cleared first, then refilled
        with this round's traffic, which is added to ``tally``.  A bad port
        raises :class:`SimulationError` before the round commits.  Round
        state is committed *before* any CONGEST enforcement error is raised:
        the violating message is withheld (never placed in an inbox),
        everything else delivers and the round counter advances — so a
        caller that catches :class:`CongestViolationError` observes a
        consistent simulator.
        """
        inboxes = self._inboxes
        for index in self._receivers:
            inboxes[index].clear()
        receivers: List[int] = []
        plain = self._adversary is None
        deliver = self._deliver_plain if plain else self._deliver_with_adversary
        try:
            violation = deliver(round_index, senders, receivers, tally)
        except KeyError:  # an endpoint lookup missed: name the bad port
            for index, outbox in senders:
                self._validate_outbox(index, outbox)
            raise
        self._receivers = receivers
        self._round += 1
        if violation is not None:
            index, port, bits = violation
            raise CongestViolationError(
                f"node {index} sent {bits} bits through port {port} "
                f"in round {round_index} (budget {self._congest_bits})"
            )

    def _deliver_plain(
        self,
        round_index: int,
        senders: List[Tuple[int, Outbox]],
        receivers: List[int],
        tally: List[int],
    ) -> Optional[Tuple[int, int, int]]:
        """Unperturbed delivery hot path: kept free of per-message branches.

        Returns the first enforced CONGEST violation as ``(sender, port,
        bits)``, or ``None``.  Violating messages are always counted (the
        sender paid for them); under enforcement they are withheld from the
        receiver and counted as dropped.  Every node whose inbox goes from
        empty to non-empty is appended to ``receivers``.
        """
        inboxes = self._inboxes
        endpoints = self._endpoints
        congest_budget = self._congest_bits
        message_cost = self._message_cost
        count_bits = self.count_bits
        enforce = self.enforce_congest
        total_count = 0
        total_bits = 0
        physical = 0
        violations = 0
        violation: Optional[Tuple[int, int, int]] = None
        for index, outbox in senders:
            node_endpoints = endpoints[index]
            for port, message in outbox.items():
                neighbor, neighbor_port = node_endpoints[port]
                bits, units = getattr(message, "_wire_cost", None) or message_cost(message)
                if not count_bits:
                    bits = 0
                total_count += units
                total_bits += bits
                physical += 1
                if bits > congest_budget:
                    violations += 1
                    if enforce:
                        if violation is None:
                            violation = (index, port, bits)
                        continue
                inbox = inboxes[neighbor]
                if not inbox:
                    receivers.append(neighbor)
                inbox[neighbor_port] = message
        rejected = violations if enforce else 0
        tally[0] += total_count
        tally[1] += total_bits
        tally[2] += physical
        tally[3] += physical - rejected
        tally[4] += rejected
        tally[6] += violations
        return violation

    def _deliver_with_adversary(
        self,
        round_index: int,
        senders: List[Tuple[int, Outbox]],
        receivers: List[int],
        tally: List[int],
    ) -> Optional[Tuple[int, int, int]]:
        """Adversary-mediated delivery of this round's outboxes.

        Every sent message is counted in the metrics (the sender paid for
        it) and then ruled on by the adversary: delivered, dropped, or
        queued for a later round.  Delayed messages land after the fresh
        traffic of their arrival round; if the target port is occupied the
        delayed copy is dropped (the port carries one message per round —
        CONGEST holds on the receiving side too) and counted as such.
        Returns the first enforced CONGEST violation (see
        :meth:`_deliver_plain`); an enforced violating message is withheld
        before the adversary rules on it.  Receivers are recorded as in
        :meth:`_deliver_plain`, delayed arrivals included.
        """
        inboxes = self._inboxes
        on_message = self._adversary.on_message
        endpoints = self._endpoints
        congest_budget = self._congest_bits
        message_cost = self._message_cost
        count_bits = self.count_bits
        enforce = self.enforce_congest
        trace = self.trace
        total_count = 0
        total_bits = 0
        physical = 0
        delivered = 0
        dropped = 0
        delayed = 0
        violations = 0
        violation: Optional[Tuple[int, int, int]] = None
        for index, outbox in senders:
            node_endpoints = endpoints[index]
            for port, message in outbox.items():
                neighbor, neighbor_port = node_endpoints[port]
                bits, units = getattr(message, "_wire_cost", None) or message_cost(message)
                if not count_bits:
                    bits = 0
                total_count += units
                total_bits += bits
                physical += 1
                if bits > congest_budget:
                    violations += 1
                    if enforce:
                        dropped += 1
                        if violation is None:
                            violation = (index, port, bits)
                        continue
                verdict = on_message(
                    round_index, index, port, neighbor, neighbor_port, message
                )
                if verdict == DELIVER:
                    inbox = inboxes[neighbor]
                    if not inbox:
                        receivers.append(neighbor)
                    inbox[neighbor_port] = message
                    delivered += 1
                elif verdict < 0:
                    dropped += 1
                    trace.record(
                        round_index,
                        "message-dropped",
                        node=index,
                        port=port,
                        receiver=neighbor,
                    )
                else:
                    delayed += 1
                    self._delayed.setdefault(round_index + 1 + verdict, []).append(
                        (neighbor, neighbor_port, message)
                    )
                    trace.record(
                        round_index,
                        "message-delayed",
                        node=index,
                        port=port,
                        receiver=neighbor,
                        delay=verdict,
                    )

        # Delayed messages due now (scheduled for the start of round
        # ``round_index + 1``, like the fresh traffic above).
        for neighbor, neighbor_port, message in self._delayed.pop(round_index + 1, ()):
            inbox = inboxes[neighbor]
            if neighbor_port in inbox:
                dropped += 1
                trace.record(
                    round_index,
                    "message-dropped",
                    node=neighbor,
                    port=neighbor_port,
                    reason="delay-collision",
                )
            else:
                if not inbox:
                    receivers.append(neighbor)
                inbox[neighbor_port] = message
                delivered += 1

        tally[0] += total_count
        tally[1] += total_bits
        tally[2] += physical
        tally[3] += delivered
        tally[4] += dropped
        tally[5] += delayed
        tally[6] += violations
        return violation

    def run(
        self,
        max_rounds: int,
        *,
        require_halt: bool = False,
    ) -> SimulationResult:
        """Run until every node halts or ``max_rounds`` rounds have run.

        The returned :class:`SimulationResult` reports the rounds executed
        by *this* call in ``rounds_executed`` and the simulator's lifetime
        counter in ``total_rounds`` (relevant for phase-structured drivers
        that call ``run`` several times on one simulator).
        """
        if max_rounds < 0:
            raise SimulationError(f"max_rounds must be non-negative, got {max_rounds}")
        executed = self._run(max_rounds)
        all_halted = self.all_halted()
        if require_halt and not all_halted:
            raise SimulationError(
                f"not all nodes halted within {max_rounds} rounds"
            )
        return SimulationResult(
            nodes=self.nodes,
            metrics=self.metrics.snapshot(),
            rounds_executed=executed,
            total_rounds=self._round,
            all_halted=all_halted,
            topology=self.topology,
            trace=self.trace if isinstance(self.trace, TraceRecorder) else None,
            node_results=[node.result() for node in self.nodes],
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _run(self, max_rounds: int) -> int:
        """The run loop of both backends; returns the rounds executed.

        Per round, the *due* nodes are stepped in ascending index order.
        Under ``"round"`` that is every live node.  Under ``"event"`` it is
        the receivers of the previous round's delivery plus the nodes whose
        wake round has come.  A stepped node that is still live is asked
        for its horizon (``quiescent_until(next round)``) after the round's
        delivery, and only if that delivery left its inbox empty: a node
        with messages waiting is due next round anyway and is asked after
        that step (or, should the adversary keep it inactive then, in that
        round).  A node whose horizon is the very next round goes on the
        ``ready`` list; later horizons go into a ``(wake, index)`` heap.
        ``wake`` holds the round of each node's live heap entry (``-1``
        while it has none, ``_UNASKED`` while its horizon is deferred), so
        an entry is stale — and dropped when it surfaces — whenever a later
        step moved the node's horizon.  Every live node is ready, due, or
        has a live heap entry.  Once the heap holds more than ``4n``
        entries it is rebuilt from the live ones, so its size is bounded
        by the node count rather than the run length.  When no node is due
        and nothing else can make a round observable (no delayed message,
        and no adversary or one whose
        :meth:`~repro.core.faults.FaultAdversary.quiescent_until` horizon
        lies beyond the round), the loop fast-forwards to the earliest
        wakeup or that horizon, whichever is first, in O(1).  The
        adversary is asked only in such idle rounds, so busy rounds pay
        nothing for it.

        The adversary's round hooks (``begin_round`` once per round,
        ``node_active`` once per due node, ``node_crashed`` through
        :meth:`_terminated_by_crashes` once per round) are called only if
        the adversary's class overrides them (decided once per run): the
        base hooks are no-ops that activate every node and crash none, so
        skipping them changes nothing, and ``loss`` and ``delay`` pay for
        none of them.  A live-node counter ends the run once every node has
        halted.  Since a node's ``halted`` flag changes only inside its
        ``step``, the loop reads it once per run and after each step.
        Delivery's endpoint lookup checks outbox ports.  ``step`` and
        ``quiescent_until`` are looked up on the node at every call, so
        instance-level wrappers (tracers, counters) still see every call.
        Rounds (skipped ones included) and traffic are tallied in locals
        and written to the collector once, when the run returns or raises.
        """
        nodes = self.nodes
        inboxes = self._inboxes
        adversary = self._adversary
        begin_round = _hook(adversary, "begin_round")
        node_active = _hook(adversary, "node_active")
        crashes = _hook(adversary, "node_crashed") is not None
        heappush = heapq.heappush
        event = self.backend == "event"
        halted = [node.halted for node in nodes]
        wake = [-1] * len(nodes)
        heap: List[Tuple[int, int]] = []
        ready: List[int] = []  # due next round, kept out of the heap
        live = 0
        for index, node in enumerate(nodes):
            if halted[index]:
                continue
            live += 1
            if event:
                wake[index] = node.quiescent_until(self._round)
                heap.append((wake[index], index))
        heapq.heapify(heap)
        start = self._round
        stop = start + max_rounds
        # messages, bits, sent, delivered, dropped, delayed, violations
        tally = [0] * 7
        try:
            while self._round < stop and live:
                round_index = self._round
                due: Iterable[int]
                if event:
                    due_set = set(self._receivers)
                    due_set.update(ready)
                    ready = []
                    while heap and heap[0][0] <= round_index:
                        at, index = heapq.heappop(heap)
                        if wake[index] == at:
                            wake[index] = -1
                            due_set.add(index)
                    if not due_set and not self._delayed:
                        quiet = (
                            QUIET_FOREVER
                            if adversary is None
                            else adversary.quiescent_until(round_index)
                        )
                        if quiet > round_index:
                            while heap and wake[heap[0][1]] != heap[0][0]:
                                heapq.heappop(heap)
                            if not heap:  # pragma: no cover - live nodes keep an entry
                                break
                            self._round = min(heap[0][0], quiet, stop)
                            continue
                    due = sorted(due_set)
                else:
                    due = range(len(nodes))
                if begin_round is not None:
                    begin_round(round_index)
                next_round = round_index + 1
                senders: List[Tuple[int, Outbox]] = []
                stepped: List[int] = []  # live after their step (event core)
                for index in due:
                    if halted[index]:
                        continue
                    if node_active is not None and not node_active(round_index, index):
                        if event:
                            if wake[index] == _UNASKED:
                                # Its state is that of its last step: ask now.
                                at = nodes[index].quiescent_until(round_index)
                                wake[index] = -1
                                if at > round_index:
                                    wake[index] = at
                                    heappush(heap, (at, index))
                            if wake[index] < 0:
                                ready.append(index)  # its horizon has passed
                        continue
                    node = nodes[index]
                    outbox = node.step(round_index, inboxes[index])
                    if node.halted:
                        halted[index] = True
                        live -= 1
                    elif event:
                        stepped.append(index)
                    if outbox:
                        senders.append((index, outbox))
                self._deliver_and_finish(round_index, senders, tally)
                for index in stepped:
                    if inboxes[index]:
                        # Due next round anyway; asked after that step.
                        wake[index] = _UNASKED
                        continue
                    at = nodes[index].quiescent_until(next_round)
                    if at <= next_round:
                        wake[index] = -1
                        ready.append(index)
                    elif at != wake[index]:
                        wake[index] = at
                        heappush(heap, (at, index))
                if len(heap) > 4 * len(nodes):
                    # Mostly stale entries: rebuild from the live ones.
                    heap = [(at, index) for index, at in enumerate(wake) if at >= 0]
                    heapq.heapify(heap)
                if crashes and self._terminated_by_crashes():
                    break
            return self._round - start
        finally:
            messages, bits, sent, delivered, dropped, delayed, violations = tally
            metrics = self.metrics
            metrics.record_round(self._round - start)
            metrics.record_message(bits=bits, count=messages)
            metrics.record_sent(sent)
            metrics.record_delivered(delivered)
            metrics.record_dropped(dropped)
            metrics.record_delayed(delayed)
            metrics.record_congest_violation(violations)

    def _terminated_by_crashes(self) -> bool:
        """Whether the round just executed left nobody able to act again.

        Asked only when the adversary's class overrides
        :meth:`FaultAdversary.node_crashed` (with the base hook it could
        only report that every node has halted, which ends the run
        anyway).  True when no delayed
        message is in flight and every node has either halted or crashed
        for good (:meth:`FaultAdversary.node_crashed`) as of the round just
        run — continuing would only execute empty rounds until ``max_rounds``.
        """
        adversary = self._adversary
        if self._delayed:
            return False
        round_index = self._round - 1
        return all(
            node.halted or adversary.node_crashed(round_index, index)
            for index, node in enumerate(self.nodes)
        )

    def _validate_outbox(self, index: int, outbox: Outbox) -> None:
        node = self.nodes[index]
        for port in outbox:
            if not (1 <= port <= node.num_ports):
                raise SimulationError(
                    f"node {index} tried to send through port {port} but has "
                    f"ports 1..{node.num_ports}"
                )

    def _message_cost(self, message: Message) -> Tuple[int, int]:
        """``(bits, CONGEST units)`` of one message, sized on its first send.

        A :class:`Message` is asked for :meth:`~Message.size_bits` and
        :meth:`~Message.congest_units` once; the pair is stored on the
        instance as ``_wire_cost``, which the delivery loops read on every
        later send; a message built by :func:`~repro.core.messages.presized`
        carries it from the start and never gets here.  That is sound
        because messages are immutable and no size in the package depends
        on the network size.
        A foreign object is asked for the methods it has, on every send.
        Units are at least 1; the delivery loops charge 0 bits under
        ``count_bits=False``.
        """
        if isinstance(message, Message):
            cost = (
                int(message.size_bits(self.topology.num_nodes)),
                max(1, int(message.congest_units())),
            )
            object.__setattr__(message, "_wire_cost", cost)
            return cost
        congest_units = getattr(message, "congest_units", None)
        units = max(1, int(congest_units())) if callable(congest_units) else 1
        size = getattr(message, "size_bits", None)
        if callable(size):
            return int(size(self.topology.num_nodes)), units
        # Fall back to a single CONGEST word for foreign message objects.
        return max(1, self._congest_bits), units


def run_protocol(
    topology: Topology,
    factory: NodeFactory,
    *,
    max_rounds: int,
    seed: Optional[int] = None,
    metrics: Optional[MetricsCollector] = None,
    trace: Optional[TraceRecorder] = None,
    enforce_congest: bool = False,
    require_halt: bool = False,
    adversary: Optional[FaultAdversary] = None,
    backend: str = "auto",
) -> SimulationResult:
    """Convenience wrapper: build nodes, run, and return the result."""
    nodes = build_nodes(topology, factory, seed=seed)
    simulator = SynchronousSimulator(
        topology,
        nodes,
        metrics=metrics,
        trace=trace,
        enforce_congest=enforce_congest,
        adversary=adversary,
        backend=backend,
    )
    return simulator.run(max_rounds, require_halt=require_halt)
