"""Concrete fault-adversary models.

Four perturbations of the paper's reliable round-synchronous delivery
step, all deterministic functions of the run seed they are constructed
with (every random draw comes from a private RNG derived via
:func:`repro.core.rng.derive_seed`, so a run perturbs identically in any
process, worker count, or multiprocessing start method):

* :class:`MessageLossAdversary` — i.i.d. per-message loss;
* :class:`MessageDelayAdversary` — i.i.d. per-message bounded delay;
* :class:`AsynchronyAdversary` — persistent per-link round skew (each
  link draws a fixed lateness once; every message over it arrives that
  many rounds late);
* :class:`LinkChurnAdversary` — per-link up/down Markov churn with an
  effective-topology connectivity account;
* :class:`CrashStopAdversary` — seeded crash-stop node failures;
* :class:`ComposedAdversary` — several of the above in one run, each
  drawing from its own seed-derived RNG stream.

The models deliberately stress the quantities the paper's analysis leans
on: loss and churn thin the communication graph (conductance and the
isoperimetric number drop, mixing slows), delay breaks round-synchrony of
information spread, and crash-stop removes candidates outright.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Set

from ..core.errors import ConfigurationError
from ..core.faults import DELIVER, DROP, QUIET_FOREVER, FaultAdversary
from ..core.messages import Message
from ..core.metrics import MetricsCollector
from ..core.rng import derive_seed
from ..core.tracing import TraceRecorder
from ..graphs.dynamic import EffectiveTopologyView, normalize_edge
from ..graphs.topology import Topology

__all__ = [
    "SeededAdversary",
    "MessageLossAdversary",
    "MessageDelayAdversary",
    "AsynchronyAdversary",
    "LinkChurnAdversary",
    "CrashStopAdversary",
    "ComposedAdversary",
]


def _check_probability(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
    return float(value)


class SeededAdversary(FaultAdversary):
    """Base class for adversaries whose schedule derives from the run seed.

    The RNG is (re)derived at :meth:`attach` time from ``(seed, "dynamics",
    stream label, topology fingerprint)``, so each simulator built during
    one run — phase-structured protocols build several — perturbs its
    execution from the same deterministic stream, independent of process
    or scheduling.  The topology fingerprint is part of the derivation so
    that a sweep reusing one seed across many topologies draws an
    independent fault stream per cell instead of replaying one schedule
    prefix everywhere.

    The stream label defaults to the model ``name``; a composition
    (:class:`ComposedAdversary`) overrides ``rng_label`` per part so every
    composed model draws from its own stream — two models inside one
    composed run never share (or replay) each other's randomness.
    """

    def __init__(self, *, seed: Optional[int] = None) -> None:
        super().__init__()
        self.seed = seed
        #: Override to separate this instance's RNG stream from other
        #: instances of the same model in one run (``None`` -> ``name``).
        self.rng_label: Optional[str] = None
        #: Set by :meth:`attach`, before any hook can draw from it.
        self._rng: random.Random

    def attach(
        self,
        topology: Topology,
        metrics: MetricsCollector,
        trace: TraceRecorder,
    ) -> None:
        super().attach(topology, metrics, trace)
        self._rng = random.Random(
            derive_seed(
                self.seed,
                "dynamics",
                self.rng_label or self.name,
                topology.fingerprint(),
            )
        )

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name, "seed": self.seed}


class MessageLossAdversary(SeededAdversary):
    """Drops each message independently with probability ``p``.

    The benign end of the spectrum: the network is still fair (every
    message has positive delivery probability) but protocols relying on
    "every neighbour heard me" invariants start to see divergent local
    views.
    """

    name = "loss"

    def __init__(self, p: float = 0.05, *, seed: Optional[int] = None) -> None:
        super().__init__(seed=seed)
        self.p = _check_probability("p", p)

    def on_message(
        self,
        round_index: int,
        sender: int,
        sender_port: int,
        receiver: int,
        receiver_port: int,
        message: Message,
    ) -> int:
        return DROP if self._rng.random() < self.p else DELIVER

    def quiescent_until(self, round_index: int) -> int:
        return QUIET_FOREVER  # acts only in on_message

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name, "p": self.p, "seed": self.seed}


class MessageDelayAdversary(SeededAdversary):
    """Delays each message independently with probability ``p``.

    A delayed message arrives ``1..max_delay`` rounds late (uniform).  If
    its port is carrying a fresh message in the arrival round, the stale
    copy is dropped — each port delivers at most one message per round, so
    delay degrades gracefully into loss under congestion.
    """

    name = "delay"

    def __init__(
        self,
        p: float = 0.1,
        max_delay: int = 3,
        *,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(seed=seed)
        self.p = _check_probability("p", p)
        if int(max_delay) < 1:
            raise ConfigurationError(f"max_delay must be >= 1, got {max_delay}")
        self.max_delay = int(max_delay)

    def on_message(
        self,
        round_index: int,
        sender: int,
        sender_port: int,
        receiver: int,
        receiver_port: int,
        message: Message,
    ) -> int:
        if self._rng.random() < self.p:
            return self._rng.randint(1, self.max_delay)
        return DELIVER

    def quiescent_until(self, round_index: int) -> int:
        return QUIET_FOREVER  # acts only in on_message

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "p": self.p,
            "max_delay": self.max_delay,
            "seed": self.seed,
        }


class AsynchronyAdversary(SeededAdversary):
    """Persistent per-link round skew: bounded asynchrony per link.

    At attach time each link independently becomes *skewed* with
    probability ``p`` and draws a fixed lateness uniform in
    ``1..max_skew``.  Every message traversing a skewed link — in either
    direction, for the whole run — arrives that many rounds late.

    This is a different execution model from
    :class:`MessageDelayAdversary`, whose delays are i.i.d. per message:
    here the *same* links are consistently slow, so the network behaves
    like a round-synchronous system whose links run on skewed clocks.  A
    skewed link pipelines cleanly (one message per round keeps arriving,
    just ``skew`` rounds behind), but information spreading along fixed
    routes is permanently out of phase — exactly the round-synchrony the
    paper's mixing-time and broadcast arguments lean on, which no
    bounded-delay i.i.d. model perturbs persistently.

    Metrics: ``fault.skewed-links`` records the number of skewed links
    once per simulator, and the lateness of each skewed link is traced as
    a ``link-skew`` event at the first round.
    """

    name = "skew"

    def __init__(
        self,
        p: float = 0.3,
        max_skew: int = 3,
        *,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(seed=seed)
        self.p = _check_probability("p", p)
        if int(max_skew) < 1:
            raise ConfigurationError(f"max_skew must be >= 1, got {max_skew}")
        self.max_skew = int(max_skew)
        self._skew: Dict[tuple, int] = {}
        self._traced = False

    def attach(
        self,
        topology: Topology,
        metrics: MetricsCollector,
        trace: TraceRecorder,
    ) -> None:
        super().attach(topology, metrics, trace)
        rng = self._rng
        self._skew = {}
        self._traced = False
        # topology.edges() iterates the sorted edge tuple, so the draw
        # order — and with it the RNG stream — is deterministic.
        for edge in topology.edges():
            if rng.random() < self.p:
                self._skew[edge] = rng.randint(1, self.max_skew)
        if self._skew:
            metrics.record_event("fault.skewed-links", len(self._skew))

    def begin_round(self, round_index: int) -> None:
        if not self._traced:
            self._traced = True
            for edge, skew in self._skew.items():
                self.trace.record(round_index, "link-skew", edge=edge, skew=skew)

    def link_skew(self, u: int, v: int) -> int:
        """The persistent lateness of link ``(u, v)`` (0 when unskewed)."""
        return self._skew.get(normalize_edge(u, v), 0)

    def on_message(
        self,
        round_index: int,
        sender: int,
        sender_port: int,
        receiver: int,
        receiver_port: int,
        message: Message,
    ) -> int:
        return self._skew.get(normalize_edge(sender, receiver), DELIVER)

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "p": self.p,
            "max_skew": self.max_skew,
            "seed": self.seed,
        }


class LinkChurnAdversary(SeededAdversary):
    """Per-link up/down churn driven by a seeded two-state Markov schedule.

    At the start of every round each link flips independently: an up link
    goes down with probability ``p_down``, a down link recovers with
    probability ``p_up``.  Messages traversing a down link are lost.  The
    expected steady-state fraction of down links is
    ``p_down / (p_down + p_up)``.

    The adversary keeps an :class:`~repro.graphs.dynamic.EffectiveTopologyView`
    of the current round and accounts connectivity into the run metrics:

    * ``fault.link-down-rounds`` — sum over rounds of down links;
    * ``fault.disconnected-rounds`` — rounds whose effective topology was
      disconnected (the regime in which no election algorithm can
      guarantee progress).
    """

    name = "churn"

    def __init__(
        self,
        p_down: float = 0.05,
        p_up: float = 0.5,
        *,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(seed=seed)
        self.p_down = _check_probability("p_down", p_down)
        self.p_up = _check_probability("p_up", p_up)
        self._down: Set[tuple] = set()
        self._view: Optional[EffectiveTopologyView] = None

    def attach(
        self,
        topology: Topology,
        metrics: MetricsCollector,
        trace: TraceRecorder,
    ) -> None:
        super().attach(topology, metrics, trace)
        self._down = set()
        self._view = EffectiveTopologyView(topology)

    def begin_round(self, round_index: int) -> None:
        rng = self._rng
        down = self._down
        # topology.edges() iterates the sorted edge tuple, so the flip
        # order — and with it the RNG stream — is deterministic.
        for edge in self.topology.edges():
            if edge in down:
                if rng.random() < self.p_up:
                    down.discard(edge)
                    self.trace.record(round_index, "link-up", edge=edge)
            elif rng.random() < self.p_down:
                down.add(edge)
                self.trace.record(round_index, "link-down", edge=edge)
        self._view = EffectiveTopologyView(self.topology, down)
        if down:
            self.metrics.record_event("fault.link-down-rounds", len(down))
            if not self._view.is_connected():
                self.metrics.record_event("fault.disconnected-rounds")

    def effective_view(self) -> EffectiveTopologyView:
        """The effective topology of the current round."""
        if self._view is None:
            raise ConfigurationError("adversary is not attached to a simulator")
        return self._view

    def on_message(
        self,
        round_index: int,
        sender: int,
        sender_port: int,
        receiver: int,
        receiver_port: int,
        message: Message,
    ) -> int:
        if normalize_edge(sender, receiver) in self._down:
            return DROP
        return DELIVER

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "p_down": self.p_down,
            "p_up": self.p_up,
            "seed": self.seed,
        }


class CrashStopAdversary(SeededAdversary):
    """Crash-stop node failures on a seeded schedule.

    At attach time each node independently crashes with probability ``p``,
    at a round drawn uniformly from ``1..horizon``.  A crashed node is
    never stepped again and everything addressed to it is dropped; its
    pre-crash protocol state still appears in the per-node results, so a
    node that crashed mid-candidacy shows up as a candidate that never
    became leader.

    Crashes start at round 1 so that a run always has a first round of
    full participation (crashing a node "before the protocol exists" is a
    smaller-``n`` experiment, not a fault-tolerance one).
    """

    name = "crash"

    def __init__(
        self,
        p: float = 0.05,
        horizon: int = 64,
        *,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(seed=seed)
        self.p = _check_probability("p", p)
        if int(horizon) < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
        self.horizon = int(horizon)
        self._crash_round: List[Optional[int]] = []

    def attach(
        self,
        topology: Topology,
        metrics: MetricsCollector,
        trace: TraceRecorder,
    ) -> None:
        super().attach(topology, metrics, trace)
        rng = self._rng
        self._crash_round = [
            rng.randint(1, self.horizon) if rng.random() < self.p else None
            for _ in range(topology.num_nodes)
        ]

    def begin_round(self, round_index: int) -> None:
        for node, crash_round in enumerate(self._crash_round):
            if crash_round == round_index:
                self.metrics.record_event("fault.node-crash")
                self.trace.record(round_index, "node-crash", node=node)

    def node_active(self, round_index: int, node: int) -> bool:
        crash_round = self._crash_round[node]
        return crash_round is None or round_index < crash_round

    def node_crashed(self, round_index: int, node: int) -> bool:
        crash_round = self._crash_round[node]
        return crash_round is not None and round_index >= crash_round

    def on_message(
        self,
        round_index: int,
        sender: int,
        sender_port: int,
        receiver: int,
        receiver_port: int,
        message: Message,
    ) -> int:
        # The message would arrive at the start of round ``round_index + 1``;
        # drop it if the receiver is down by then.
        if not self.node_active(round_index + 1, receiver):
            return DROP
        return DELIVER

    def crashed_nodes(self, round_index: int) -> List[int]:
        """Indices of nodes that have crashed by ``round_index``."""
        return [
            node
            for node, crash_round in enumerate(self._crash_round)
            if crash_round is not None and round_index >= crash_round
        ]

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "p": self.p,
            "horizon": self.horizon,
            "seed": self.seed,
        }


class ComposedAdversary(FaultAdversary):
    """Several fault models perturbing one run together.

    Real networks do not fail one mode at a time: links churn *while*
    messages drop *while* delivery lags.  ``ComposedAdversary`` delegates
    every hook to an ordered list of sub-models:

    * a round begins for every part (churn flips links, crashes fire);
    * a node is active only if every part says so;
    * a delivery is ruled on by the parts in order — the first ``DROP``
      wins, otherwise the parts' delays add up;
    * the round hooks are quiet until the earliest part's horizon.

    **RNG stream separation.**  Each part is a normal seeded model bound
    to the same run seed, but its stream label is prefixed with its
    position in the composition (``composed[0].loss``), so parts draw
    from mutually independent deterministic streams: composing models
    never correlates their schedules, and adding a model to the
    composition never perturbs the streams of the others.

    Constructed via the registry as ``composed`` with a ``models``
    parameter naming the parts (``"loss+delay"``) and dotted per-model
    parameters (``{"loss.p": 0.05, "delay.max_delay": 3}``) — the CLI
    spelling is ``--adversary composed:loss+delay --adversary-param
    loss.p=0.05``.  See :func:`repro.dynamics.sweeps.composed_spec` for
    composing existing :class:`~repro.dynamics.spec.AdversarySpec` values
    programmatically.
    """

    name = "composed"

    def __init__(
        self, models: str = "", *, seed: Optional[int] = None, **params: float
    ) -> None:
        super().__init__()
        from .spec import ADVERSARIES  # deferred: spec.py imports this module

        self.seed = seed
        self.models = str(models)
        names = [part for part in self.models.replace("+", ",").split(",") if part]
        if not names:
            raise ConfigurationError(
                "composed adversary needs a models parameter naming its "
                "parts, e.g. models='loss+delay' "
                "(CLI: --adversary composed:loss+delay)"
            )
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"composed adversary lists a model twice: {self.models!r} "
                f"(dotted parameters like loss.p could not tell them apart)"
            )
        per_model: Dict[str, Dict[str, float]] = {name: {} for name in names}
        for key, value in params.items():
            model, dot, parameter = key.partition(".")
            if not dot or model not in per_model or not parameter:
                raise ConfigurationError(
                    f"bad composed-adversary parameter {key!r}; expected "
                    f"<model>.<param> with model in {names}, e.g. "
                    f"{names[0]}.p"
                )
            per_model[model][parameter] = value
        self.parts: List[FaultAdversary] = []
        for index, model_name in enumerate(names):
            if model_name == self.name or model_name not in ADVERSARIES:
                available = sorted(set(ADVERSARIES) - {self.name})
                raise ConfigurationError(
                    f"composed adversary cannot include {model_name!r}; "
                    f"available models: {available}"
                )
            model = ADVERSARIES[model_name]
            try:
                part = model(seed=seed, **per_model[model_name])
            except TypeError as error:
                raise ConfigurationError(
                    f"bad parameters for composed model {model_name!r}: {error}"
                ) from error
            part.rng_label = f"{self.name}[{index}].{model_name}"
            self.parts.append(part)

    def attach(
        self,
        topology: Topology,
        metrics: MetricsCollector,
        trace: TraceRecorder,
    ) -> None:
        super().attach(topology, metrics, trace)
        for part in self.parts:
            part.attach(topology, metrics, trace)

    def begin_round(self, round_index: int) -> None:
        for part in self.parts:
            part.begin_round(round_index)

    def node_active(self, round_index: int, node: int) -> bool:
        return all(part.node_active(round_index, node) for part in self.parts)

    def node_crashed(self, round_index: int, node: int) -> bool:
        return any(part.node_crashed(round_index, node) for part in self.parts)

    def quiescent_until(self, round_index: int) -> int:
        return min(part.quiescent_until(round_index) for part in self.parts)

    def on_message(
        self,
        round_index: int,
        sender: int,
        sender_port: int,
        receiver: int,
        receiver_port: int,
        message: Message,
    ) -> int:
        delay = 0
        for part in self.parts:
            verdict = part.on_message(
                round_index, sender, sender_port, receiver, receiver_port, message
            )
            if verdict == DROP:
                return DROP
            delay += verdict
        return delay  # DELIVER (0) when no part delayed

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "models": self.models,
            "parts": [part.describe() for part in self.parts],
            "seed": self.seed,
        }
