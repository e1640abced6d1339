"""Metric collection for simulated protocol executions.

The quantities the paper bounds — rounds of communication, point-to-point
messages, and bits — are counted here.  A :class:`MetricsCollector` is
attached to a simulator run; protocols and drivers can additionally open
named *phases* ("cautious-broadcast", "random-walk", ...) so that the
benchmark harness can attribute cost to the individual building blocks the
paper analyses separately (Lemma 1, Lemma 2, Theorem 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

__all__ = ["PhaseMetrics", "Metrics", "MetricsCollector"]


@dataclass
class PhaseMetrics:
    """Cost of a single named phase of a protocol execution."""

    rounds: int = 0
    messages: int = 0
    bits: int = 0

    def merge(self, other: "PhaseMetrics") -> None:
        """Accumulate ``other`` into this phase in place."""
        self.rounds += other.rounds
        self.messages += other.messages
        self.bits += other.bits

    def as_dict(self) -> Dict[str, int]:
        return {"rounds": self.rounds, "messages": self.messages, "bits": self.bits}


@dataclass
class Metrics:
    """Immutable-ish snapshot of a finished (or in-progress) execution.

    ``dropped_messages`` and ``delayed_messages`` count faults injected by
    a :class:`~repro.core.faults.FaultAdversary` (plus, for drops, messages
    rejected by CONGEST enforcement); both stay zero for runs under the
    paper's reliable execution model.  Dropped and delayed messages are
    still counted in ``messages``/``bits`` — the sender paid for them —
    the fault counters record what the network then did.

    ``sent_messages`` and ``delivered_messages`` count *physical* messages
    (one per occupied port per round, regardless of how many CONGEST units
    the payload is charged as in ``messages``).  Together with the fault
    counters they satisfy the conservation identity

        ``sent_messages == delivered_messages + dropped_messages + pending``

    where ``pending`` is the simulator's in-flight delayed-message queue
    (:meth:`~repro.core.simulator.SynchronousSimulator.pending_delayed`).
    """

    rounds: int = 0
    messages: int = 0
    bits: int = 0
    congest_violations: int = 0
    dropped_messages: int = 0
    delayed_messages: int = 0
    sent_messages: int = 0
    delivered_messages: int = 0
    events: Dict[str, int] = field(default_factory=dict)
    phases: Dict[str, PhaseMetrics] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "rounds": self.rounds,
            "messages": self.messages,
            "bits": self.bits,
            "congest_violations": self.congest_violations,
            "dropped_messages": self.dropped_messages,
            "delayed_messages": self.delayed_messages,
            "sent_messages": self.sent_messages,
            "delivered_messages": self.delivered_messages,
            "events": dict(self.events),
            "phases": {name: phase.as_dict() for name, phase in self.phases.items()},
        }

    def messages_per_round(self) -> float:
        """Average number of point-to-point messages per round."""
        if self.rounds == 0:
            return 0.0
        return self.messages / self.rounds


class MetricsCollector:
    """Accumulates rounds, messages, bits, events and per-phase breakdowns.

    The collector is deliberately permissive: phases may be re-entered
    (their counters keep accumulating), events are free-form counters, and
    collectors can be merged.  Repeated runs are not aggregated here: the
    experiment drivers fold each run into a
    :class:`~repro.analysis.streaming.CellAggregate`.
    """

    def __init__(self) -> None:
        self._total = PhaseMetrics()
        self._phases: Dict[str, PhaseMetrics] = {}
        self._events: Dict[str, int] = {}
        self._congest_violations = 0
        self._dropped_messages = 0
        self._delayed_messages = 0
        self._sent_messages = 0
        self._delivered_messages = 0
        self._current_phase: Optional[str] = None

    # ------------------------------------------------------------------ #
    # phases
    # ------------------------------------------------------------------ #
    @property
    def current_phase(self) -> Optional[str]:
        return self._current_phase

    def start_phase(self, name: str) -> None:
        """Start (or resume) attributing costs to ``name``."""
        self._phases.setdefault(name, PhaseMetrics())
        self._current_phase = name

    def end_phase(self) -> None:
        """Stop attributing costs to any phase."""
        self._current_phase = None

    def phase(self, name: str) -> "_PhaseContext":
        """Context manager variant of :meth:`start_phase` / :meth:`end_phase`."""
        return _PhaseContext(self, name)

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record_round(self, count: int = 1) -> None:
        """Record that ``count`` synchronous rounds elapsed."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._total.rounds += count
        if self._current_phase is not None:
            self._phases[self._current_phase].rounds += count

    def record_message(self, bits: int = 0, count: int = 1) -> None:
        """Record ``count`` point-to-point messages totalling ``bits`` bits."""
        if count < 0 or bits < 0:
            raise ValueError("message counts and bits must be non-negative")
        self._total.messages += count
        self._total.bits += bits
        if self._current_phase is not None:
            phase = self._phases[self._current_phase]
            phase.messages += count
            phase.bits += bits

    def record_congest_violation(self, count: int = 1) -> None:
        """Record a message that exceeded the configured CONGEST bit budget."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._congest_violations += count

    def record_dropped(self, count: int = 1) -> None:
        """Record ``count`` messages lost to fault injection."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._dropped_messages += count

    def record_delayed(self, count: int = 1) -> None:
        """Record ``count`` messages delayed by fault injection."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._delayed_messages += count

    def record_sent(self, count: int = 1) -> None:
        """Record ``count`` physical messages handed to the network."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._sent_messages += count

    def record_delivered(self, count: int = 1) -> None:
        """Record ``count`` physical messages placed into an inbox."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._delivered_messages += count

    def record_event(self, name: str, count: int = 1) -> None:
        """Record a free-form named event (e.g. ``"walk-collision"``)."""
        self._events[name] = self._events.get(name, 0) + count

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def rounds(self) -> int:
        return self._total.rounds

    @property
    def messages(self) -> int:
        return self._total.messages

    @property
    def bits(self) -> int:
        return self._total.bits

    @property
    def congest_violations(self) -> int:
        return self._congest_violations

    @property
    def dropped_messages(self) -> int:
        return self._dropped_messages

    @property
    def delayed_messages(self) -> int:
        return self._delayed_messages

    @property
    def sent_messages(self) -> int:
        return self._sent_messages

    @property
    def delivered_messages(self) -> int:
        return self._delivered_messages

    def event_count(self, name: str) -> int:
        return self._events.get(name, 0)

    def phase_metrics(self, name: str) -> PhaseMetrics:
        return self._phases[name]

    def snapshot(self) -> Metrics:
        """Return a copy of the current totals as a :class:`Metrics`."""
        return Metrics(
            rounds=self._total.rounds,
            messages=self._total.messages,
            bits=self._total.bits,
            congest_violations=self._congest_violations,
            dropped_messages=self._dropped_messages,
            delayed_messages=self._delayed_messages,
            sent_messages=self._sent_messages,
            delivered_messages=self._delivered_messages,
            events=dict(self._events),
            phases={
                name: PhaseMetrics(p.rounds, p.messages, p.bits)
                for name, p in self._phases.items()
            },
        )

    def merge(self, other: "MetricsCollector") -> None:
        """Accumulate the totals of ``other`` into this collector."""
        snap = other.snapshot()
        self.merge_metrics(snap)

    def merge_metrics(self, snap: Metrics) -> None:
        """Accumulate a :class:`Metrics` snapshot into this collector."""
        self._total.rounds += snap.rounds
        self._total.messages += snap.messages
        self._total.bits += snap.bits
        self._congest_violations += snap.congest_violations
        self._dropped_messages += snap.dropped_messages
        self._delayed_messages += snap.delayed_messages
        self._sent_messages += snap.sent_messages
        self._delivered_messages += snap.delivered_messages
        for name, count in snap.events.items():
            self._events[name] = self._events.get(name, 0) + count
        for name, phase in snap.phases.items():
            self._phases.setdefault(name, PhaseMetrics()).merge(phase)


class _PhaseContext:
    """Context manager returned by :meth:`MetricsCollector.phase`."""

    def __init__(self, collector: MetricsCollector, name: str) -> None:
        self._collector = collector
        self._name = name
        self._previous: Optional[str] = None

    def __enter__(self) -> MetricsCollector:
        self._previous = self._collector.current_phase
        self._collector.start_phase(self._name)
        return self._collector

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._previous is None:
            self._collector.end_phase()
        else:
            self._collector.start_phase(self._previous)
