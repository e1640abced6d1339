"""Lightweight span timers: where does a sweep's wall-clock time go?

Everything the repo *measures about protocols* — rounds, messages, bits —
is exact and deterministic.  Wall-clock time is the one axis the paper's
accounting says nothing about, and the one a million-run sweep lives or
dies by; the span API makes it observable without perturbing anything:

* :func:`span` opens a named timer region (monotonic wall-clock, nestable
  — a parent span's total includes its children's);
* spans record into the innermost active :class:`SpanCollector`
  (:func:`collect_spans`); with **no collector active, ``span`` returns a
  shared no-op and costs one context-variable read** — the hot paths of
  the simulator and the drivers stay unperturbed when telemetry is off;
* :class:`SpanStats` aggregates per name (count/total/min/max seconds),
  not per event, so collectors stay O(distinct span names) no matter how
  long the sweep runs.

The experiment drivers open a collector when telemetry is enabled (see
:mod:`repro.obs.telemetry`), pool workers open one per task, and the
checkpoint store wraps its file I/O in ``span("checkpoint.flush")`` /
``span("checkpoint.load")`` — so a sweep can always answer "how much of
my time was simulation vs folding vs checkpoint I/O".

Collectors are ambient, mirroring
:func:`repro.core.simulator.backend_scope`: protocol entry points build
their own simulators, so instrumentation has to be ambient to reach them.
Like that scope, a collector is context-local: spans closed in another
thread never land in it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from typing import Callable, Dict, Iterator, Optional

__all__ = [
    "SpanCollector",
    "SpanStats",
    "Stopwatch",
    "active_collector",
    "collect_spans",
    "span",
]


class SpanStats:
    """Aggregate timings of one span name: count, total, min, max seconds."""

    __slots__ = ("count", "total_seconds", "min_seconds", "max_seconds")

    def __init__(self) -> None:
        self.count = 0
        self.total_seconds = 0.0
        self.min_seconds: Optional[float] = None
        self.max_seconds: Optional[float] = None

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += seconds
        if self.min_seconds is None or seconds < self.min_seconds:
            self.min_seconds = seconds
        if self.max_seconds is None or seconds > self.max_seconds:
            self.max_seconds = seconds

    def merge_dict(self, other: Dict[str, object]) -> None:
        """Fold an :meth:`as_dict` payload (e.g. from a worker) into this."""
        self.count += int(other["count"])
        self.total_seconds += float(other["total_seconds"])
        for field, better in (("min_seconds", min), ("max_seconds", max)):
            theirs = other.get(field)
            if theirs is None:
                continue
            mine = getattr(self, field)
            setattr(
                self,
                field,
                float(theirs) if mine is None else better(mine, float(theirs)),
            )

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "min_seconds": self.min_seconds,
            "max_seconds": self.max_seconds,
        }


class SpanCollector:
    """Receives closed spans; holds one :class:`SpanStats` per span name."""

    def __init__(self) -> None:
        self._stats: Dict[str, SpanStats] = {}

    def record(self, name: str, seconds: float) -> None:
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = SpanStats()
        stats.add(seconds)

    def merge_totals(self, totals: Dict[str, Dict[str, object]]) -> None:
        """Fold another collector's :meth:`totals` payload into this one."""
        for name, payload in totals.items():
            self._stats.setdefault(name, SpanStats()).merge_dict(payload)

    def totals(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready ``{name: {count, total, min, max}}`` aggregates."""
        return {name: stats.as_dict() for name, stats in self._stats.items()}

    def total_seconds(self, name: str) -> float:
        stats = self._stats.get(name)
        return stats.total_seconds if stats is not None else 0.0

    def __len__(self) -> int:
        return len(self._stats)


#: The collector spans of the current context record into, or ``None``.
_COLLECTOR: ContextVar[Optional[SpanCollector]] = ContextVar("spans", default=None)


def active_collector() -> Optional[SpanCollector]:
    """The collector spans currently record into, or ``None``."""
    return _COLLECTOR.get()


@contextmanager
def collect_spans() -> Iterator[SpanCollector]:
    """Collect every span closed inside the scope into a fresh collector.

    Scopes nest and the innermost wins — a pool worker opening a per-task
    collector inside an instrumented sweep isolates its task's spans from
    the driver's, exactly like nested :func:`~repro.core.simulator.backend_scope`.
    A scope is context-local: the thread that opened it sees it, and no
    other thread does.
    """
    collector = SpanCollector()
    token = _COLLECTOR.set(collector)
    try:
        yield collector
    finally:
        _COLLECTOR.reset(token)


class _Span:
    """An open span; closing it (even via an exception) records the timing."""

    __slots__ = ("_name", "_collector", "_started")

    def __init__(self, name: str, collector: SpanCollector) -> None:
        self._name = name
        self._collector = collector
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Record on the exceptional path too: a run that dies mid-span
        # still tells the operator where its time went.
        self._collector.record(self._name, time.perf_counter() - self._started)


#: The shared do-nothing span handed out when no collector is active.
_NULL_SPAN = nullcontext()


def span(name: str):
    """A context manager timing the ``name`` region into the active collector.

    With no collector active (telemetry off) this returns a shared no-op
    object without allocating — the instrumented call sites in the
    drivers, the checkpoint store and the workers cost one context-variable
    read per entry.  Spans record into the collector of the context that
    opened them: another thread's :func:`collect_spans` scope never sees
    them.
    """
    collector = _COLLECTOR.get()
    return _NULL_SPAN if collector is None else _Span(name, collector)


class Stopwatch:
    """Elapsed monotonic seconds since construction (or the last restart).

    The tiny timer shared by the progress reporter and the telemetry
    layer; ``clock`` is injectable so tests can drive it deterministically.
    """

    __slots__ = ("_clock", "_started")

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock if clock is not None else time.monotonic
        self._started = self._clock()

    def elapsed(self) -> float:
        return self._clock() - self._started

    def restart(self) -> None:
        self._started = self._clock()
