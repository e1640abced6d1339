"""Lightweight execution tracing.

Protocol debugging in a synchronous message-passing simulation benefits
from a structured trace of what happened in each round: which node sent
what through which port, when nodes changed protocol phase, when a node
halted.  The :class:`TraceRecorder` collects such events cheaply (it is a
no-op unless enabled) and the tests and examples use it to assert on and to
display protocol behaviour.

Traces stop at the process boundary by design (events reference live
protocol state), but they no longer stop at the Python boundary:
:meth:`TraceRecorder.to_jsonl` exports a structured JSONL file — a
header line with the event/drop counts, then one JSON line per event —
and :meth:`TraceRecorder.summary` reports what was kept vs dropped, so
run output can always say whether a bounded trace is complete.

:func:`trace_scope` is the ambient route into the simulator, mirroring
:func:`repro.core.simulator.backend_scope`: protocol entry points build
their own simulators internally, so attaching a recorder to a run driven
through the protocol registry (``repro-le elect --trace``) has to happen
ambiently rather than through every protocol signature.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from .errors import ConfigurationError

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "NullTraceRecorder",
    "active_trace",
    "trace_scope",
]


@dataclass(frozen=True)
class TraceEvent:
    """A single trace record."""

    round_index: int
    kind: str
    node: Optional[int] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f"node {self.node}" if self.node is not None else "network"
        extras = ", ".join(f"{k}={v!r}" for k, v in sorted(self.detail.items()))
        return f"[r{self.round_index:>5}] {where}: {self.kind}" + (
            f" ({extras})" if extras else ""
        )


class TraceRecorder:
    """Collects :class:`TraceEvent` records during a simulation."""

    def __init__(self, enabled: bool = True, max_events: Optional[int] = None) -> None:
        # A cap of 0 is valid: the trace then only counts what it drops.
        if max_events is not None and max_events < 0:
            raise ConfigurationError(f"max_events must be >= 0, got {max_events}")
        self.enabled = enabled
        self.max_events = max_events
        self._events: List[TraceEvent] = []
        self._dropped = 0

    def record(
        self,
        round_index: int,
        kind: str,
        node: Optional[int] = None,
        **detail: Any,
    ) -> None:
        """Record one event (silently dropped when disabled or full)."""
        if not self.enabled:
            return
        if self.max_events is not None and len(self._events) >= self.max_events:
            self._dropped += 1
            return
        self._events.append(TraceEvent(round_index, kind, node, dict(detail)))

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    @property
    def dropped(self) -> int:
        """Number of events dropped because ``max_events`` was reached."""
        return self._dropped

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """All recorded events of the given kind."""
        return [event for event in self._events if event.kind == kind]

    def for_node(self, node: int) -> List[TraceEvent]:
        """All recorded events attributed to ``node``."""
        return [event for event in self._events if event.node == node]

    def clear(self) -> None:
        self._events.clear()
        self._dropped = 0

    def summary(self) -> Dict[str, int]:
        """Kept/dropped counts for run output.

        ``dropped`` being nonzero is the signal that a ``max_events``
        bound truncated the trace — surfacing it is the difference
        between "the protocol did this" and "the recorder kept this".
        """
        return {"events": len(self._events), "dropped": self._dropped}

    def to_jsonl(self, path: Union[str, Path]) -> Path:
        """Export the trace as JSONL: a header line, then one event per line.

        The header carries :meth:`summary`, so a consumer of the file can
        tell a complete trace from a truncated one without re-running.
        Event details hold arbitrary protocol state; values that are not
        JSON-encodable are exported as their ``repr`` rather than
        aborting the export (a trace dump is a debugging artifact, and a
        lossy field beats no file).
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"kind": "trace", **self.summary()}, sort_keys=True)
                + "\n"
            )
            for event in self._events:
                record = {
                    "round": event.round_index,
                    "event": event.kind,
                    "node": event.node,
                    "detail": event.detail,
                }
                try:
                    line = json.dumps(record, sort_keys=True)
                except (TypeError, ValueError):
                    record["detail"] = {
                        key: repr(value) for key, value in event.detail.items()
                    }
                    line = json.dumps(record, sort_keys=True)
                handle.write(line + "\n")
        return path


class NullTraceRecorder(TraceRecorder):
    """A recorder that never stores anything (default for benchmarks)."""

    def __init__(self) -> None:
        super().__init__(enabled=False)

    def record(self, round_index: int, kind: str, node: Optional[int] = None, **detail: Any) -> None:
        return


#: The ambient recorder of the current context, or ``None`` (see
#: ``trace_scope``).
_TRACE: ContextVar[Optional[TraceRecorder]] = ContextVar("trace", default=None)


def active_trace() -> Optional[TraceRecorder]:
    """The recorder simulators should default to in this scope, if any."""
    return _TRACE.get()


@contextmanager
def trace_scope(recorder: TraceRecorder) -> Iterator[TraceRecorder]:
    """Route every simulator built in the scope to ``recorder``.

    Mirrors :func:`repro.core.simulator.backend_scope`: protocol entry
    points construct their own simulators internally, so a caller that
    wants a trace of a registry-driven run (``repro-le elect --trace``)
    attaches the recorder ambiently.  An explicit ``trace=`` argument to
    a simulator still wins over the ambient scope; scopes nest and the
    innermost wins.  A scope is context-local: the thread that opened it
    sees it, and no other thread does.
    """
    token = _TRACE.set(recorder)
    try:
        yield recorder
    finally:
        _TRACE.reset(token)
