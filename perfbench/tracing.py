"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

The program has no spans at most layer boundaries yet, so the traced run
wraps the public functions each layer exposes, at the names their callers
actually resolve: a function imported by name (``from ..graphs.spectral
import mixing_time as measure_mixing_time``) is replaced in the importing
module, a method on its class, and the HTTP handler through the server's
``RequestHandlerClass``.  :func:`installed` puts every wrapper in place and
restores the originals on exit, so the untraced part of a run executes the
unmodified program.

Spans are kept in memory: per span name the total seconds and call count,
plus the seconds each named child spent inside it, which is what a layer's
self time subtracts.  Spans opened on different threads (the HTTP server
answers on its own thread) keep separate parent stacks.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "installed", "clock", "thread_clock"]


def clock() -> float:
    """Monotonic seconds; the one clock every benchmark timing goes through."""
    return time.perf_counter()  # repro: disable=REP102 — benchmark wall clock is the measurand


def thread_clock() -> float:
    """CPU seconds of the calling thread (the machine-speed sampler's clock)."""
    return time.thread_time()


class Tracer:
    """In-memory span and counter store for one traced segment."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        #: span name -> [total seconds, calls]
        self.totals: Dict[str, List[float]] = {}
        #: (parent span name, child span name) -> seconds spent in the child
        self.children: Dict[Tuple[str, str], float] = {}
        #: free-form counters (node steps, rows fetched, ...)
        self.counts: Dict[str, int] = {}

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(name)
        started = clock()
        try:
            yield
        finally:
            elapsed = clock() - started
            stack.pop()
            with self._lock:
                entry = self.totals.setdefault(name, [0.0, 0])
                entry[0] += elapsed
                entry[1] += 1
                if parent is not None:
                    key = (parent, name)
                    self.children[key] = self.children.get(key, 0.0) + elapsed

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def seconds(self, name: str) -> float:
        return self.totals.get(name, [0.0, 0])[0]

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, [0.0, 0])[1])

    def self_seconds(self, name: str, children: Sequence[str]) -> float:
        """``name``'s time minus the time its direct ``children`` spans took."""
        inner = sum(self.children.get((name, child), 0.0) for child in children)
        return self.seconds(name) - inner

    def span_count(self) -> int:
        return sum(int(calls) for _, calls in self.totals.values())


def _timed(tracer: Tracer, name: str, function: Callable, rows=None) -> Callable:
    """``function`` inside a span; ``rows(args, result)`` counts rows moved."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = function(*args, **kwargs)
        if rows is not None:
            tracer.count(name + ".rows", rows(args, result))
        return result

    return wrapper


def _count_node_calls(tracer: Tracer, node) -> None:
    """Count one node's steps (productive = non-empty outbox) and horizons."""
    step = node.step
    quiescent_until = node.quiescent_until

    def counted_step(round_index, inbox):
        outbox = step(round_index, inbox)
        tracer.count("sim.node_steps")
        if outbox:
            tracer.count("sim.productive_steps")
        return outbox

    def counted_quiescent_until(round_index):
        tracer.count("sim.quiescent_calls")
        return quiescent_until(round_index)

    node.step = counted_step
    node.quiescent_until = counted_quiescent_until


def _traced_simulator_run(tracer: Tracer, run: Callable) -> Callable:
    """``SynchronousSimulator.run`` timed per protocol phase.

    The phase is the collector's ``current_phase`` on entry (drivers open
    it around each ``run`` call).  The first call on a simulator also wraps
    its nodes, so steps and quiescence queries are counted; node slots
    (rounds executed times nodes) are the base of the active fraction.
    """

    @functools.wraps(run)
    def wrapper(self, max_rounds, **kwargs):
        if not getattr(self, "_perfbench_counted", False):
            for node in self.nodes:
                _count_node_calls(tracer, node)
            self._perfbench_counted = True
        phase = self.metrics.current_phase or "unphased"
        rounds_before = self.metrics.rounds
        with tracer.span("sim.run." + phase):
            result = run(self, max_rounds, **kwargs)
        tracer.count(
            "sim.node_slots", (self.metrics.rounds - rounds_before) * len(self.nodes)
        )
        return result

    return wrapper


def _targets(tracer: Tracer, handler_class: Optional[type]) -> List[Tuple[object, str, Callable]]:
    """Every (owner, attribute, wrapper) the traced run installs."""
    import repro.analysis.experiments as experiments
    import repro.analysis.robustness as robustness
    import repro.archive.query as query
    import repro.baselines.flooding as flooding
    import repro.baselines.gilbert as gilbert
    import repro.election.irrevocable as irrevocable
    import repro.parallel.runner as runner
    from repro.analysis.streaming import CellAggregatingSink
    from repro.archive.store import ResultArchive
    from repro.core.simulator import SynchronousSimulator
    from repro.parallel.store import JsonlCheckpointStore

    def timed(owner, attribute, name, rows=None):
        return (owner, attribute, _timed(tracer, name, getattr(owner, attribute), rows))

    targets = [
        (
            SynchronousSimulator,
            "run",
            _traced_simulator_run(tracer, SynchronousSimulator.run),
        ),
        timed(irrevocable, "measure_mixing_time", "graphs.mixing_time"),
        timed(gilbert, "measure_mixing_time", "graphs.mixing_time"),
        timed(irrevocable, "measure_conductance", "graphs.conductance"),
        timed(experiments, "expansion_profile", "graphs.expansion_profile"),
        timed(JsonlCheckpointStore, "add", "store.add"),
        timed(JsonlCheckpointStore, "flush", "store.flush"),
        timed(JsonlCheckpointStore, "load", "store.load"),
        timed(CellAggregatingSink, "emit", "fold.emit"),
        timed(runner, "cell_from_aggregate", "fold.cell"),
        timed(robustness, "fold_experiments", "fold.curves"),
        timed(robustness, "curves_as_dicts", "fold.curves"),
        timed(
            ResultArchive, "fetch", "archive.fetch", rows=lambda args, result: len(result)
        ),
        timed(
            ResultArchive,
            "add_records",
            "archive.add",
            rows=lambda args, result: len(args[1]),
        ),
        timed(query, "query_experiments", "query"),
        timed(query, "run_experiments", "query.run_experiments"),
    ]
    for module in (irrevocable, flooding, gilbert):
        targets.append(timed(module, "build_nodes", "sim.build_nodes"))
        targets.append(
            timed(module, "election_result_from_simulation", "election.result")
        )
    if handler_class is not None:
        targets.append(timed(handler_class, "do_GET", "http.handler"))
    return targets


@contextmanager
def installed(tracer: Tracer, *, handler_class: Optional[type] = None) -> Iterator[Tracer]:
    """Install every layer wrapper for the duration of the block."""
    originals = []
    try:
        for owner, attribute, wrapper in _targets(tracer, handler_class):
            originals.append((owner, attribute, owner.__dict__[attribute]))
            setattr(owner, attribute, wrapper)
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
