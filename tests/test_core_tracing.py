"""Unit tests for the trace recorder."""

from __future__ import annotations

import json

import pytest

from repro.core import (
    ConfigurationError,
    NullTraceRecorder,
    TraceEvent,
    TraceRecorder,
    active_trace,
    trace_scope,
)
from repro.core.simulator import SynchronousSimulator


class TestTraceRecorder:
    def test_records_events(self):
        trace = TraceRecorder()
        trace.record(0, "send", node=1, port=2)
        trace.record(1, "halt", node=1)
        assert len(trace) == 2
        assert trace.events[0].kind == "send"
        assert trace.events[0].detail == {"port": 2}

    def test_filter_by_kind_and_node(self):
        trace = TraceRecorder()
        trace.record(0, "send", node=1)
        trace.record(0, "send", node=2)
        trace.record(1, "halt", node=1)
        assert len(trace.of_kind("send")) == 2
        assert len(trace.for_node(1)) == 2

    def test_disabled_recorder_is_noop(self):
        trace = TraceRecorder(enabled=False)
        trace.record(0, "send")
        assert len(trace) == 0

    def test_max_events_drops_overflow(self):
        trace = TraceRecorder(max_events=2)
        for i in range(5):
            trace.record(i, "tick")
        assert len(trace) == 2
        assert trace.dropped == 3

    def test_negative_max_events_rejected(self):
        with pytest.raises(ConfigurationError, match="max_events must be >= 0"):
            TraceRecorder(max_events=-3)

    def test_zero_max_events_only_counts(self):
        trace = TraceRecorder(max_events=0)
        trace.record(0, "tick")
        assert len(trace) == 0
        assert trace.dropped == 1

    def test_clear(self):
        trace = TraceRecorder(max_events=1)
        trace.record(0, "a")
        trace.record(0, "b")
        trace.clear()
        assert len(trace) == 0
        assert trace.dropped == 0

    def test_iteration(self):
        trace = TraceRecorder()
        trace.record(0, "a")
        assert [event.kind for event in trace] == ["a"]

    def test_str_contains_round_and_kind(self):
        event = TraceEvent(round_index=3, kind="send", node=1, detail={"p": 1})
        text = str(event)
        assert "send" in text and "3" in text


class TestNullTraceRecorder:
    def test_never_records(self):
        trace = NullTraceRecorder()
        trace.record(0, "send", node=1)
        assert len(trace) == 0
        assert trace.events == []


class TestTraceExport:
    def test_summary_reports_kept_and_dropped(self):
        trace = TraceRecorder(max_events=2)
        for i in range(5):
            trace.record(i, "tick")
        assert trace.summary() == {"events": 2, "dropped": 3}

    def test_to_jsonl_round_trips_events(self, tmp_path):
        trace = TraceRecorder(max_events=2)
        trace.record(0, "send", node=1, port=2)
        trace.record(3, "halt", node=1)
        trace.record(4, "late", node=0)  # dropped by the cap
        path = trace.to_jsonl(tmp_path / "trace.jsonl")
        lines = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        # Header first: a consumer can tell a truncated trace apart
        # without re-running the simulation.
        assert lines[0] == {"kind": "trace", "events": 2, "dropped": 1}
        assert lines[1] == {
            "round": 0,
            "event": "send",
            "node": 1,
            "detail": {"port": 2},
        }
        assert lines[2]["event"] == "halt"
        assert len(lines) == 3

    def test_to_jsonl_stringifies_unencodable_details(self, tmp_path):
        trace = TraceRecorder()
        trace.record(0, "odd", node=0, payload=object())
        path = trace.to_jsonl(tmp_path / "trace.jsonl")
        lines = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert lines[1]["event"] == "odd"
        assert "object object" in lines[1]["detail"]["payload"]

    def test_to_jsonl_creates_parent_directories(self, tmp_path):
        trace = TraceRecorder()
        path = trace.to_jsonl(tmp_path / "deep" / "dir" / "trace.jsonl")
        assert path.exists()


class TestTraceScope:
    def test_scope_is_ambient_and_nested_innermost_wins(self):
        outer, inner = TraceRecorder(), TraceRecorder()
        assert active_trace() is None
        with trace_scope(outer):
            assert active_trace() is outer
            with trace_scope(inner):
                assert active_trace() is inner
            assert active_trace() is outer
        assert active_trace() is None

    def test_scope_is_invisible_to_other_threads(self, scope_in_other_thread):
        mine = TraceRecorder()
        with scope_in_other_thread(trace_scope(TraceRecorder())) as leave:
            assert active_trace() is None
            with trace_scope(mine):
                leave()
                # The helper closing its scope leaves this thread's alone.
                assert active_trace() is mine
            assert active_trace() is None

    def test_simulator_picks_up_ambient_recorder(self):
        from repro.core import build_nodes, PassiveNode
        from repro.graphs import cycle

        topology = cycle(4)
        recorder = TraceRecorder()
        with trace_scope(recorder):
            simulator = SynchronousSimulator(
                topology, build_nodes(topology, lambda i, p, r: PassiveNode(p, r), seed=0)
            )
        assert simulator.trace is recorder

    def test_explicit_trace_argument_wins_over_scope(self):
        from repro.core import build_nodes, PassiveNode
        from repro.graphs import cycle

        topology = cycle(4)
        ambient, explicit = TraceRecorder(), TraceRecorder()
        with trace_scope(ambient):
            simulator = SynchronousSimulator(
                topology,
                build_nodes(topology, lambda i, p, r: PassiveNode(p, r), seed=0),
                trace=explicit,
            )
        assert simulator.trace is explicit

    def test_outside_scope_simulator_defaults_to_null(self):
        from repro.core import build_nodes, PassiveNode
        from repro.graphs import cycle

        topology = cycle(4)
        simulator = SynchronousSimulator(
            topology, build_nodes(topology, lambda i, p, r: PassiveNode(p, r), seed=0)
        )
        assert isinstance(simulator.trace, NullTraceRecorder)
