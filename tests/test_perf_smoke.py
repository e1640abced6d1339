"""Performance smoke tests for the simulator hot path and parallel engine.

These are tier-1 guardrails, not benchmarks: the time caps are deliberately
generous (an order of magnitude above observed timings) so they only fire
on genuine regressions — e.g. the delivery loop falling back to per-message
endpoint resolution or per-message metrics calls, or the parallel engine
serialising absurd amounts of state.  The real serial-vs-parallel speedup
trajectory is recorded by ``benchmarks/bench_parallel_sweep.py``.
"""

from __future__ import annotations

import random
import time
from typing import Dict

from repro.analysis import ExperimentSpec, run_experiment
from repro.core import Message, ProtocolNode, SynchronousSimulator, build_nodes
from repro.graphs import cycle, random_regular, star
from repro.parallel import SweepConfig, run_experiments


class ChattyNode(ProtocolNode):
    """Sends through every port every round — a pure hot-path workload."""

    def step(self, round_index: int, inbox) -> Dict[int, Message]:
        return {port: Message() for port in self.ports()}


def test_simulator_hot_path_smoke():
    topology = random_regular(128, 4, seed=3)
    nodes = build_nodes(topology, lambda i, p, r: ChattyNode(p, r), seed=0)
    simulator = SynchronousSimulator(topology, nodes)
    rounds = 150
    started = time.perf_counter()
    for _ in range(rounds):
        simulator.run_round()
    elapsed = time.perf_counter() - started
    # 128 nodes x 4 ports x 150 rounds = 76_800 messages; observed well
    # under a second — the cap only catches order-of-magnitude regressions.
    assert simulator.metrics.messages == 128 * 4 * rounds
    assert simulator.metrics.rounds == rounds
    assert elapsed < 10.0, f"hot path took {elapsed:.2f}s for {rounds} rounds"


def test_parallel_engine_smoke():
    spec = ExperimentSpec(
        name="smoke",
        protocol="flooding",
        topologies=[cycle(12), star(12), random_regular(16, 4, seed=2)],
        seeds=(0, 1),
        collect_profile=False,
    )
    started = time.perf_counter()
    serial = run_experiment(spec)
    parallel = run_experiments([spec], config=SweepConfig(workers=2))[0]
    elapsed = time.perf_counter() - started
    assert [c.mean_messages for c in parallel.cells] == [
        c.mean_messages for c in serial.cells
    ]
    # Pool startup plus a trivial sweep; generous cap to stay robust on
    # loaded single-core CI runners.
    assert elapsed < 60.0, f"parallel smoke sweep took {elapsed:.2f}s"
