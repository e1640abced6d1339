"""Experiment ``ablation-cautious``: why "cautious" broadcast (Lemma 1).

The paper's central message-saving device is that candidates do *not* flood
the network: cautious broadcast grows a territory of only ``Θ̃(x·t_mix·Φ)``
nodes, paying ``Õ(x·t_mix)`` messages, whereas an uncontrolled single-source
flood always pays ``Θ(m)`` messages to inform everyone.  This ablation runs
both primitives from the same source on the same graphs and reports
messages and informed-node counts, checking that

* cautious broadcast keeps its territory within a constant factor of the
  configured cap, and
* its message cost is far below the flood's whenever the cap is small
  relative to ``n`` — the regime the full protocol operates in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

import pytest

from repro.core import Message, ProtocolNode, run_protocol
from repro.election import CautiousBroadcastConfig, CautiousBroadcastNode
from repro.graphs import expansion_profile, random_regular, torus_2d

from _harness import record_report, rows_table

EXPERIMENT_ID = "ablation-cautious"
SEED = 3

TOPOLOGIES = [
    random_regular(128, 4, seed=41),
    torus_2d(10, 10),
]


@dataclass(frozen=True)
class FloodToken(Message):
    """Single-source flood announcement used by the ablation baseline."""

    hops: int


class SingleSourceFloodNode(ProtocolNode):
    """Uncontrolled broadcast: forward the announcement once over every port."""

    def __init__(self, num_ports: int, rng: random.Random, *, is_source: bool) -> None:
        super().__init__(num_ports, rng)
        self.informed = is_source
        self._sent = False
        self._halted = False

    @property
    def halted(self) -> bool:
        return self._halted

    def step(self, round_index: int, inbox) -> Dict[int, Message]:
        if inbox:
            self.informed = True
        if self.informed and not self._sent:
            self._sent = True
            return {port: FloodToken(hops=round_index) for port in self.ports()}
        if self._sent:
            self._halted = True
        return {}

    def result(self):
        return {"informed": self.informed}


def _run_flood(topology, seed):
    return run_protocol(
        topology,
        lambda i, p, r: SingleSourceFloodNode(p, r, is_source=(i == 0)),
        max_rounds=topology.num_nodes,
        seed=seed,
    )


def _run_cautious(topology, config, seed):
    return run_protocol(
        topology,
        lambda i, p, r: CautiousBroadcastNode(
            p, r, config=config, is_source=(i == 0), source_id=99
        ),
        max_rounds=config.protocol_rounds + 1,
        seed=seed,
    )


def _run_all():
    rows = []
    for topology in TOPOLOGIES:
        profile = expansion_profile(topology)
        cap = max(4.0, topology.num_nodes ** 0.5)
        config = CautiousBroadcastConfig(
            protocol_rounds=max(32, 4 * profile.mixing_time),
            territory_cap=cap,
        )
        cautious = _run_cautious(topology, config, SEED)
        flood = _run_flood(topology, SEED)
        territory = sum(result["joined"] for result in cautious.results())
        informed = sum(result["informed"] for result in flood.results())
        rows.append(
            {
                "topology": topology.name,
                "n": topology.num_nodes,
                "m": topology.num_edges,
                "territory cap": cap,
                "cautious territory": territory,
                "cautious messages": cautious.metrics.messages,
                "flood informed": informed,
                "flood messages": flood.metrics.messages,
                "message ratio (flood/cautious)": flood.metrics.messages
                / max(1, cautious.metrics.messages),
            }
        )
    return rows


@pytest.mark.benchmark(group=EXPERIMENT_ID)
def test_ablation_cautious_broadcast(benchmark):
    rows = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    record_report(
        EXPERIMENT_ID,
        rows_table(rows, "Cautious broadcast vs uncontrolled flood (single source)"),
    )

    for row in rows:
        # The flood informs everyone and pays Θ(m) messages.
        assert row["flood informed"] == row["n"]
        assert row["flood messages"] >= row["m"]
        # Cautious broadcast stays near its cap (Lemma 1's doubling control)
        # and undercuts the flood by a large factor.
        assert row["cautious territory"] <= 4 * row["territory cap"]
        assert row["cautious territory"] >= 2
        assert row["message ratio (flood/cautious)"] > 2.0
