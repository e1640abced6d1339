"""Election outcomes pinned by the repository benchmark's reference digests.

``perfbench/reference.json`` records, for every election seed of the
``elect-expander`` (``random_regular:128:8``, graph seed 7) and
``elect-cycle`` (``cycle:32``) pools, the leaders and the full cost of one
irrevocable election.  Kernel optimisations must leave every one of those
figures bit-identical; these tests replay two seeds of each pool under
both simulator backends so a drift shows in the test suite and not only
in a benchmark run.  The reference file is only read here.

The reference digests pin totals only, so one more pin, recorded before
the cautious-broadcast node-step was cut, holds the node-level outcome of
one ``elect-expander`` election: each phase's rounds and messages and a
hash of the per-node results (joined territories, parallel broadcasts,
overflow and the largest walk ID seen).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import api
from repro.cli import parse_topology

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

#: The benchmark's graph seed for random topology families.
TOPOLOGY_SEED = 7

#: workload -> election seeds replayed here (two from each pool).
SEEDS = {"elect-expander": (0, 11), "elect-cycle": (3, 19)}


def _reference(workload: str):
    return json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]


def _digest(result):
    metrics = result.metrics
    return {
        "leaders": list(result.outcome.leader_indices),
        "rounds": metrics.rounds,
        "messages": metrics.messages,
        "bits": metrics.bits,
        "sent": metrics.sent_messages,
        "delivered": metrics.delivered_messages,
    }


@pytest.mark.parametrize("backend", ["event", "round"])
@pytest.mark.parametrize(
    "workload, seed",
    [(workload, seed) for workload, seeds in SEEDS.items() for seed in seeds],
)
def test_election_matches_reference_digest(workload, seed, backend):
    reference = _reference(workload)
    topology = parse_topology(reference["topology"], seed=TOPOLOGY_SEED)
    result = api.run(reference["algorithm"], topology, seed=seed, backend=backend)
    assert _digest(result) == reference["digests"][str(seed)]


#: Election seed 0 of ``elect-expander``: leaders, per-phase
#: ``(rounds, messages)`` and the node-results hash.
BROADCAST_PIN = (
    [93],
    {
        "cautious-broadcast": (6084, 9857),
        "random-walk": (156, 16800),
        "convergecast": (157, 615),
    },
    "0fc78af9ea1ab8ad",
)


@pytest.mark.parametrize("backend", ["event", "round"])
def test_expander_election_matches_node_level_pin(backend):
    reference = _reference("elect-expander")
    topology = parse_topology(reference["topology"], seed=TOPOLOGY_SEED)
    result = api.run(reference["algorithm"], topology, seed=0, backend=backend)
    phases = {
        name: (phase.rounds, phase.messages)
        for name, phase in result.metrics.phases.items()
    }
    nodes = json.dumps(result.node_results, sort_keys=True).encode()
    assert (
        list(result.outcome.leader_indices),
        phases,
        hashlib.sha256(nodes).hexdigest()[:16],
    ) == BROADCAST_PIN
