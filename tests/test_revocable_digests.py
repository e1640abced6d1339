"""Revocable election results pinned at the values of today's kernel.

These digests are the bit-identity oracle for later cuts of the revocable
kernel: every leader, round, message, bit, delivery and CONGEST-violation
count, and a hash of the per-node results, must stay the same under both
simulator backends.  Covered, fault-free: ``complete(4)``, ``cycle(5)`` and
``star(5)`` x seeds 0-1, each election about 0.3-1 s, and ``complete(6)``
seed 0, about 3 s, and ``grid_2d(2, 3)`` (named ``grid(2x3)``) seed 0,
about 6 s: 63,298 rounds and 886,172 messages.  The ``complete(6)`` pin was
recorded before delivery started sizing each message instance once, and the
``grid(2x3)`` pin before certificate absorption learned to skip losing
messages, so each guards its change.  ``cycle:8`` (about 12 s) waits until
the revocable kernel is cut further, so tier-1 does not pay for it now.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import api
from repro.graphs import complete, cycle, grid_2d, star

#: (topology name, seed) -> (leaders, rounds, messages, bits, sent,
#: delivered, dropped, congest violations, node-results hash)
DIGESTS = {
    ('complete(n=4)', 0): ((3,), 4270, 51240, 3948564, 51240, 51240, 0, 49368, '181fdecd31fdab32'),
    ('complete(n=4)', 1): ((0,), 4270, 51240, 3948567, 51240, 51240, 0, 49368, 'a35b70025b6cab41'),
    ('cycle(n=5)', 0): ((3,), 10173, 101730, 8377006, 101730, 101730, 0, 100170, 'fdcabf1bcaa16e44'),
    ('cycle(n=5)', 1): ((0,), 10173, 101730, 8377010, 101730, 101730, 0, 100170, '07ff9b76de7168c9'),
    ('star(n=5)', 0): ((3,), 13620, 108960, 9076092, 108960, 108960, 0, 107712, 'fdcabf1bcaa16e44'),
    ('star(n=5)', 1): ((0,), 13620, 108960, 9076087, 108960, 108960, 0, 107712, '07ff9b76de7168c9'),
    ('complete(n=6)', 0): ((1,), 13865, 415950, 34478825, 415950, 415950, 0, 398850, '1b34ec772237a91f'),
    ('grid(2x3)', 0): ((1,), 63298, 886172, 80243398, 886172, 886172, 0, 878192, '1b34ec772237a91f'),
}

TOPOLOGIES = {
    topology.name: topology
    for topology in (complete(4), complete(6), cycle(5), star(5), grid_2d(2, 3))
}


def _digest(result):
    metrics = result.metrics
    nodes = json.dumps(result.node_results, sort_keys=True).encode()
    return (
        tuple(result.outcome.leader_indices),
        metrics.rounds,
        metrics.messages,
        metrics.bits,
        metrics.sent_messages,
        metrics.delivered_messages,
        metrics.dropped_messages,
        metrics.congest_violations,
        hashlib.sha256(nodes).hexdigest()[:16],
    )


@pytest.mark.parametrize("backend", ["event", "round"])
@pytest.mark.parametrize("name, seed", sorted(DIGESTS), ids=repr)
def test_revocable_election_matches_pinned_digest(name, seed, backend):
    result = api.run("revocable", TOPOLOGIES[name], seed=seed, backend=backend)
    assert _digest(result) == DIGESTS[(name, seed)]
