"""Gilbert baseline results pinned at the values of its dataclass-token kernel.

The benchmark's ``query-mix`` check compares query cells against a sweep
run by the same code, so it cannot see a kernel that drifts.  These
digests were recorded before the token hop was rewritten (tuple tokens,
inline port draws, quiescent idle nodes): every leader, round, message,
bit and delivery count, and a hash of the per-node results, must stay
bit-identical under both simulator backends.  Covered: the ``tiny``
suite x seeds 0-2, fault-free and under ``loss p=0.05``, plus
``hypercube(d=6)`` for seed 0.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import api
from repro.dynamics.spec import AdversarySpec
from repro.graphs import hypercube
from repro.workloads import tiny_suite

ADVERSARIES = {None: None, "loss": AdversarySpec.create("loss", p=0.05)}

#: (topology name, seed, adversary) -> (leaders, rounds, messages, bits,
#: sent, delivered, dropped, node-results hash)
DIGESTS = {
    ('complete(n=4)', 0, "loss"): ((1,), 22, 79, 1686, 66, 62, 4, 'bb5cdcb920dadb20'),
    ('complete(n=4)', 0, None): ((1,), 22, 94, 1974, 72, 72, 0, 'bb5cdcb920dadb20'),
    ('complete(n=4)', 1, "loss"): ((0,), 22, 84, 1835, 72, 69, 3, 'ef2cb49eeda02df1'),
    ('complete(n=4)', 1, None): ((0,), 22, 94, 2051, 79, 79, 0, 'a71a2061777ba6c6'),
    ('complete(n=4)', 2, "loss"): ((0,), 22, 62, 1369, 50, 47, 3, '45e4ddf2bf0160ed'),
    ('complete(n=4)', 2, None): ((0,), 22, 65, 1447, 55, 55, 0, 'e1499911a65a6b3e'),
    ('complete(n=6)', 0, "loss"): ((0,), 37, 196, 5487, 174, 167, 7, '7cae2055171b6a25'),
    ('complete(n=6)', 0, None): ((0,), 37, 251, 6999, 213, 213, 0, '7cae2055171b6a25'),
    ('complete(n=6)', 1, "loss"): ((1,), 37, 141, 4006, 128, 124, 4, '9cbbefab053b36ee'),
    ('complete(n=6)', 1, None): ((1,), 37, 166, 4679, 149, 149, 0, '9cbbefab053b36ee'),
    ('complete(n=6)', 2, "loss"): ((0,), 37, 270, 7191, 226, 208, 18, 'f175013c74d7e8dd'),
    ('complete(n=6)', 2, None): ((0,), 37, 387, 10181, 314, 314, 0, 'c9a79595d674e965'),
    ('cycle(n=5)', 0, "loss"): ((4,), 43, 222, 5532, 153, 143, 10, 'f0140ae0d9499201'),
    ('cycle(n=5)', 0, None): ((4,), 43, 339, 8384, 226, 226, 0, 'f0140ae0d9499201'),
    ('cycle(n=5)', 1, "loss"): ((1,), 43, 187, 4846, 145, 137, 8, 'b1caaee8427e909a'),
    ('cycle(n=5)', 1, None): ((1,), 43, 243, 6174, 166, 166, 0, '5463b220f1653921'),
    ('cycle(n=5)', 2, "loss"): ((0,), 43, 233, 5693, 159, 153, 6, '32af762508f3935c'),
    ('cycle(n=5)', 2, None): ((0,), 43, 272, 6621, 186, 186, 0, 'de92c7eaff96d468'),
    ('grid(2x3)', 0, "loss"): ((0,), 58, 216, 6323, 183, 167, 16, '0e1c69fbfb7b300e'),
    ('grid(2x3)', 0, None): ((0,), 58, 425, 11884, 321, 321, 0, '7cae2055171b6a25'),
    ('grid(2x3)', 1, "loss"): ((1,), 58, 207, 5957, 182, 170, 12, '05d345b2b1426e3a'),
    ('grid(2x3)', 1, None): ((1,), 58, 282, 8011, 241, 241, 0, '9cbbefab053b36ee'),
    ('grid(2x3)', 2, "loss"): ((0,), 58, 471, 12582, 349, 333, 16, 'c9a79595d674e965'),
    ('grid(2x3)', 2, None): ((0,), 58, 666, 17341, 408, 408, 0, 'c9a79595d674e965'),
    ('hypercube(d=6)', 0, None): ((32,), 379, 50960, 2822500, 40645, 40645, 0, 'c55397d090666a45'),
    ('star(n=5)', 0, "loss"): ((4,), 34, 203, 4914, 116, 111, 5, '25252912bc407035'),
    ('star(n=5)', 0, None): ((4,), 34, 261, 6243, 133, 133, 0, 'f0140ae0d9499201'),
    ('star(n=5)', 1, "loss"): ((1,), 34, 156, 3942, 102, 98, 4, '5463b220f1653921'),
    ('star(n=5)', 1, None): ((1,), 34, 178, 4470, 117, 117, 0, '5463b220f1653921'),
    ('star(n=5)', 2, "loss"): ((0,), 34, 188, 4521, 120, 111, 9, '2940b2632ef3024e'),
    ('star(n=5)', 2, None): ((0,), 34, 229, 5446, 137, 137, 0, 'de92c7eaff96d468'),
}

TOPOLOGIES = {topology.name: topology for topology in tiny_suite()}
TOPOLOGIES["hypercube(d=6)"] = hypercube(6)


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
        hashlib.sha256(nodes).hexdigest()[:16],
    )


@pytest.mark.parametrize("backend", ["event", "round"])
@pytest.mark.parametrize("name, seed, adversary", sorted(DIGESTS, key=repr), ids=repr)
def test_gilbert_election_matches_pinned_digest(name, seed, adversary, backend):
    result = api.run(
        "gilbert",
        TOPOLOGIES[name],
        seed=seed,
        adversary=ADVERSARIES[adversary],
        backend=backend,
    )
    assert _digest(result) == DIGESTS[(name, seed, adversary)]
