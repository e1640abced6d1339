"""Election results pinned per adversary model, on both simulator cores.

``test_backend_equivalence`` compares the round and event cores with each
other, so a change that alters both alike -- say, an adversary hook the
shared run loop stops calling -- passes it.  These digests are absolute:
they were recorded before the run loop learned to skip the hooks an
adversary does not override, and every run must still reproduce them.

Covered: flooding on ``grid(3x3)``, the Gilbert baseline on ``cycle(6)``
and the irrevocable election on ``hypercube(d=3)``, each for seeds 0-1
under ``crash``, ``delay``, ``skew``, ``churn`` and a composition of
crash, delay and churn.  A digest holds the leaders, rounds, messages,
bits, sent, delivered, dropped and delayed counts, the adversary's fault
events and a hash of the per-node results.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import api
from repro.dynamics.spec import AdversarySpec
from repro.graphs import cycle, grid_2d, hypercube

TOPOLOGIES = {"flooding": grid_2d(3, 3), "gilbert": cycle(6), "irrevocable": hypercube(3)}

ADVERSARIES = {
    "crash": AdversarySpec.create("crash", p=0.3, horizon=6),
    "delay": AdversarySpec.create("delay", p=0.3, max_delay=2),
    "skew": AdversarySpec.create("skew", p=0.4, max_skew=2),
    "churn": AdversarySpec.create("churn", p_down=0.2, p_up=0.5),
    "composed": AdversarySpec.create(
        "composed",
        models="crash+delay+churn",
        **{"crash.p": 0.2, "crash.horizon": 6, "delay.p": 0.2, "churn.p_down": 0.1},
    ),
}

#: (protocol, adversary, seed) -> (leaders, rounds, messages, bits, sent,
#: delivered, dropped, delayed, fault events, node-results hash)
DIGESTS = {
    ('flooding', 'crash', 0): ((), 6, 48, 750, 48, 48, 0, 0, (('fault.node-crash', 2),), '43d47c3e12e590c7'),
    ('flooding', 'crash', 1): ((5,), 6, 38, 591, 38, 33, 5, 0, (('fault.node-crash', 1),), '1bf78665e79ae6e2'),
    ('flooding', 'delay', 0): ((7,), 6, 50, 782, 50, 46, 4, 10, (), 'f4b276a97621c74c'),
    ('flooding', 'delay', 1): ((5,), 6, 38, 600, 38, 35, 3, 13, (), '2341ffdb4bc13559'),
    ('flooding', 'skew', 0): ((7,), 6, 50, 782, 50, 48, 0, 23, (('fault.skewed-links', 5),), 'f4b276a97621c74c'),
    ('flooding', 'skew', 1): ((5,), 6, 38, 600, 38, 37, 0, 13, (('fault.skewed-links', 4),), '2341ffdb4bc13559'),
    ('flooding', 'churn', 0): ((7,), 6, 43, 674, 43, 34, 9, 0, (('fault.disconnected-rounds', 3), ('fault.link-down-rounds', 20)), 'f4b276a97621c74c'),
    ('flooding', 'churn', 1): ((5,), 6, 37, 584, 37, 21, 16, 0, (('fault.disconnected-rounds', 3), ('fault.link-down-rounds', 26)), '8ea6a60ce6fd4894'),
    ('flooding', 'composed', 0): ((), 6, 43, 674, 43, 33, 10, 11, (('fault.link-down-rounds', 13), ('fault.node-crash', 1)), 'fdd6834741ed8c98'),
    ('flooding', 'composed', 1): ((5,), 6, 39, 616, 39, 26, 10, 9, (('fault.link-down-rounds', 12),), '2341ffdb4bc13559'),
    ('gilbert', 'crash', 0): ((0,), 58, 436, 12069, 295, 295, 0, 0, (), '7cae2055171b6a25'),
    ('gilbert', 'crash', 1): ((1,), 58, 78, 2337, 72, 65, 7, 0, (('fault.node-crash', 1),), 'dab684dfffeeea7a'),
    ('gilbert', 'delay', 0): ((0,), 58, 260, 7426, 206, 191, 15, 61, (), '8aceed31b1a70c90'),
    ('gilbert', 'delay', 1): ((1,), 58, 214, 6158, 183, 175, 8, 67, (), '032f9dd46577a4db'),
    ('gilbert', 'skew', 0): ((0,), 58, 427, 11879, 305, 305, 0, 66, (('fault.skewed-links', 1),), '7cae2055171b6a25'),
    ('gilbert', 'skew', 1): ((1,), 58, 236, 6774, 205, 205, 0, 164, (('fault.skewed-links', 5),), '9cbbefab053b36ee'),
    ('gilbert', 'churn', 0): ((0, 4), 58, 84, 2452, 65, 44, 21, 0, (('fault.disconnected-rounds', 32), ('fault.link-down-rounds', 98)), 'e93135cbe97d3d14'),
    ('gilbert', 'churn', 1): ((1, 2), 58, 71, 2101, 62, 43, 19, 0, (('fault.disconnected-rounds', 35), ('fault.link-down-rounds', 108)), '23b0b4f6e7572a84'),
    ('gilbert', 'composed', 0): ((), 58, 38, 1124, 26, 18, 8, 4, (('fault.disconnected-rounds', 18), ('fault.link-down-rounds', 62), ('fault.node-crash', 4)), '91dfcf13ffa8f324'),
    ('gilbert', 'composed', 1): ((1, 2), 58, 54, 1595, 48, 32, 16, 9, (('fault.disconnected-rounds', 11), ('fault.link-down-rounds', 50), ('fault.node-crash', 1)), 'd6f5ea13db542e05'),
    ('irrevocable', 'crash', 0): ((0,), 400, 241, 3483, 241, 206, 35, 0, (('fault.node-crash', 2),), '85d2fab5ebbdcf36'),
    ('irrevocable', 'crash', 1): ((7,), 400, 220, 3363, 220, 197, 23, 0, (('fault.node-crash', 1),), '3049683da6a1ab42'),
    ('irrevocable', 'delay', 0): ((0,), 400, 343, 4911, 343, 327, 16, 103, (), '404093666b435154'),
    ('irrevocable', 'delay', 1): ((7,), 400, 323, 4953, 323, 309, 14, 113, (), '62318bb18efbd1ba'),
    ('irrevocable', 'skew', 0): ((0,), 400, 396, 5736, 396, 396, 0, 73, (('fault.skewed-links', 2),), '404093666b435154'),
    ('irrevocable', 'skew', 1): ((7,), 400, 402, 6190, 402, 402, 0, 120, (('fault.skewed-links', 4),), '62318bb18efbd1ba'),
    ('irrevocable', 'churn', 0): ((0,), 400, 144, 2000, 144, 100, 44, 0, (('fault.disconnected-rounds', 86), ('fault.link-down-rounds', 1376)), '32b13de8ab9d8053'),
    ('irrevocable', 'churn', 1): ((7,), 400, 108, 1662, 108, 68, 40, 0, (('fault.disconnected-rounds', 66), ('fault.link-down-rounds', 1315)), '3d7a898700109430'),
    ('irrevocable', 'composed', 0): ((5,), 400, 89, 1186, 89, 64, 25, 10, (('fault.disconnected-rounds', 10), ('fault.link-down-rounds', 731), ('fault.node-crash', 2)), 'ce10f3cbaebe77da'),
    ('irrevocable', 'composed', 1): ((2,), 400, 54, 818, 54, 29, 25, 1, (('fault.disconnected-rounds', 23), ('fault.link-down-rounds', 811), ('fault.node-crash', 3)), '561396e8876d3adf'),
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
        metrics.delayed_messages,
        tuple(sorted(metrics.events.items())),
        hashlib.sha256(nodes).hexdigest()[:16],
    )


@pytest.mark.parametrize("backend", ["event", "round"])
@pytest.mark.parametrize("protocol, adversary, seed", sorted(DIGESTS), ids=repr)
def test_election_under_adversary_matches_pinned_digest(protocol, adversary, seed, backend):
    result = api.run(
        protocol,
        TOPOLOGIES[protocol],
        seed=seed,
        adversary=ADVERSARIES[adversary],
        backend=backend,
    )
    assert _digest(result) == DIGESTS[(protocol, adversary, seed)]
