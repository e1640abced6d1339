"""Deterministic randomness management.

Every experiment in the library is driven by a single integer seed.  From
that seed we derive independent, reproducible child random generators — one
per protocol node, plus extra streams for topology generation and for the
experiment driver itself.  Children are derived with
:class:`numpy.random.SeedSequence`, which guarantees well-distributed,
non-overlapping streams, and are exposed as :class:`random.Random` objects
because protocol code only needs cheap scalar draws.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence

import numpy as np

__all__ = [
    "DEFAULT_SEED",
    "make_rng",
    "spawn_child_rngs",
    "spawn_numpy_generators",
    "derive_seed",
    "RngStream",
]

DEFAULT_SEED = 0x5EED


def make_rng(seed: Optional[int] = None) -> random.Random:
    """Return a :class:`random.Random` seeded deterministically.

    ``None`` maps to :data:`DEFAULT_SEED` so that "unseeded" runs are still
    reproducible; callers that want OS entropy must ask for it explicitly.
    """
    if seed is None:
        seed = DEFAULT_SEED
    return random.Random(seed)


def derive_seed(seed: Optional[int], *scope: object) -> int:
    """Derive a new integer seed from ``seed`` and a scope description.

    The scope is any hashable sequence of labels (strings, ints) naming the
    consumer, e.g. ``derive_seed(seed, "topology", n)``.  The derivation is
    stable across processes and Python versions because it avoids the
    built-in randomized ``hash``.
    """
    if seed is None:
        seed = DEFAULT_SEED
    material = repr((int(seed),) + tuple(scope)).encode("utf-8")
    # A small, explicit FNV-1a so the derivation does not depend on numpy
    # internals or on Python's salted string hashing.
    acc = 0xCBF29CE484222325
    prime = 0x100000001B3
    for byte in material:
        acc = ((acc ^ byte) * prime) & 0xFFFF_FFFF_FFFF_FFFF
    return acc


def spawn_child_rngs(seed: Optional[int], count: int) -> List[random.Random]:
    """Spawn ``count`` independent :class:`random.Random` children.

    The children are suitable for per-node protocol randomness: they are
    statistically independent streams derived from a single experiment seed.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if seed is None:
        seed = DEFAULT_SEED
    seq = np.random.SeedSequence(seed)
    children = seq.spawn(count)
    rngs: List[random.Random] = []
    for child in children:
        # ``generate_state`` gives 32-bit words; combine two for a 64-bit seed.
        words = child.generate_state(2)
        rngs.append(random.Random(int(words[0]) << 32 | int(words[1])))
    return rngs


def spawn_numpy_generators(seed: Optional[int], count: int) -> List[np.random.Generator]:
    """Spawn ``count`` independent numpy :class:`~numpy.random.Generator`."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if seed is None:
        seed = DEFAULT_SEED
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


class RngStream:
    """An inexhaustible iterator of child RNGs derived from one seed.

    Useful when the number of consumers is not known in advance (for
    example when an experiment sweep decides dynamically how many repeats
    to run).
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = DEFAULT_SEED if seed is None else int(seed)
        self._seq = np.random.SeedSequence(self._seed)
        self._drawn = 0

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def drawn(self) -> int:
        """Number of child generators handed out so far."""
        return self._drawn

    def next_rng(self) -> random.Random:
        """Return the next child :class:`random.Random`."""
        child = self._seq.spawn(1)[0]
        self._drawn += 1
        words = child.generate_state(2)
        return random.Random(int(words[0]) << 32 | int(words[1]))

    def next_seed(self) -> int:
        """Return the next child as a plain integer seed."""
        child = self._seq.spawn(1)[0]
        self._drawn += 1
        words = child.generate_state(2)
        return int(words[0]) << 32 | int(words[1])

    def take(self, count: int) -> Sequence[random.Random]:
        """Return ``count`` fresh child RNGs."""
        return [self.next_rng() for _ in range(count)]

    def __iter__(self) -> Iterator[random.Random]:
        while True:
            yield self.next_rng()
