"""Unit tests for deterministic randomness management."""

from __future__ import annotations

import pytest

from repro.core import DEFAULT_SEED, RngStream, derive_seed, make_rng, spawn_child_rngs
from repro.core.rng import spawn_numpy_generators


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(7)
        b = make_rng(7)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_none_uses_default_seed(self):
        a = make_rng(None)
        b = make_rng(DEFAULT_SEED)
        assert a.random() == b.random()

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, "topology", 16) == derive_seed(3, "topology", 16)

    def test_scope_changes_value(self):
        assert derive_seed(3, "topology", 16) != derive_seed(3, "topology", 17)
        assert derive_seed(3, "a") != derive_seed(3, "b")

    def test_seed_changes_value(self):
        assert derive_seed(3, "x") != derive_seed(4, "x")

    def test_none_seed_uses_default(self):
        assert derive_seed(None, "x") == derive_seed(DEFAULT_SEED, "x")

    @pytest.mark.parametrize(
        "args, expected",
        [
            ((None, "x"), 18137828932930932658),
            ((0,), 15616008197132516646),
            ((0, "topology", 5), 15505670827146410790),
            ((7, "node", 3, "walk"), 9711755304669167709),
            ((2**64 - 1, "spec", (1, 2), "a|b"), 5506802764530859669),
            ((-3, "neg", 1.5), 11894857255455467082),
        ],
    )
    def test_pinned_values(self, args, expected):
        # Task keys, derived seeds and topology fingerprints are built on
        # these values; checkpoints and archives written by any build must
        # keep matching them.
        assert derive_seed(*args) == expected


class TestSpawnChildRngs:
    def test_count(self):
        assert len(spawn_child_rngs(1, 5)) == 5
        assert spawn_child_rngs(1, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_child_rngs(1, -1)

    def test_children_are_independent_streams(self):
        children = spawn_child_rngs(9, 3)
        draws = [child.random() for child in children]
        assert len(set(draws)) == 3

    def test_reproducible_across_calls(self):
        first = [r.random() for r in spawn_child_rngs(11, 4)]
        second = [r.random() for r in spawn_child_rngs(11, 4)]
        assert first == second

    def test_numpy_generators(self):
        gens = spawn_numpy_generators(3, 2)
        assert len(gens) == 2
        assert gens[0].random() != gens[1].random()

    def test_numpy_generators_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_numpy_generators(3, -2)


class TestRngStream:
    def test_draw_counter(self):
        stream = RngStream(5)
        stream.next_rng()
        stream.take(3)
        assert stream.drawn == 4

    def test_reproducible(self):
        a = RngStream(5)
        b = RngStream(5)
        assert a.next_rng().random() == b.next_rng().random()
        assert a.next_seed() == b.next_seed()

    def test_iteration_yields_fresh_rngs(self):
        stream = RngStream(5)
        iterator = iter(stream)
        first = next(iterator)
        second = next(iterator)
        assert first.random() != second.random()

    def test_seed_property(self):
        assert RngStream(42).seed == 42
        assert RngStream(None).seed == DEFAULT_SEED
