"""Unit tests for CONGEST message encoding and bit accounting."""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
from dataclasses import dataclass
from typing import Optional, Tuple

import pytest

import repro
from repro.core import Message, bits_for_int, bits_for_value, congest_budget_bits, id_space_bits


@dataclass(frozen=True)
class _Sample(Message):
    value: int
    flag: bool
    note: Optional[str] = None


@dataclass(frozen=True)
class _Nested(Message):
    pair: Tuple[int, int]


class TestBitsForInt:
    def test_zero_costs_one_bit(self):
        assert bits_for_int(0) == 1

    def test_one_costs_one_bit(self):
        assert bits_for_int(1) == 1

    def test_powers_of_two(self):
        assert bits_for_int(2) == 2
        assert bits_for_int(255) == 8
        assert bits_for_int(256) == 9

    def test_negative_adds_sign_bit(self):
        assert bits_for_int(-255) == bits_for_int(255) + 1

    def test_large_id(self):
        # IDs from {1..n^4} for n=1024 need 40 bits.
        assert bits_for_int(1024 ** 4) == 41


class TestBitsForValue:
    def test_none_is_free(self):
        assert bits_for_value(None) == 0

    def test_bool_costs_one_bit(self):
        assert bits_for_value(True) == 1
        assert bits_for_value(False) == 1

    def test_float_costs_fixed_64(self):
        assert bits_for_value(0.5) == 64

    def test_string_costs_eight_bits_per_char(self):
        assert bits_for_value("abc") == 24

    def test_tuple_sums_elements(self):
        assert bits_for_value((1, 2, 3)) == bits_for_int(1) + bits_for_int(2) + bits_for_int(3)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            bits_for_value(object())


class TestMessageSize:
    def test_size_includes_type_tag(self):
        message = _Sample(value=5, flag=True)
        expected = Message.TYPE_TAG_BITS + bits_for_int(5) + 1
        assert message.size_bits() == expected

    def test_none_fields_are_free(self):
        with_note = _Sample(value=5, flag=True, note="x")
        without_note = _Sample(value=5, flag=True, note=None)
        assert with_note.size_bits() == without_note.size_bits() + 8

    def test_nested_tuple_fields(self):
        message = _Nested(pair=(3, 9))
        assert message.size_bits() == Message.TYPE_TAG_BITS + bits_for_int(3) + bits_for_int(9)

    def test_default_congest_units_is_one(self):
        assert _Sample(value=1, flag=False).congest_units() == 1

    def test_messages_are_immutable(self):
        message = _Sample(value=1, flag=False)
        with pytest.raises(Exception):
            message.value = 2  # type: ignore[misc]


#: A sample value per field annotation used by the built-in message classes.
_FIELD_SAMPLES = {
    "int": 1234567,
    "bool": True,
    "float": 0.25,
    "Optional[int]": 42,
}


def _builtin_message_classes():
    """Every Message subclass in the package that keeps the default sizing."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    pending, found = list(Message.__subclasses__()), []
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro.") and cls.size_bits is Message.size_bits:
            found.append(cls)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__name__))


class TestDefaultSizeOfBuiltinMessages:
    def test_discovery_finds_the_protocol_messages(self):
        names = {cls.__name__ for cls in _builtin_message_classes()}
        assert {"OfferMessage", "WalkMessage", "DiffusionMessage"} <= names

    # Positive ints take a fast path in size_bits; zero, negative ints and
    # bools in an int field must still be charged as bits_for_value does.
    @pytest.mark.parametrize("int_value", [1234567, 0, -5, True])
    @pytest.mark.parametrize(
        "cls", _builtin_message_classes(), ids=lambda cls: cls.__name__
    )
    def test_size_bits_is_the_sum_over_dataclass_fields(self, cls, int_value):
        fields = dataclasses.fields(cls)
        samples = dict(_FIELD_SAMPLES, int=int_value)
        message = cls(**{field.name: samples[field.type] for field in fields})
        expected = Message.TYPE_TAG_BITS + sum(
            bits_for_value(getattr(message, field.name)) for field in fields
        )
        # Twice: the first call fills the per-class field-name cache.
        assert message.size_bits() == expected
        assert message.size_bits() == expected


class TestBudgets:
    def test_id_space_bits_matches_four_log_n(self):
        assert id_space_bits(16) == 16
        assert id_space_bits(1024) == 40

    def test_id_space_bits_small_n(self):
        assert id_space_bits(1) >= 1
        assert id_space_bits(2) == 4

    def test_id_space_bits_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            id_space_bits(0)

    def test_congest_budget_scales_with_log_n(self):
        assert congest_budget_bits(16) == 8 * 4
        assert congest_budget_bits(17) == 8 * 5

    def test_congest_budget_factor(self):
        assert congest_budget_bits(16, factor=2) == 8

    def test_congest_budget_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            congest_budget_bits(0)
