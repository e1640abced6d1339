"""Message model and CONGEST bit accounting.

The paper analyses complexity in the CONGEST model: in every synchronous
round a node may send one message of ``O(log n)`` bits through each of its
ports.  To measure message *and* bit complexity of the protocols we give
every message a ``size_bits`` method.  Protocol-specific messages are plain
dataclasses deriving from :class:`Message`; the default size computation
walks the dataclass fields and charges a standard encoding cost per field
(integers cost their binary length, booleans one bit, ``None`` nothing).

Messages are value objects: they are immutable (frozen dataclasses) so the
simulator can safely deliver the same object it was handed without copying,
and a protocol may reuse one instance across ports and rounds.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Any, Optional, Tuple, Type, TypeVar

__all__ = [
    "Message",
    "presized",
    "bits_for_int",
    "bits_for_value",
    "id_space_bits",
    "congest_budget_bits",
]


def bits_for_int(value: int) -> int:
    """Number of bits needed to encode a non-negative integer.

    Zero still occupies one bit.  Negative integers are encoded with a sign
    bit plus the magnitude (the protocols never send negative integers, but
    the accounting should not crash if one slips through during debugging).
    """
    if value == 0:
        return 1
    magnitude = abs(int(value))
    bits = magnitude.bit_length()
    return bits + (1 if value < 0 else 0)


def bits_for_value(value: Any) -> int:
    """Encoding cost, in bits, of a single message field."""
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return bits_for_int(value)
    if isinstance(value, float):
        # Potentials in the diffusion protocol are the only floats that
        # travel on links; the paper transmits them bit by bit with the
        # precision needed for the current estimate.  We charge a 64-bit
        # fixed-point encoding, which upper-bounds what the protocol needs
        # for every network size we simulate.
        return 64
    if isinstance(value, str):
        return 8 * len(value)
    if isinstance(value, (tuple, list, frozenset, set)):
        return sum(bits_for_value(item) for item in value)
    raise TypeError(f"cannot account bits for message field of type {type(value)!r}")


def id_space_bits(n: int) -> int:
    """Bits needed for an ID drawn from ``{1..n^4}`` (Section 4)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return max(1, math.ceil(4 * math.log2(max(2, n))))


def congest_budget_bits(n: int, factor: int = 8) -> int:
    """Per-message bit budget ``factor * ceil(log2 n)`` used for validation.

    The CONGEST model allows ``O(log n)`` bits per message; the constant is
    not pinned down by the model, so the simulator's optional validation
    uses a configurable multiple of ``log2 n``.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return factor * max(1, math.ceil(math.log2(max(2, n))))


#: A :class:`Message` subclass, built by :func:`presized`.
M = TypeVar("M", bound="Message")


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    """The dataclass field names of ``cls``, computed once per class."""
    return tuple(field.name for field in dataclasses.fields(cls))


@dataclass(frozen=True)
class Message:
    """Base class for protocol messages.

    Subclasses are frozen dataclasses whose fields are ints, bools, floats,
    strings, ``None`` or flat tuples of those.  The default
    :meth:`size_bits` charges the sum of the field encodings plus a small
    tag identifying the message type on the wire (protocols multiplex
    several message kinds over the same link).

    Instances are immutable values: a protocol may send one instance
    through several ports and in several rounds.  The simulator relies on
    that immutability to size an instance once: its first send calls
    :meth:`size_bits` and :meth:`congest_units` and stores the pair
    ``(bits, units)`` on the instance as ``_wire_cost``, and every later
    send reuses it.  A subclass must therefore keep both methods functions
    of its fields alone.

    A sender that already walks a message's fields while building it may
    instead add up the cost as it goes and build the message with
    :func:`presized`, which stores the pair at once; such a *pre-sized*
    message is never asked for its size.  :meth:`size_bits` and
    :meth:`congest_units` remain the definition of the cost either way:
    the stored pair must equal ``(size_bits(), max(1, congest_units()))``,
    and the sender's tests check that it does.
    """

    #: bits charged for the message-type tag.
    TYPE_TAG_BITS = 3

    def size_bits(self, network_size: Optional[int] = None) -> int:
        """Total encoding size of this message in bits.

        ``network_size`` is accepted for symmetry with protocols that size
        fields relative to ``n``; the default implementation ignores it.
        """
        total = self.TYPE_TAG_BITS
        for name in _field_names(type(self)):
            value = getattr(self, name)
            if type(value) is int and value > 0:
                total += value.bit_length()  # what bits_for_value charges
            else:
                total += bits_for_value(value)
        return total

    def congest_units(self) -> int:
        """How many CONGEST messages this object stands for.

        Almost always 1.  Batched messages (e.g. several random-walk tokens
        with *distinct* IDs forwarded over the same link in one round, as
        in the Gilbert et al. baseline) override this so that the measured
        message complexity charges one unit per ``O(log n)``-bit payload,
        matching how the respective papers count messages.
        """
        return 1


def presized(cls: Type[M], bits: int, units: int, **fields: Any) -> M:
    """A ``cls`` message built from ``fields``, its wire cost already stored.

    The one way to build a *pre-sized* message (see :class:`Message`): a
    sender that adds up a message's cost while building it hands the pair
    here, and no send ever asks the message for its size.  ``bits`` must
    equal ``size_bits()`` and ``units`` must equal
    ``max(1, congest_units())`` of the message built; the sender's tests
    check that.  ``fields`` must name every dataclass field of ``cls``.
    The instance is made without calling ``__init__``, so ``cls`` must be
    a plain frozen dataclass that neither checks nor derives anything when
    built.
    """
    message = object.__new__(cls)
    state = message.__dict__
    state.update(fields)
    state["_wire_cost"] = (bits, units)
    return message
