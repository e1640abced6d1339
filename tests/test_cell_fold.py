"""Pins for the one cell fold body, :meth:`CellAggregate.fold`.

A cell folds rows of fold fields
(:func:`~repro.parallel.checkpoint.record_fold_fields`): a fresh run as
one row, a restored cell's runs in one call.  However the rows are split
into calls, the aggregate must be the same, and it must equal a plain
run-by-run reference: exact rational sums of every count column, the
first of equal extremes, the safety verdicts in row order, and the wall
clock added left to right.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.streaming import CellAggregate

#: the exact sums a cell keeps, by fold-row column
SUMS = {
    "sum_rounds": 3,
    "sum_messages": 4,
    "sum_bits": 5,
    "sum_dropped": 6,
    "sum_delayed": 7,
}

INTEGERS = st.integers(min_value=0, max_value=2**70)
FLOATS = st.floats(
    min_value=0, max_value=1e12, allow_nan=False, allow_infinity=False
)
FRACTIONS = st.fractions(min_value=0, max_value=10**6, max_denominator=10**6)
#: wall clocks whose float sum depends on the order of addition
WALL_CLOCKS = st.sampled_from([1.0, 1e-16, 3e-17, 0.1, 0.2, 0.3, 2.5e-4]) | st.floats(
    min_value=0, max_value=10, allow_nan=False, allow_infinity=False
)
ADVERSARIES = st.none() | st.fixed_dictionaries(
    {"model": st.sampled_from(["loss", "delay"]), "p": st.floats(0, 1)}
)


@st.composite
def fold_rows(draw):
    """Rows of one cell; each count column is all ints, or any mix."""
    size = draw(st.integers(min_value=1, max_value=12))
    columns = {}
    for column in SUMS.values():
        kind = draw(st.sampled_from(["int", "float", "fraction", "mixed"]))
        values = {
            "int": INTEGERS,
            "float": FLOATS,
            "fraction": FRACTIONS,
            "mixed": INTEGERS | FLOATS | FRACTIONS,
        }[kind]
        columns[column] = draw(st.lists(values, min_size=size, max_size=size))
    rows = []
    for index in range(size):
        rows.append(
            (
                draw(st.sampled_from(["flooding", "gilbert"])),
                draw(st.sampled_from(["cycle(n=6)", "path(n=5)"])),
                draw(st.none() | st.integers(min_value=0, max_value=2**64 - 1)),
                columns[3][index],
                columns[4][index],
                columns[5][index],
                columns[6][index],
                columns[7][index],
                draw(st.integers(min_value=0, max_value=3)),
                draw(st.booleans()),
                draw(ADVERSARIES),
                draw(WALL_CLOCKS),
            )
        )
    return rows


def state(aggregate):
    """Every ``__slots__`` field; the tally as its fields and summary."""
    values = {
        name: getattr(aggregate, name)
        for name in CellAggregate.__slots__
        if name != "safety"
    }
    safety = aggregate.safety
    values["safety"] = (
        safety.runs,
        safety.safe_runs,
        safety.elected_runs,
        safety.summary(),
    )
    return values


def folded(chunks):
    aggregate = CellAggregate()
    for chunk in chunks:
        aggregate.fold(chunk)
    return aggregate


def chunked(rows, cuts):
    bounds = [0, *sorted(cuts), len(rows)]
    return [rows[start:end] for start, end in zip(bounds, bounds[1:])]


def left_to_right(values, start=0.0):
    return reduce(add, values, start)


@settings(max_examples=300, deadline=None)
@given(rows=fold_rows(), data=st.data())
def test_any_split_into_calls_folds_the_same_cell(rows, data):
    cuts = data.draw(
        st.lists(st.integers(min_value=0, max_value=len(rows)), max_size=4)
    )
    whole = folded([rows])
    assert state(folded([[row] for row in rows])) == state(whole)
    assert state(folded(chunked(rows, cuts))) == state(whole)
    assert whole.safety.violations == folded([[row] for row in rows]).safety.violations

    # Separate aggregates merged: every field but the wall clock equal,
    # which is the chunks' own left-to-right sums added left to right.
    parts = [folded([chunk]) for chunk in chunked(rows, cuts)]
    merged = CellAggregate()
    for part in parts:
        merged.merge(part)
    expected = state(whole)
    expected["sum_wall_clock"] = left_to_right(
        [left_to_right([row[11] for row in chunk]) for chunk in chunked(rows, cuts)]
    )
    assert state(merged) == expected


@settings(max_examples=300, deadline=None)
@given(rows=fold_rows())
def test_one_call_equals_the_run_by_run_reference(rows):
    aggregate = folded([rows])
    assert aggregate.algorithm == rows[0][0]
    assert aggregate.count == len(rows)
    assert aggregate.successes == sum(1 for row in rows if row[9])
    for name, column in SUMS.items():
        assert getattr(aggregate, name) == sum(Fraction(row[column]) for row in rows)
    assert aggregate.sum_sq_messages == sum(Fraction(row[4]) ** 2 for row in rows)
    for name, column, pick in (
        ("min_messages", 4, min),
        ("max_messages", 4, max),
        ("min_rounds", 3, min),
        ("max_rounds", 3, max),
    ):
        value = getattr(aggregate, name)
        assert value == pick(row[column] for row in rows)
        # The first of equal extremes, as a strict run-by-run compare keeps.
        first = next(row[column] for row in rows if row[column] == value)
        assert type(value) is type(first)
    assert aggregate.sum_wall_clock == left_to_right([row[11] for row in rows])
    unsafe = [row for row in rows if row[8] > 1]
    assert aggregate.safety.runs == len(rows)
    assert aggregate.safety.safe_runs == len(rows) - len(unsafe)
    assert aggregate.safety.elected_runs == aggregate.successes
    assert aggregate.safety.violations == [
        {
            "algorithm": row[0],
            "topology": row[1],
            "seed": row[2],
            "num_leaders": row[8],
            "adversary": row[10],
        }
        for row in unsafe
    ]


def row_with_wall_clock(seconds):
    return ("flooding", "cycle(n=6)", 0, 1, 2, 3, 0, 0, 1, True, None, seconds)


def test_wall_clock_sum_is_the_left_to_right_float_sum():
    # 1.0 absorbs each 1e-16 on its own, but not their total: the
    # left-to-right sum stays 1.0, a compensated sum (``math.fsum``, and
    # ``sum`` of floats from Python 3.12 on) does not.
    seconds = [1.0] + [1e-16] * 10
    assert left_to_right(seconds) == 1.0
    assert math.fsum(seconds) != 1.0
    aggregate = folded([[row_with_wall_clock(value) for value in seconds]])
    assert aggregate.sum_wall_clock == 1.0
    assert aggregate.mean_wall_clock_seconds == 1.0 / len(seconds)


def test_integer_columns_stay_integers():
    rows = [row_with_wall_clock(0.5), row_with_wall_clock(0.25)]
    aggregate = folded([rows])
    for name in (*SUMS, "sum_sq_messages"):
        assert type(getattr(aggregate, name)) is int
    assert aggregate.sum_sq_messages == 8


def test_an_empty_call_folds_nothing():
    aggregate = CellAggregate()
    aggregate.fold([])
    assert state(aggregate) == state(CellAggregate())
