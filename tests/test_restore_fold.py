"""Pins for the restore path: archived runs fold into the same cells.

A warm query replays archived records into its per-cell aggregates.
Whatever shape that replay takes, its answer must equal folding
``result_from_record`` of the same records through
:meth:`~repro.analysis.streaming.CellAggregate.add`, in the replay's
sorted key order (the wall-clock column included: a replayed run reports
the wall clock it was archived with).  The archive here holds lossy runs
of three protocols, one unsafe record and one legacy record, so the
optional-field defaults and the safety tally are covered too.

The arithmetic and task pins below hold the cheap paths to the exact
results of the general ones: an integer mean is the correctly rounded
quotient ``float(Fraction(total) / count)``, and a :class:`RunTask` keeps
the value semantics the engine, the scheduler and the pool rely on.
"""

from __future__ import annotations

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.analysis.experiments import (
    ExperimentResult,
    cell_from_aggregate,
    summarize_results,
)
from repro.analysis.robustness import curves_as_dicts, fold_experiments
from repro.analysis.streaming import CellAggregate, CollectingSink, ResultSink
from repro.archive import ResultArchive, query_experiments
from repro.graphs import cycle, path
from repro.parallel.checkpoint import result_from_record, result_to_record
from repro.parallel.sharding import RunTask, expand_run_tasks, task_key

#: the optional metrics keys a legacy record may lack
OPTIONAL_METRICS = (
    "dropped_messages",
    "delayed_messages",
    "sent_messages",
    "delivered_messages",
    "events",
    "phases",
)


def lossy_specs(seeds=3):
    specs, adversarial = api.plan_sweep(
        topologies=[cycle(6), path(5)],
        algorithms=["flooding", "gilbert", "irrevocable"],
        adversary="loss",
        adversary_params=["p=0.3"],
        seeds=seeds,
        collect_profile=False,
    )
    assert adversarial
    return specs


def archived_keys(specs):
    return [task.key for spec in specs for task in expand_run_tasks(spec)]


@pytest.fixture(scope="module")
def warm_archive(tmp_path_factory):
    """An archive of the lossy grid with one unsafe and one legacy record."""
    specs = lossy_specs()
    path_ = tmp_path_factory.mktemp("fold") / "a.sqlite"
    cold = query_experiments(specs, archive=path_)
    assert cold.report.archived_runs == 0
    keys = archived_keys(specs)
    with ResultArchive(path_) as archive:
        records = archive.fetch(keys)
        unsafe_key = next(key for key in keys if key.startswith("flooding@"))
        unsafe = records[unsafe_key]
        unsafe["outcome"].update(
            num_leaders=2,
            leader_indices=[0, 1],
            unique_leader=False,
        )
        legacy_key = next(key for key in keys if key.startswith("gilbert@"))
        legacy = records[legacy_key]
        legacy["node_results"] = [{"leader": False}] * legacy["num_nodes"]
        for name in OPTIONAL_METRICS:
            legacy["metrics"].pop(name)
        legacy["outcome"].pop("agreement")
        legacy.pop("parameters")
        archive.add_records({unsafe_key: unsafe, legacy_key: legacy})
        records = archive.fetch(keys)
    assert any(record["metrics"].get("dropped_messages") for record in records.values())
    return specs, path_, records


def folded_by_hand(specs, records):
    """``result_from_record`` + ``CellAggregate.add`` per cell, sorted key order."""
    results = []
    for spec in specs:
        experiment = ExperimentResult(name=spec.name)
        tasks = expand_run_tasks(spec)
        for topology_index, topology in enumerate(spec.topologies):
            aggregate = CellAggregate()
            cell_keys = sorted(
                task.key for task in tasks if task.topology_index == topology_index
            )
            for key in cell_keys:
                aggregate.add(*result_from_record(records[key]))
            experiment.cells.append(
                cell_from_aggregate(
                    topology, aggregate, protocol=spec.protocol_token()
                )
            )
        results.append(experiment)
    return results


def test_rebuilt_results_carry_their_records(warm_archive):
    """The reference the pin folds: every current-shape record round-trips."""
    _, _, records = warm_archive
    current = [record for record in records.values() if "node_results" not in record]
    assert len(current) == len(records) - 1
    for record in current:
        assert result_to_record(*result_from_record(record)) == record


def test_warm_query_equals_folding_rebuilt_results(warm_archive):
    specs, path_, records = warm_archive
    warm = query_experiments(specs, archive=path_)
    assert warm.report.simulated_runs == 0
    assert warm.report.archived_runs == len(records)
    expected = folded_by_hand(specs, records)
    assert summarize_results(warm.results) == summarize_results(expected)
    answered = [cell for result in warm.results for cell in result.cells]
    by_hand = [cell for result in expected for cell in result.cells]
    assert [cell.safety.summary() for cell in answered] == [
        cell.safety.summary() for cell in by_hand
    ]
    assert curves_as_dicts(fold_experiments(specs, warm.results)) == curves_as_dicts(
        fold_experiments(specs, expected)
    )
    violations = [
        violation
        for cell in answered
        for violation in cell.safety.summary()["violations"]
    ]
    unsafe = [record for record in records.values() if record["outcome"]["num_leaders"] > 1]
    assert len(violations) == len(unsafe) >= 1
    assert all(violation["adversary"] is not None for violation in violations)
    # The lossy runs dropped messages (the legacy record counts none).
    assert sum(cell.mean_dropped_messages for cell in answered) > 0


class OrderedSink(ResultSink):
    def __init__(self):
        self.runs = []

    def emit(self, spec_name, topology_index, seed_index, result, wall_clock_seconds):
        self.runs.append((spec_name, topology_index, seed_index, result, wall_clock_seconds))


def test_caller_sinks_receive_every_restored_result(warm_archive):
    specs, path_, records = warm_archive
    ordered, collecting = OrderedSink(), CollectingSink()
    with_sinks = api.query(specs, archive=path_, sinks=[ordered, collecting])
    without = api.query(specs, archive=path_)
    assert with_sinks.report.simulated_runs == 0
    assert summarize_results(with_sinks.results) == summarize_results(without.results)

    tasks = {
        task.key: task for spec in specs for task in expand_run_tasks(spec)
    }
    expected = []
    for key in sorted(records):
        task = tasks[key]
        result, elapsed = result_from_record(records[key])
        expected.append(
            (task.spec_name, task.topology_index, task.seed_index, result, elapsed)
        )
    assert ordered.runs == expected
    for spec in specs:
        for topology_index in range(len(spec.topologies)):
            assert collecting.results_for(spec.name, topology_index) == [
                result
                for name, index, _, result, _ in expected
                if (name, index) == (spec.name, topology_index)
            ]


# --------------------------------------------------------------------------- #
# integer means
# --------------------------------------------------------------------------- #


def aggregate_with(total, count, square=0):
    aggregate = CellAggregate()
    aggregate.count = count
    for name in ("sum_messages", "sum_bits", "sum_rounds", "sum_dropped", "sum_delayed"):
        setattr(aggregate, name, total)
    aggregate.sum_sq_messages = square
    return aggregate


def means(aggregate):
    return {
        aggregate.mean_messages,
        aggregate.mean_bits,
        aggregate.mean_rounds,
        aggregate.mean_dropped_messages,
        aggregate.mean_delayed_messages,
    }


@settings(max_examples=300, deadline=None)
@given(
    total=st.integers(min_value=2**53 + 1, max_value=2**120)
    | st.integers(min_value=0, max_value=2**53),
    count=st.integers(min_value=1, max_value=10**6),
)
def test_integer_mean_is_the_rational_mean(total, count):
    aggregate = aggregate_with(total, count)
    assert means(aggregate) == {float(Fraction(total) / count)}


@settings(max_examples=200, deadline=None)
@given(
    numerator=st.integers(min_value=0, max_value=2**100),
    denominator=st.integers(min_value=1, max_value=2**40),
    count=st.integers(min_value=1, max_value=10**6),
)
def test_fraction_mean_is_the_rational_mean(numerator, denominator, count):
    total = Fraction(numerator, denominator)
    aggregate = aggregate_with(total, count)
    assert means(aggregate) == {float(total / count)}


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.integers(min_value=0, max_value=2**70), min_size=2, max_size=40)
)
def test_integer_stdev_is_the_rational_stdev(values):
    total, square, count = sum(values), sum(v * v for v in values), len(values)
    aggregate = aggregate_with(total, count, square)
    expected = math.sqrt(
        float(Fraction(count * square - total * total, count * count))
    )
    assert aggregate.stdev_messages == expected


# --------------------------------------------------------------------------- #
# RunTask value semantics
# --------------------------------------------------------------------------- #


def make_task(**overrides):
    fields = dict(
        spec_name="flooding",
        runner=None,
        topology=cycle(6),
        topology_index=1,
        seed=7,
        seed_index=2,
        fingerprint="abc",
        adversary="loss(p=0.3)",
        protocol="",
    )
    fields.update(overrides)
    return RunTask(**fields)


class TestRunTaskContract:
    def test_key_is_the_task_key_of_its_fields(self):
        task = make_task(protocol="irrevocable(c=2)")
        assert task.key == task_key(
            "flooding", 1, "cycle(n=6)", "abc", 2, 7, "loss(p=0.3)", "irrevocable(c=2)"
        )

    def test_equality_and_hash_ignore_the_key(self):
        task, twin = make_task(), make_task()
        object.__setattr__(twin, "key", "something else")
        assert task == twin
        assert hash(task) == hash(twin)
        assert task != make_task(seed=8)
        assert len({task, twin, make_task(seed=8)}) == 2

    def test_positional_fields_in_declared_order(self):
        task = make_task()
        again = RunTask(
            "flooding", None, task.topology, 1, 7, 2, "abc", "loss(p=0.3)", ""
        )
        assert again == task
        assert again.key == task.key

    def test_repr_names_every_field_but_the_key(self):
        task = make_task()
        assert repr(task) == (
            f"RunTask(spec_name='flooding', runner=None, topology={task.topology!r}, "
            f"topology_index=1, seed=7, seed_index=2, fingerprint='abc', "
            f"adversary='loss(p=0.3)', protocol='')"
        )

    def test_pickle_round_trip_keeps_fields_and_key(self):
        spec = lossy_specs(seeds=1)[0]
        for task in expand_run_tasks(spec, derive_seeds=True, base_seed=5):
            copy = pickle.loads(pickle.dumps(task))
            assert copy == task
            assert copy.key == task.key
            assert hash(copy) == hash(task)
