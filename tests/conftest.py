"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import random
import threading
from contextlib import contextmanager

import pytest

from repro.graphs import (
    Topology,
    complete,
    cycle,
    grid_2d,
    path,
    random_regular,
    star,
)
from repro.parallel import result_to_record
from repro.protocols import PROTOCOLS, register_protocol


@pytest.fixture
def register_fake_protocol():
    """Register test-double protocols for one test, then unregister them.

    Call it as ``register_fake_protocol(name, factory)`` with a
    module-level ``factory(topology, seed)``.  A fake may shadow a
    built-in name (so a replay hits that name's task keys); the built-in
    is restored afterwards.  Spawn workers need no registration of their
    own: the spec's ``ProtocolRunner`` pickles the definition it
    captured, and the factory travels by reference.
    """
    shadowed = {}

    def register(name, factory):
        shadowed.setdefault(name, PROTOCOLS.get(name))
        register_protocol(name, factory, replace=True)

    yield register
    for name, previous in shadowed.items():
        if previous is None:
            PROTOCOLS.pop(name, None)
        else:
            PROTOCOLS[name] = previous


@pytest.fixture
def scope_in_other_thread():
    """Hold a scope open in a helper thread while the test runs.

    ``with scope_in_other_thread(scope) as leave:`` enters the context
    manager ``scope`` in a new thread and returns once it is open;
    ``leave()`` makes the helper close it and waits until it has (the
    ``with`` exit does the same if the test never called it).  The two
    threads synchronise on events only, so the interleaving is forced,
    not timed.
    """

    @contextmanager
    def hold(scope):
        opened, release = threading.Event(), threading.Event()
        errors = []

        def helper():
            try:
                with scope:
                    opened.set()
                    release.wait()
            except BaseException as error:  # surfaced in the test thread
                errors.append(error)
                opened.set()

        thread = threading.Thread(target=helper, daemon=True)
        thread.start()
        opened.wait()

        def leave():
            release.set()
            thread.join()

        try:
            yield leave
        finally:
            leave()
        if errors:
            raise errors[0]

    return hold


@pytest.fixture
def pre_change_records():
    """Build run records in the shape earlier builds wrote.

    Call it as ``pre_change_records(tasks)`` with tasks from
    :func:`repro.parallel.expand_run_tasks`; it runs each task and returns
    ``{task key: record}``, every record carrying the run's per-node
    results under ``node_results`` as those builds stored them.
    """

    def build(tasks):
        records = {}
        for task in tasks:
            result = task.runner(task.topology, task.seed)
            record = result_to_record(result, 0.0)
            record["node_results"] = json.loads(json.dumps(result.node_results))
            records[task.key] = record
        return records

    return build


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


@pytest.fixture
def triangle() -> Topology:
    """The smallest cycle: 3 nodes."""
    return cycle(3)


@pytest.fixture
def small_cycle() -> Topology:
    return cycle(8)


@pytest.fixture
def small_path() -> Topology:
    return path(6)


@pytest.fixture
def small_star() -> Topology:
    return star(6)


@pytest.fixture
def small_complete() -> Topology:
    return complete(6)


@pytest.fixture
def small_grid() -> Topology:
    return grid_2d(3, 3)


@pytest.fixture
def small_expander() -> Topology:
    return random_regular(16, 4, seed=11)


@pytest.fixture
def medium_expander() -> Topology:
    return random_regular(32, 4, seed=5)
