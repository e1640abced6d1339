"""A writer killed at the archive commit leaves all of its runs or none.

A child process answers a cold lossy query into a fresh archive.  A
wrapper around the archive's SQLite connection — here, not in the
library — ends the child with ``os._exit`` just before or just after
:meth:`~repro.archive.store.ResultArchive.add_records` commits.  A fresh
process then reopens the archive: it must hold schema 2 and either none
or all of the request's runs, and a query over it must answer what an
uninterrupted query answers, wall clock aside.

``os._exit`` ends the process, not the machine: the operating system
still holds every page the child wrote.  Power loss is not covered here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import api

#: the exit status of a child ended at the commit
KILLED = 86

#: the request every child answers (20 lossy runs)
PLAN = dict(
    suite="tiny",
    algorithms=["flooding", "gilbert"],
    adversary="loss",
    adversary_params=["p=0.2"],
    seeds=2,
    collect_profile=False,
)

WRITER = textwrap.dedent(
    """
    import json
    import os
    import sys

    from repro import api
    from repro.archive import ResultArchive

    path, when, plan = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])


    class EndAtCommit:
        # ``with connection:`` commits on a clean exit: end the process
        # just before, or just after, that commit.
        def __init__(self, connection):
            self._connection = connection

        def __getattr__(self, name):
            return getattr(self._connection, name)

        def __enter__(self):
            return self._connection.__enter__()

        def __exit__(self, *exc_info):
            if when == "before":
                os._exit({killed})
            self._connection.__exit__(*exc_info)
            os._exit({killed})


    specs, _ = api.plan_sweep(**plan)
    archive = ResultArchive(path)
    archive._conn = EndAtCommit(archive._conn)
    api.query(specs, archive=archive)
    sys.exit("the query finished without committing")
    """
).format(killed=KILLED)

READER = textwrap.dedent(
    """
    import json
    import sqlite3
    import sys

    from repro import api
    from repro.archive import ResultArchive
    from repro.parallel.sharding import expand_run_tasks

    path, plan = sys.argv[1], json.loads(sys.argv[2])
    specs, _ = api.plan_sweep(**plan)
    keys = [task.key for spec in specs for task in expand_run_tasks(spec)]
    with ResultArchive(path) as archive:
        held = len(archive.present(keys))
    connection = sqlite3.connect(path)
    (version,) = connection.execute(
        "SELECT value FROM archive_meta WHERE key = 'schema_version'"
    ).fetchone()
    connection.close()
    answer = api.query(specs, archive=path)
    print(json.dumps({
        "requested": len(keys),
        "held": held,
        "version": version,
        "simulated": answer.report.simulated_runs,
        "payload": answer.payload(specs, True),
    }))
    """
)


def run_child(tmp_path: Path, source: str, *args: str) -> subprocess.CompletedProcess:
    script = tmp_path / "child.py"
    script.write_text(source, encoding="utf-8")
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def without_wall_clock(payload):
    return {
        "cells": [
            {k: v for k, v in cell.items() if k != "mean_wall_clock_seconds"}
            for cell in payload["cells"]
        ],
        "curves": payload["curves"],
    }


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    specs, adversarial = api.plan_sweep(**PLAN)
    archive = tmp_path_factory.mktemp("uninterrupted") / "a.sqlite"
    answer = api.query(specs, archive=archive)
    assert answer.report.simulated_runs == 20
    return without_wall_clock(answer.payload(specs, adversarial))


@pytest.mark.parametrize("when, held", [("before", 0), ("after", 20)])
def test_writer_ended_at_the_commit_leaves_all_or_none(
    tmp_path, uninterrupted, when, held
):
    archive = tmp_path / "a.sqlite"
    plan = json.dumps(PLAN)
    writer = run_child(tmp_path, WRITER, str(archive), when, plan)
    assert writer.returncode == KILLED, writer.stderr

    reader = run_child(tmp_path, READER, str(archive), plan)
    assert reader.returncode == 0, reader.stderr
    state = json.loads(reader.stdout.splitlines()[-1])
    assert state["version"] == "2"
    assert state["requested"] == 20
    assert state["held"] == held
    # What the killed writer did not commit, the next query simulates.
    assert state["simulated"] == 20 - held
    assert without_wall_clock(state["payload"]) == uninterrupted
