"""networkx stays off the import path until a graph needs it.

Only ``generators.random_regular`` and ``Topology.to_networkx`` call
networkx, and each imports it in its own body, so a fresh interpreter that
imports the package and runs an election on a cycle never loads it.  The
check runs in a subprocess because other tests build random-regular graphs,
so this test process has usually loaded networkx already.  The fingerprint
pins the graph the deferred import produces to the one the module-level
import produced.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import sys

    import repro, repro.api, repro.archive, repro.cli, repro.analysis.experiments
    from repro import api
    from repro.graphs import generators

    result = api.run("irrevocable", generators.cycle(8), seed=1)
    assert result.outcome.unique_leader
    assert "networkx" not in sys.modules, "networkx loaded by import or election"

    topology = generators.random_regular(16, 3, seed=7)
    assert "networkx" in sys.modules
    assert topology.fingerprint() == "3e91a54d5c66ecff", topology.fingerprint()
    """
)


def test_networkx_loads_only_for_random_regular():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
