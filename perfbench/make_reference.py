"""Regenerate ``reference.json``: the expected outputs the workloads check.

It holds the outcome of every pooled election of the ``elect-*``
workloads and the cells of the ``sweep-lossy`` grid (full and toy size),
so it pins what the program computes today.  Regenerate it only for a
change that is meant to alter results::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys

from run import OUT_DIR, REFERENCE, SRC, ElectWorkload, SweepWorkload, election_digest, sweep_rows


def main() -> int:
    sys.path.insert(0, str(SRC))
    from repro import api
    from repro.cli import parse_topology

    reference = {}
    for name, (topology_spec, pool) in sorted(ElectWorkload.POOLS.items()):
        topology = parse_topology(topology_spec, seed=ElectWorkload.TOPOLOGY_SEED)
        reference[name] = {
            "algorithm": "irrevocable",
            "topology": topology_spec,
            "digests": {
                str(seed): election_digest(api.run("irrevocable", topology, seed=seed))
                for seed in pool
            },
        }
    for toy in (False, True):
        sweep = SweepWorkload("sweep-lossy", toy, OUT_DIR)
        sweep.plan()
        reference[sweep.reference_key] = {
            "suite": sweep.suite,
            "rows": sweep_rows(api.sweep(sweep.specs)),
        }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
