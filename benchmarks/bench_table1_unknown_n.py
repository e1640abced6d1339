"""Experiment ``table1-unknown-n``: the unknown-``n`` rows of Table 1.

For unknown network size the paper contributes (i) the impossibility of
*irrevocable* election (covered by ``fig12-impossibility``) and (ii) the
blind *revocable* protocol with polynomial ``Õ(n^{4(1+ε)}/i(G)²)`` time and
``·m`` messages (Theorem 3 / Corollary 1).  This benchmark runs the
revocable protocol end to end on the tiny suite (its cost is intrinsically
enormous), verifies it elects a unique, agreed leader, and reports

* measured simulated rounds and messages,
* the round count under the paper's bit-by-bit accounting,
* the cost the *paper schedule* (Corollary 1) would have incurred, to make
  the polynomial blow-up of the unknown-``n`` setting concrete next to the
  known-``n`` numbers of ``table1-known-n``.
"""

from __future__ import annotations

import pytest

from repro.election import PaperSchedule, default_scaled_schedule, run_revocable_election
from repro.graphs import expansion_profile
from repro.workloads import tiny_suite

from _harness import record_report, rows_table

EXPERIMENT_ID = "table1-unknown-n"
SEEDS = (0, 1)


def _run_all():
    rows = []
    for topology in tiny_suite():
        schedule = default_scaled_schedule(topology)
        paper = PaperSchedule(epsilon=1.0, xi=0.1)
        paper_rounds = paper.total_rounds_through(
            paper.final_estimate(topology.num_nodes)
        )
        for seed in SEEDS:
            result = run_revocable_election(topology, seed=seed, schedule=schedule)
            profile = expansion_profile(topology)
            rows.append(
                {
                    "topology": topology.name,
                    "n": topology.num_nodes,
                    "m": topology.num_edges,
                    "i(G)": profile.isoperimetric_number,
                    "seed": seed,
                    "unique_leader": result.success,
                    "agreement": result.outcome.agreement,
                    "rounds": result.rounds_executed,
                    "messages": result.messages,
                    "paper_bit_rounds": result.parameters["paper_bit_rounds"],
                    "corollary1_rounds": paper_rounds,
                }
            )
    return rows


@pytest.mark.benchmark(group=EXPERIMENT_ID)
def test_table1_unknown_n(benchmark):
    rows = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    record_report(
        EXPERIMENT_ID,
        rows_table(rows, "Table 1 (unknown n) — Revocable Leader Election, measured"),
    )

    # --- shape checks ---------------------------------------------------- #
    success = sum(row["unique_leader"] and row["agreement"] for row in rows)
    assert success >= 0.8 * len(rows)

    for row in rows:
        # Message complexity tracks rounds x links (every round floods all
        # links), the structure behind the O(... * m) entries of Table 1.
        assert row["messages"] <= 2 * row["m"] * row["rounds"]
        # The bit-by-bit CONGEST accounting can only be larger than the
        # simulated word-per-round count.
        assert row["paper_bit_rounds"] >= row["rounds"]
        # The blind Corollary 1 schedule is orders of magnitude above what
        # the (i(G)-informed, Theorem 3-style) scaled schedule needed.
        assert row["corollary1_rounds"] > 10 * row["rounds"]
