"""Experiment ``fig-msg-scaling``: message complexity vs network size.

Theorem 1 claims ``Õ(√(n·t_mix)/Φ)`` messages against the ``Õ(t_mix·√n)``
of Gilbert et al. [10] — an improvement by ``Õ(√(t_mix·Φ))``, largest on
well-connected graphs.  The paper states this as a bound rather than a
plot; this benchmark produces the corresponding *figure-style* series:
measured messages vs ``n`` on a 4-regular expander family for both
protocols, the fitted power-law exponents, and the per-size improvement
ratio.

The stated factor conflicts with :mod:`repro.analysis.theory`, whose
bounds (``√(n·t_mix)/Φ · log² n`` for Theorem 1, ``t_mix·√n·log^{7/2} n``
for Gilbert et al.) give ``√t_mix·Φ·log^{3/2} n``; the two agree only if
Theorem 1 reads ``√(n·t_mix/Φ)``.  The conflict stays open until the
paper's Theorem 1 can be checked; this benchmark asserts neither factor.

Shape checks: on expanders (``t_mix``, ``Φ`` roughly constant) both
algorithms must scale clearly sublinearly in ``m·D``-style flooding costs,
the fitted exponent of this work must not exceed the baseline's by more
than noise, and this work must use fewer messages at every measured size.
"""

from __future__ import annotations

import pytest

from repro.analysis import fit_power_law, render_series
from repro.baselines import GilbertConfig, run_gilbert_election
from repro.election import IrrevocableConfig, run_irrevocable_election
from repro.graphs import expansion_profile
from repro.workloads import scaling_family

from _harness import record_report, rows_table

EXPERIMENT_ID = "fig-msg-scaling"
SIZES = (32, 64, 128)
SEEDS = (0, 1)


def _run_series():
    rows = []
    for topology in scaling_family("random_regular", SIZES, seed=23):
        profile = expansion_profile(topology)
        ours_config = IrrevocableConfig(
            n=topology.num_nodes,
            t_mix=profile.mixing_time,
            conductance=profile.conductance,
        )
        gilbert_config = GilbertConfig(
            n=topology.num_nodes, t_mix=profile.mixing_time
        )
        ours_msgs, gilbert_msgs, ours_ok, gilbert_ok = [], [], 0, 0
        for seed in SEEDS:
            ours = run_irrevocable_election(topology, seed=seed, config=ours_config)
            gilbert = run_gilbert_election(topology, seed=seed, config=gilbert_config)
            ours_msgs.append(ours.messages)
            gilbert_msgs.append(gilbert.messages)
            ours_ok += ours.success
            gilbert_ok += gilbert.success
        rows.append(
            {
                "n": topology.num_nodes,
                "t_mix": profile.mixing_time,
                "conductance": profile.conductance,
                "this_work_messages": sum(ours_msgs) / len(ours_msgs),
                "gilbert_messages": sum(gilbert_msgs) / len(gilbert_msgs),
                "improvement_ratio": (sum(gilbert_msgs) / max(1, sum(ours_msgs))),
                "this_work_success": ours_ok / len(SEEDS),
                "gilbert_success": gilbert_ok / len(SEEDS),
            }
        )
    return rows


@pytest.mark.benchmark(group=EXPERIMENT_ID)
def test_message_scaling(benchmark):
    rows = benchmark.pedantic(_run_series, rounds=1, iterations=1)

    sizes = [row["n"] for row in rows]
    ours = [row["this_work_messages"] for row in rows]
    gilbert = [row["gilbert_messages"] for row in rows]
    ours_fit = fit_power_law(sizes, ours)
    gilbert_fit = fit_power_law(sizes, gilbert)

    record_report(
        EXPERIMENT_ID,
        rows_table(rows, "Messages vs n on random 4-regular expanders"),
        render_series(
            [(row["n"], row["improvement_ratio"]) for row in rows],
            x_label="n",
            y_label="gilbert / this-work message ratio",
            title="Improvement ratio (paper: Õ(sqrt(t_mix·Φ)))",
        ),
        rows_table(
            [
                {"series": "this work", **ours_fit.as_dict()},
                {"series": "gilbert", **gilbert_fit.as_dict()},
            ],
            "Fitted power laws (messages ~ n^exponent)",
        ),
    )

    # --- shape checks ---------------------------------------------------- #
    for row in rows:
        assert row["this_work_messages"] < row["gilbert_messages"], row
        assert row["this_work_success"] >= 0.5
        assert row["gilbert_success"] >= 0.5
    # Both scale polynomially with a modest exponent on expanders; the
    # measured exponent of this work should not be meaningfully worse than
    # the baseline's.
    assert ours_fit.exponent < 2.0
    assert ours_fit.exponent <= gilbert_fit.exponent + 0.35
