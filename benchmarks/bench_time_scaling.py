"""Experiment ``fig-time-scaling``: round complexity vs mixing time.

Theorem 1's time bound is ``O(t_mix·log² n)``.  The benchmark runs the
protocol on two graph families at opposite ends of the mixing spectrum —
4-regular expanders (``t_mix = O(log n)``-ish) and cycles
(``t_mix = Θ̃(n²)``) — and reports measured rounds next to the bound
``t_mix·log² n``, including the ratio between them, which should stay
within a constant band if the implementation tracks the theorem.

The file also carries ``bench-backend-speedup``: the same election
workload timed under both simulator cores (``backend="round"`` vs
``backend="event"``).  Slow-mixing cycles are the quiescence-heavy case
the event core exists for — most nodes idle through most of the long walk
and convergecast phases — so this is where its speedup is measured and
its bit-for-bit equivalence to the round core is re-asserted at bench
scale, both fault-free and under message loss (an adversary whose round
hooks are quiet, so the event core still fast-forwards).
``REPRO_BENCH_SMOKE=1`` switches the comparison to a seconds-long
configuration with no speedup threshold (CI wiring check); smoke results
are recorded under a separate experiment id.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext

import pytest

from repro.analysis import ratio_spread, theory_ratio_series
from repro.core import backend_scope, fault_scope
from repro.dynamics import AdversarySpec, make_adversary
from repro.election import IrrevocableConfig, run_irrevocable_election
from repro.graphs import expansion_profile
from repro.workloads import scaling_family

from _harness import record_bench_json, record_report, rows_table

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

EXPERIMENT_ID = "fig-time-scaling"
EXPANDER_SIZES = (32, 64, 128)
CYCLE_SIZES = (8, 16, 32)
SEED = 1

BACKEND_EXPERIMENT_ID = "bench-backend-speedup" + ("-smoke" if SMOKE else "")
BACKEND_CYCLE_SIZES = (8, 16) if SMOKE else CYCLE_SIZES
BACKEND_EXPANDER_SIZES = (32,) if SMOKE else (32, 64)
#: The adversarial leg: message loss only, so the event core may still
#: fast-forward over rounds in which no node is due.
BACKEND_LOSS = AdversarySpec.create("loss", p=0.05)


def _run_family(family: str, sizes):
    rows = []
    for topology in scaling_family(family, sizes, seed=31):
        profile = expansion_profile(topology)
        config = IrrevocableConfig(
            n=topology.num_nodes,
            t_mix=profile.mixing_time,
            conductance=profile.conductance,
        )
        result = run_irrevocable_election(topology, seed=SEED, config=config)
        import math

        log_n = max(1.0, math.log(topology.num_nodes))
        rows.append(
            {
                "family": family,
                "n": topology.num_nodes,
                "t_mix": profile.mixing_time,
                "rounds": result.rounds_executed,
                "bound t_mix*log^2 n": profile.mixing_time * log_n ** 2,
                "rounds / bound": result.rounds_executed
                / (profile.mixing_time * log_n ** 2),
                "unique_leader": result.success,
            }
        )
    return rows


def _run_all():
    return _run_family("random_regular", EXPANDER_SIZES) + _run_family(
        "cycle", CYCLE_SIZES
    )


@pytest.mark.benchmark(group=EXPERIMENT_ID)
def test_time_scaling(benchmark):
    rows = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    record_report(
        EXPERIMENT_ID,
        rows_table(rows, "Rounds vs the O(t_mix log^2 n) bound (Theorem 1)"),
    )

    # --- shape checks ---------------------------------------------------- #
    # The measured rounds must track the bound up to a constant: the ratio
    # series should not drift by more than a small factor across sizes
    # within each family.
    for family, sizes in (("random_regular", EXPANDER_SIZES), ("cycle", CYCLE_SIZES)):
        family_rows = [row for row in rows if row["family"] == family]
        series = theory_ratio_series(
            [row["t_mix"] * max(1.0, __import__("math").log(row["n"])) ** 2 for row in family_rows],
            [row["rounds"] for row in family_rows],
            lambda bound: bound,
        )
        assert ratio_spread(series) < 4.0, family
    # Cycles mix far more slowly, so they must cost far more rounds even at
    # smaller n — the qualitative dependence on t_mix.
    expander_64 = next(r for r in rows if r["family"] == "random_regular" and r["n"] == 64)
    cycle_32 = next(r for r in rows if r["family"] == "cycle" and r["n"] == 32)
    assert cycle_32["rounds"] > expander_64["rounds"]
    assert all(row["unique_leader"] for row in rows)


# --------------------------------------------------------------------------- #
# bench-backend-speedup: event-driven core vs round-robin core
# --------------------------------------------------------------------------- #


def _backend_workload():
    """The (topology, config) list both cores are timed over."""
    workload = []
    for family, sizes in (
        ("cycle", BACKEND_CYCLE_SIZES),
        ("random_regular", BACKEND_EXPANDER_SIZES),
    ):
        for topology in scaling_family(family, sizes, seed=31):
            profile = expansion_profile(topology)
            config = IrrevocableConfig(
                n=topology.num_nodes,
                t_mix=profile.mixing_time,
                conductance=profile.conductance,
            )
            workload.append((family, topology, config))
    return workload


def _timed_backend(backend, workload, adversary=None):
    """Run the workload under one core; return (fingerprints, seconds).

    ``adversary`` (an :class:`AdversarySpec`) perturbs every election,
    seeded with the election seed.
    """
    faults = (
        fault_scope(lambda: make_adversary(adversary, SEED))
        if adversary is not None
        else nullcontext()
    )
    # repro: disable=REP102 — backend speedup is a wall-clock measurement
    started = time.perf_counter()
    fingerprints = []
    with backend_scope(backend), faults:
        for family, topology, config in workload:
            result = run_irrevocable_election(topology, seed=SEED, config=config)
            fingerprints.append((family, topology.num_nodes, result.as_dict()))
    return fingerprints, time.perf_counter() - started  # repro: disable=REP102 — measurand


@pytest.mark.benchmark(group=BACKEND_EXPERIMENT_ID)
def test_event_backend_speedup(benchmark):
    # Build the workload (and pay the cached expansion profiles) before
    # timing, so neither core is charged for mixing-time computation.
    workload = _backend_workload()

    def _compare():
        return [
            (
                _timed_backend("round", workload, adversary),
                _timed_backend("event", workload, adversary),
            )
            for adversary in (None, BACKEND_LOSS)
        ]

    plain, loss = benchmark.pedantic(_compare, rounds=1, iterations=1)
    (round_fps, round_seconds), (event_fps, event_seconds) = plain
    (round_loss_fps, round_seconds_loss), (event_loss_fps, event_seconds_loss) = loss

    def _speedup(round_s, event_s):
        return round_s / event_s if event_s > 0 else float("inf")

    speedup = _speedup(round_seconds, event_seconds)
    speedup_loss = _speedup(round_seconds_loss, event_seconds_loss)
    rows = [
        {"family": family, "n": n, "rounds": record["rounds"]}
        for family, n, record in event_fps
    ]
    record_report(
        BACKEND_EXPERIMENT_ID,
        rows_table(rows, "Workload of the round-vs-event core comparison"),
        f"round core: {round_seconds:.3f}s  event core: {event_seconds:.3f}s  "
        f"speedup: {speedup:.2f}x",
        f"under {BACKEND_LOSS.token()}: round core: {round_seconds_loss:.3f}s  "
        f"event core: {event_seconds_loss:.3f}s  speedup: {speedup_loss:.2f}x",
    )
    record_bench_json(
        BACKEND_EXPERIMENT_ID,
        {
            "cycle_sizes": list(BACKEND_CYCLE_SIZES),
            "expander_sizes": list(BACKEND_EXPANDER_SIZES),
            "seed": SEED,
            "round_seconds": round_seconds,
            "event_seconds": event_seconds,
            "speedup_event_vs_round": speedup,
            "loss_adversary": BACKEND_LOSS.token(),
            "round_seconds_loss": round_seconds_loss,
            "event_seconds_loss": event_seconds_loss,
            "speedup_event_vs_round_loss": speedup_loss,
            "smoke": SMOKE,
        },
    )

    # --- shape checks ----------------------------------------------------- #
    # Equivalence is non-negotiable in either mode: the event core must
    # reproduce every election outcome and metric bit for bit, with and
    # without message loss.
    assert event_fps == round_fps
    assert event_loss_fps == round_loss_fps

    if not SMOKE:
        # On the quiescence-heavy workload the event core must actually
        # pay for itself; smoke mode only checks the wiring.
        assert speedup >= 2.0, f"event core speedup {speedup:.2f}x below 2x"
