"""Closed-form theoretical predictions for the Table 1 bounds.

To compare measured costs against the paper's asymptotic claims, the
benchmark harness and EXPERIMENTS.md need the *predicted* quantity for
each algorithm at each measured configuration — e.g.
``√(n·t_mix)/Φ · log² n`` messages for Theorem 1, ``t_mix·√n·log^{7/2} n``
for Gilbert et al., ``m`` for flooding.  The functions here evaluate those
expressions from an :class:`~repro.graphs.properties.ExpansionProfile`;
the constants are deliberately 1 (the paper's `Õ(·)` hides them), so only
ratios and growth rates of the predictions are meaningful, which is how the
analysis layer uses them (:func:`repro.analysis.complexity.theory_ratio_series`).

Open conflict: two improvement factors of Theorem 1 over Gilbert et al.
The docstrings of ``bench_message_scaling.py`` and
``bench_table1_known_n.py`` state ``Õ(√(t_mix·Φ))``.  The quotient of the
bounds below, :func:`gilbert_messages` over :func:`thm1_messages`, is
``√t_mix·Φ·log^{3/2} n``.  Both cannot hold; they would agree if
Theorem 1 read ``√(n·t_mix/Φ)``.  The paper's text is not in this
repository, so :func:`thm1_messages` is left as it stands until the
theorem can be checked: every use of :func:`predicted_rows` and
``theory_ratio_series`` depends on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List

from ..core.errors import ConfigurationError
from ..graphs.properties import ExpansionProfile

__all__ = [
    "TheoreticalBound",
    "thm1_messages",
    "thm1_rounds",
    "gilbert_messages",
    "gilbert_rounds",
    "flooding_messages",
    "flooding_rounds",
    "revocable_rounds",
    "revocable_messages",
    "lower_bound_messages",
    "KNOWN_N_BOUNDS",
    "predicted_rows",
]


def _log(n: int) -> float:
    return max(1.0, math.log(n))


def thm1_messages(profile: ExpansionProfile) -> float:
    """Theorem 1: ``Õ(√(n·t_mix)/Φ)`` messages (polylog factor log² n).

    Its quotient with :func:`gilbert_messages` conflicts with the
    improvement factor the benchmarks state (see the module docstring).
    """
    return (
        math.sqrt(profile.num_nodes * profile.mixing_time)
        / profile.conductance
        * _log(profile.num_nodes) ** 2
    )


def thm1_rounds(profile: ExpansionProfile) -> float:
    """Theorem 1: ``O(t_mix·log² n)`` rounds."""
    return profile.mixing_time * _log(profile.num_nodes) ** 2


def gilbert_messages(profile: ExpansionProfile) -> float:
    """Gilbert et al. [10]: ``O(t_mix·√n·log^{7/2} n)`` messages."""
    return (
        profile.mixing_time
        * math.sqrt(profile.num_nodes)
        * _log(profile.num_nodes) ** 3.5
    )


def gilbert_rounds(profile: ExpansionProfile) -> float:
    """Gilbert et al. [10] as instantiated here (t_mix known): Õ(t_mix)."""
    return profile.mixing_time * _log(profile.num_nodes)


def flooding_messages(profile: ExpansionProfile) -> float:
    """Kutten et al. [16] style flooding: ``O(m)`` messages (log-factor slack)."""
    return profile.num_edges * _log(profile.num_nodes)


def flooding_rounds(profile: ExpansionProfile) -> float:
    """Flooding: ``O(D)`` rounds."""
    return float(profile.diameter + 1)


def lower_bound_messages(profile: ExpansionProfile) -> float:
    """The Ω(√n / Φ^{3/4}) message lower bound of [10] quoted in Section 1."""
    return math.sqrt(profile.num_nodes) / profile.conductance ** 0.75


def revocable_rounds(profile: ExpansionProfile, *, epsilon: float = 1.0) -> float:
    """Theorem 3: ``Õ(n^{4(1+ε)} / i(G)²)`` rounds."""
    if profile.isoperimetric_number <= 0:
        raise ConfigurationError("isoperimetric number must be positive")
    return (
        profile.num_nodes ** (4.0 * (1.0 + epsilon))
        / profile.isoperimetric_number ** 2
        * _log(profile.num_nodes) ** 5
    )


def revocable_messages(profile: ExpansionProfile, *, epsilon: float = 1.0) -> float:
    """Theorem 3: rounds × m messages."""
    return revocable_rounds(profile, epsilon=epsilon) * profile.num_edges


@dataclass(frozen=True)
class TheoreticalBound:
    """A named pair of message/round predictions for one algorithm."""

    algorithm: str
    messages: Callable[[ExpansionProfile], float]
    rounds: Callable[[ExpansionProfile], float]

    def evaluate(self, profile: ExpansionProfile) -> Dict[str, float]:
        return {
            "algorithm": self.algorithm,
            "predicted_messages": self.messages(profile),
            "predicted_rounds": self.rounds(profile),
        }


#: The known-``n`` rows of Table 1, as evaluable bounds.
KNOWN_N_BOUNDS: List[TheoreticalBound] = [
    TheoreticalBound("this-work-thm1", thm1_messages, thm1_rounds),
    TheoreticalBound("gilbert-podc18", gilbert_messages, gilbert_rounds),
    TheoreticalBound("flooding-kutten", flooding_messages, flooding_rounds),
]


def predicted_rows(profiles: Dict[str, ExpansionProfile]) -> List[Dict[str, object]]:
    """One row per (topology, algorithm) with the predicted cost quantities.

    Used to print theory-next-to-measurement tables in reports; since the
    constants are all 1, compare *ratios across rows*, never absolute
    values against measurements.
    """
    rows: List[Dict[str, object]] = []
    for name, profile in profiles.items():
        for bound in KNOWN_N_BOUNDS:
            row: Dict[str, object] = {"topology": name}
            row.update(bound.evaluate(profile))
            rows.append(row)
    return rows
