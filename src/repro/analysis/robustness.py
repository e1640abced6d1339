"""Robustness curves: success/safety-vs-``p`` per (protocol, adversary).

A robustness sweep (:func:`repro.dynamics.robustness_specs`,
``repro-le sweep --scenario lossy/skewed/...``) measures every protocol
under a *ladder* of adversary rungs.  This module folds those
measurements into the curves the paper's robustness story is about: for
each (protocol configuration, adversary family), how do the success rate
(a unique leader was elected), the safety rate (never more than one
leader), and the cost degrade as the fault dial ``p`` is turned up?

:func:`fold_experiments` folds finished
(:class:`~repro.analysis.experiments.ExperimentSpec`,
:class:`~repro.analysis.experiments.ExperimentResult`) pairs into
:class:`RobustnessCurve` records.  Every cell carries the exact
:class:`~repro.analysis.streaming.CellAggregate` it was assembled from,
and the fold merges those aggregates per curve point, so the curves are
**bit-identical no matter how the runs were scheduled** — serial grid
order, any pool worker count, or the concatenated results of a sharded
split all fold to the same values.

The fault dial
--------------

Each adversary family exposes one severity parameter
(:data:`DIAL_PARAMETERS`): ``p`` for loss/delay/skew/crash, ``p_down``
for churn.  The unperturbed baseline rung (``None`` in a scenario
ladder) sits at ``p = 0.0`` and is shared by every family curve of its
protocol.  A ``composed`` rung's severity is the maximum of its parts'
dials — a scalar proxy good enough to order the rungs of one ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from ..core.errors import ConfigurationError
from ..dynamics.spec import AdversarySpec, make_adversary
from .experiments import ExperimentResult, ExperimentSpec
from .streaming import CellAggregate

__all__ = [
    "DIAL_PARAMETERS",
    "CurvePoint",
    "RobustnessCurve",
    "classify_adversary",
    "curve_rows",
    "curves_as_dicts",
    "fold_experiments",
]

#: Adversary family -> the parameter that dials its severity (the curve's
#: x-axis).  Families not listed fall back to ``"p"``.
DIAL_PARAMETERS: Dict[str, str] = {
    "loss": "p",
    "delay": "p",
    "skew": "p",
    "crash": "p",
    "churn": "p_down",
}

#: token -> (family, dial value); classifying a rung instantiates the
#: model once to resolve parameter defaults, so the lookup is cached.
_CLASSIFY_CACHE: Dict[str, Tuple[str, float]] = {}


def _dial_value(described: Mapping[str, object]) -> float:
    dial = DIAL_PARAMETERS.get(str(described.get("name")), "p")
    value = described.get(dial, 0.0)
    return float(value) if isinstance(value, (int, float)) else 0.0


def classify_adversary(
    adversary: Union[None, AdversarySpec, Mapping[str, object]],
) -> Tuple[str, float]:
    """(family, dial value) of one adversary rung.

    ``adversary`` is an :class:`~repro.dynamics.spec.AdversarySpec`, the
    ``spec.as_dict()`` mapping a run records in its parameters, or
    ``None`` for the unperturbed baseline (classified ``("", 0.0)``).
    Parameter defaults are resolved by instantiating the model once (the
    rung ``loss`` without an explicit ``p`` still lands at the model's
    default 0.05, not at 0); a ``composed`` rung's dial is the maximum
    over its parts.
    """
    if adversary is None:
        return ("", 0.0)
    if isinstance(adversary, AdversarySpec):
        spec = adversary
    else:
        try:
            name = str(adversary["name"])
        except (KeyError, TypeError):
            raise ConfigurationError(
                f"cannot classify adversary {adversary!r}: expected None, "
                f"an AdversarySpec, or a name/params mapping"
            ) from None
        params = dict(adversary.get("params", {}))
        spec = AdversarySpec(name=name, params=tuple(sorted(params.items())))
    token = spec.token()
    cached = _CLASSIFY_CACHE.get(token)
    if cached is None:
        described = make_adversary(spec, seed=0).describe()
        if spec.name == "composed":
            value = max(
                (_dial_value(part) for part in described.get("parts", ())),
                default=0.0,
            )
        else:
            value = _dial_value(described)
        cached = _CLASSIFY_CACHE[token] = (spec.name, value)
    return cached


@dataclass(frozen=True)
class CurvePoint:
    """One rung of a robustness curve: all runs at one dial value."""

    p: float
    runs: int
    successes: int
    safe_runs: int
    mean_messages: float
    mean_rounds: float
    mean_dropped_messages: float
    mean_delayed_messages: float

    @property
    def success_rate(self) -> float:
        return self.successes / self.runs if self.runs else 0.0

    @property
    def safety_rate(self) -> float:
        return self.safe_runs / self.runs if self.runs else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "p": self.p,
            "runs": self.runs,
            "successes": self.successes,
            "safe_runs": self.safe_runs,
            "success_rate": self.success_rate,
            "safety_rate": self.safety_rate,
            "mean_messages": self.mean_messages,
            "mean_rounds": self.mean_rounds,
            "mean_dropped_messages": self.mean_dropped_messages,
            "mean_delayed_messages": self.mean_delayed_messages,
        }


@dataclass(frozen=True)
class RobustnessCurve:
    """Success/safety-vs-``p`` of one protocol under one adversary family.

    ``points`` are sorted by strictly increasing ``p``; the first point
    is the shared unperturbed baseline (``p = 0.0``) whenever the sweep
    carried one.
    """

    protocol: str
    adversary: str
    points: Tuple[CurvePoint, ...]

    def series(self, y_field: str = "success_rate") -> List[Tuple[float, object]]:
        """The (p, y) series of the curve, for plots and fits."""
        return [(point.p, point.as_dict()[y_field]) for point in self.points]

    def as_dict(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "adversary": self.adversary,
            "points": [point.as_dict() for point in self.points],
        }


#: bucket key: (protocol configuration, adversary family, dial value).
_Key = Tuple[str, str, float]


def _assemble_curves(points: Dict[_Key, CurvePoint]) -> List[RobustnessCurve]:
    """Group per-bucket points into per-(protocol, family) curves.

    The baseline bucket (family ``""``) of each protocol is prepended to
    every family curve of that protocol at ``p = 0.0`` — unless the
    family carries its own explicit ``p = 0.0`` rung, which wins.
    """
    baselines: Dict[str, CurvePoint] = {}
    families: Dict[Tuple[str, str], Dict[float, CurvePoint]] = {}
    for (protocol, family, p), point in points.items():
        if family == "":
            baselines[protocol] = point
        else:
            families.setdefault((protocol, family), {})[p] = point
    curves: List[RobustnessCurve] = []
    for (protocol, family) in sorted(families):
        rungs = families[(protocol, family)]
        baseline = baselines.get(protocol)
        if baseline is not None and 0.0 not in rungs:
            rungs[0.0] = baseline
        curves.append(
            RobustnessCurve(
                protocol=protocol,
                adversary=family,
                points=tuple(rungs[p] for p in sorted(rungs)),
            )
        )
    return curves


def _point(p: float, aggregate: CellAggregate) -> CurvePoint:
    """The curve point of one bucket's merged aggregate."""
    return CurvePoint(
        p=p,
        runs=aggregate.count,
        successes=aggregate.successes,
        safe_runs=aggregate.safety.safe_runs,
        mean_messages=aggregate.mean_messages,
        mean_rounds=aggregate.mean_rounds,
        mean_dropped_messages=aggregate.mean_dropped_messages,
        mean_delayed_messages=aggregate.mean_delayed_messages,
    )


def fold_experiments(
    specs: Sequence[ExperimentSpec],
    results: Sequence[ExperimentResult],
) -> List[RobustnessCurve]:
    """Fold finished experiment results into robustness curves.

    ``specs`` and ``results`` are matched positionally (the order
    :func:`repro.parallel.run_experiments` returns them in); each spec's
    adversary classifies all of its cells onto one rung, and the cells'
    exact aggregates merge per (protocol, family, dial) bucket.  Sharded
    results fold too — a shard's slice simply contributes fewer runs per
    point, and folding the concatenated (spec, result) lists of every
    shard yields the serial sweep's curves.
    """
    if len(specs) != len(results):
        raise ConfigurationError(
            f"fold_experiments needs one result per spec, got "
            f"{len(specs)} specs and {len(results)} results"
        )
    buckets: Dict[_Key, CellAggregate] = {}
    for spec, result in zip(specs, results):
        family, p = classify_adversary(spec.adversary)
        for cell in result.cells:
            if cell.aggregate is None:
                raise ConfigurationError(
                    f"cell {cell.topology_name!r} of {result.name!r} carries "
                    f"no aggregate to fold (build cells with cell_from_aggregate)"
                )
            protocol = str(cell.protocol or cell.algorithm)
            bucket = buckets.get((protocol, family, p))
            if bucket is None:
                bucket = buckets[(protocol, family, p)] = CellAggregate()
            bucket.merge(cell.aggregate)
    return _assemble_curves(
        {key: _point(key[2], aggregate) for key, aggregate in buckets.items()}
    )


def curve_rows(curves: Iterable[RobustnessCurve]) -> List[Dict[str, object]]:
    """Flatten curves into report rows for :func:`repro.analysis.render_table`."""
    rows: List[Dict[str, object]] = []
    for curve in curves:
        for point in curve.points:
            rows.append(
                {
                    "protocol": curve.protocol,
                    "adversary": curve.adversary,
                    **point.as_dict(),
                }
            )
    return rows


def curves_as_dicts(curves: Iterable[RobustnessCurve]) -> List[Dict[str, object]]:
    """JSON-ready curve records (the BENCH artifact's ``curves`` entries)."""
    return [curve.as_dict() for curve in curves]
