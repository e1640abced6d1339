"""Robustness sweeps: experiment grids with an adversary axis.

A robustness sweep asks how an election algorithm's safety, success rate
and cost degrade as an execution-model perturbation is dialled up.  The
helpers here expand (algorithm × adversary) grids into the same
:class:`~repro.analysis.experiments.ExperimentSpec` objects the rest of
the experiment machinery consumes, so robustness grids shard, parallelise
and checkpoint exactly like static ones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Union

from ..graphs.topology import Topology
from .spec import AdversarySpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.experiments import ExperimentSpec
    from ..protocols.spec import ProtocolSpec

__all__ = ["adversary_grid", "composed_spec", "robustness_specs"]


def adversary_grid(
    name: str, param: str, values: Iterable[float], **fixed: float
) -> List[AdversarySpec]:
    """One spec per value of a single dialled parameter.

    ``adversary_grid("loss", "p", [0.01, 0.05, 0.1])`` is the x-axis of a
    classic robustness curve; ``fixed`` pins the model's other parameters.
    """
    return [
        AdversarySpec.create(name, **{**fixed, param: value}) for value in values
    ]


def composed_spec(*parts: AdversarySpec) -> AdversarySpec:
    """Compose several adversary specs into one ``composed`` model spec.

    ``composed_spec(AdversarySpec.create("loss", p=0.05),
    AdversarySpec.create("delay", max_delay=3))`` perturbs each run with
    loss *and* delay simultaneously, every part drawing from its own
    seed-derived RNG stream (see
    :class:`~repro.dynamics.adversaries.ComposedAdversary`).  The result
    is an ordinary grid value: it shards, parallelises and checkpoints
    like any other adversary, with its own stable token.
    """
    from ..core.errors import ConfigurationError

    if not parts:
        raise ConfigurationError("composed_spec needs at least one adversary spec")
    params: dict = {"models": "+".join(part.name for part in parts)}
    for part in parts:
        for key, value in part.params:
            params[f"{part.name}.{key}"] = value
    return AdversarySpec.create("composed", **params)


def robustness_specs(
    algorithms: Sequence[Union[str, "ProtocolSpec"]],
    topologies: Sequence[Topology],
    adversaries: Sequence[Optional[AdversarySpec]],
    *,
    seeds: Sequence[int] = (0, 1, 2),
    collect_profile: bool = False,
) -> List["ExperimentSpec"]:
    """Expand an (algorithm × adversary) grid into experiment specs.

    ``algorithms`` entries are anything :func:`repro.workloads.suites.sweep_specs`
    accepts — bare protocol names, parameterised protocol spec strings
    ("irrevocable:c=3"), or :class:`~repro.protocols.spec.ProtocolSpec`
    objects — so robustness curves compose with protocol parameter grids
    (how does a *retuned* protocol degrade under faults?).

    ``None`` in ``adversaries`` denotes the unperturbed baseline, so a
    grid usually starts with it: the baseline cells calibrate what the
    fault models cost.  Construction and naming delegate to
    :func:`repro.workloads.suites.sweep_specs` — spec names (and through
    them checkpoint task keys) are ``"<algorithm>@<adversary token>"``,
    plain ``"<algorithm>"`` for the baseline, with a single source of
    truth for the format.
    """
    from ..workloads.suites import sweep_specs

    specs: List["ExperimentSpec"] = []
    for adversary in adversaries:
        specs.extend(
            sweep_specs(
                algorithms,
                topologies,
                seeds=seeds,
                collect_profile=collect_profile,
                adversary=adversary,
            )
        )
    return specs
