"""Named topology suites used by benchmarks and examples.

The paper's bounds behave very differently depending on expansion:

* on *well-connected* graphs (``t_mix = Θ̃(1/Φ)``) Theorem 1's protocol is
  near-optimal and beats both the ``Ω(m)`` flooding bound and the Gilbert
  et al. message bound;
* on *poorly-connected* graphs (cycles, barbells) mixing is slow and the
  advantage narrows or reverses;
* the revocable protocol's cost is dominated by the isoperimetric number.

The suites below fix representative families at a few sizes so every
benchmark and example samples the same regimes.  All generators are seeded,
so a suite is fully reproducible.
"""

from __future__ import annotations

import itertools
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Union,
)

from ..core.errors import ConfigurationError
from ..graphs import generators
from ..graphs.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.experiments import ExperimentSpec
    from ..dynamics.spec import AdversarySpec
    from ..protocols.spec import ProtocolSpec

__all__ = [
    "well_connected_suite",
    "poorly_connected_suite",
    "mixed_suite",
    "scaling_family",
    "tiny_suite",
    "SUITES",
    "DEFAULT_SUITE",
    "suite_by_name",
    "sweep_specs",
    "param_grid",
    "robustness_curves",
    "DYNAMIC_SCENARIOS",
    "dynamic_scenario",
    "PROTOCOL_SCENARIOS",
    "protocol_scenario",
]

#: What a sweep accepts as one algorithm: a registered protocol name
#: ("flooding"), a protocol spec string with parameters
#: ("irrevocable:c=3"), or a ready :class:`~repro.protocols.spec.ProtocolSpec`.
Algorithm = Union[str, "ProtocolSpec"]


def well_connected_suite(sizes: Sequence[int] = (32, 64, 128), *, seed: int = 7) -> List[Topology]:
    """Expanders and dense graphs: random regular, hypercube, complete."""
    suite: List[Topology] = []
    for n in sizes:
        suite.append(generators.random_regular(n, 4, seed=seed + n))
    dimensions = sorted({max(3, n.bit_length() - 1) for n in sizes})
    for dimension in dimensions:
        suite.append(generators.hypercube(dimension))
    suite.append(generators.complete(max(8, min(sizes))))
    return suite


def poorly_connected_suite(sizes: Sequence[int] = (16, 32, 64), *, seed: int = 7) -> List[Topology]:
    """Slow-mixing graphs: cycles, paths, barbells."""
    suite: List[Topology] = []
    for n in sizes:
        suite.append(generators.cycle(n))
    suite.append(generators.path(max(8, min(sizes))))
    suite.append(generators.barbell(max(4, min(sizes) // 2)))
    return suite


def mixed_suite(*, seed: int = 7) -> List[Topology]:
    """A small cross-section of both regimes plus intermediate topologies."""
    return [
        generators.random_regular(64, 4, seed=seed),
        generators.hypercube(6),
        generators.torus_2d(8, 8),
        generators.cycle(32),
        generators.barbell(16),
        generators.binary_tree(5),
    ]


def scaling_family(
    family: str,
    sizes: Sequence[int],
    *,
    seed: int = 7,
) -> List[Topology]:
    """A single graph family across sizes, for scaling (figure-style) series.

    ``family`` is one of ``"random_regular"``, ``"cycle"``, ``"torus"``,
    ``"hypercube"``, ``"complete"``.
    """
    builders: Dict[str, Callable[[int], Topology]] = {
        "random_regular": lambda n: generators.random_regular(n, 4, seed=seed + n),
        "cycle": generators.cycle,
        "complete": generators.complete,
        "torus": lambda n: generators.torus_2d(_square_side(n), _square_side(n)),
        "hypercube": lambda n: generators.hypercube(max(2, (n - 1).bit_length())),
    }
    if family not in builders:
        raise ConfigurationError(
            f"unknown scaling family {family!r}; available: {sorted(builders)}"
        )
    return [builders[family](n) for n in sizes]


def tiny_suite(*, seed: int = 7) -> List[Topology]:
    """Very small graphs for the (intrinsically expensive) revocable election."""
    return [
        generators.complete(4),
        generators.complete(6),
        generators.cycle(5),
        generators.star(5),
        generators.grid_2d(2, 3),
    ]


def _square_side(n: int) -> int:
    side = max(3, round(n ** 0.5))
    return side


SUITES: Dict[str, Callable[..., List[Topology]]] = {
    "well_connected": well_connected_suite,
    "poorly_connected": poorly_connected_suite,
    "mixed": mixed_suite,
    "tiny": tiny_suite,
}

#: the suite a sweep or query plans when it names none
DEFAULT_SUITE = "mixed"


def suite_by_name(name: str, **kwargs) -> List[Topology]:
    """Look up a suite builder by name and call it."""
    try:
        builder = SUITES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown suite {name!r}; available: {sorted(SUITES)}"
        ) from None
    return builder(**kwargs)


def sweep_specs(
    algorithms: Sequence[Algorithm],
    topologies: Sequence[Topology],
    *,
    seeds: Sequence[int] = (0, 1, 2),
    collect_profile: bool = True,
    adversary: Optional["AdversarySpec"] = None,
) -> List["ExperimentSpec"]:
    """Build one :class:`~repro.analysis.experiments.ExperimentSpec` per algorithm.

    Each entry of ``algorithms`` is a registered protocol name
    ("flooding"), a protocol spec string with parameters
    ("irrevocable:c=3,x_multiplier=1.5"), or a ready
    :class:`~repro.protocols.spec.ProtocolSpec` (e.g. from
    :func:`param_grid`); strings are parsed with
    :meth:`ProtocolSpec.parse <repro.protocols.spec.ProtocolSpec.parse>`.
    Each spec is named by its protocol's token, so two variants of the
    same algorithm occupy distinct cells, and a bare name keeps the task
    keys it had before protocol specs existed (see
    :meth:`~repro.analysis.experiments.ExperimentSpec.protocol_token`).
    The specs are picklable and can be handed directly to the parallel
    engine (``repro.parallel.run_experiments``) or to the CLI's ``sweep``
    command.  ``adversary`` attaches one fault model
    (:class:`~repro.dynamics.spec.AdversarySpec`) to every spec; use
    :func:`repro.dynamics.robustness_specs` for full (algorithm ×
    adversary) grids.
    """
    from ..analysis.experiments import ExperimentSpec
    from ..protocols.spec import ProtocolSpec

    specs: List["ExperimentSpec"] = []
    spellings: Dict[str, str] = {}
    for algorithm in algorithms:
        protocol = (
            algorithm
            if isinstance(algorithm, ProtocolSpec)
            else ProtocolSpec.parse(algorithm)
        )
        base = protocol.token()
        name = base if adversary is None else f"{base}@{adversary.token()}"
        # Catch same-configuration collisions here, where the original
        # spellings are still in hand: "flooding:c=2" and "flooding:c=2.00"
        # coerce to one token, and "flooding" vs "flooding:c=2.0" differ
        # only in spelling out the default — either way the sweep would
        # measure one configuration twice (the engine's later unique-name
        # check would quote names the user never typed, or miss the
        # bare-name case entirely).
        canonical = protocol.canonical()
        spelling = str(algorithm)
        if canonical in spellings:
            raise ConfigurationError(
                f"algorithms {spellings[canonical]!r} and {spelling!r} are "
                f"the same configuration ({canonical})"
            )
        spellings[canonical] = spelling
        specs.append(
            ExperimentSpec(
                name=name,
                protocol=protocol,
                topologies=list(topologies),
                seeds=tuple(seeds),
                collect_profile=collect_profile,
                adversary=adversary,
            )
        )
    return specs


def param_grid(name: str, **axes: object) -> List["ProtocolSpec"]:
    """Expand one protocol's parameter grid into a list of spec variants.

    Every keyword is a parameter of protocol ``name``; list/tuple values
    are swept axes, scalars are pinned.  The cross-product is enumerated
    with axes in sorted parameter order (deterministic regardless of
    keyword order), each combination validated against the protocol's
    schema::

        param_grid("irrevocable", c=[1.5, 2.0, 3.0])
        # -> [irrevocable:c=1.5, irrevocable:c=2.0, irrevocable:c=3.0]
        param_grid("irrevocable", c=[2.0, 3.0], x_multiplier=1.5)
        # -> two variants, x_multiplier pinned on both

    Feed the result straight to :func:`sweep_specs` (or concatenate grids
    of several protocols) — a paper-style cost-vs-parameter curve is one
    sweep away.
    """
    from ..protocols.spec import ProtocolSpec

    items = sorted(axes.items())
    value_lists: List[List[object]] = [
        list(values) if isinstance(values, (list, tuple)) else [values]
        for _, values in items
    ]
    for (key, _), values in zip(items, value_lists):
        if not values:
            raise ConfigurationError(
                f"param_grid axis {key!r} for {name!r} must not be empty"
            )
    names = [key for key, _ in items]
    return [
        ProtocolSpec.create(name, **dict(zip(names, combo)))
        for combo in itertools.product(*value_lists)
    ]


def robustness_curves(
    name: str,
    topologies: Sequence[Topology],
    *,
    scenario: Union[str, Sequence[Optional["AdversarySpec"]]] = "lossy",
    seeds: Sequence[int] = (0, 1, 2),
    collect_profile: bool = False,
    **axes: object,
) -> List["ExperimentSpec"]:
    """Cross one protocol's parameter grid with an adversary ladder.

    The "retuned protocol under faults" grid in one call: every
    :func:`param_grid` variant of protocol ``name`` (keyword axes; a bare
    ``name`` with no axes sweeps the default configuration only) runs
    under every rung of ``scenario`` — a :data:`DYNAMIC_SCENARIOS` name
    or an explicit adversary ladder (``None`` entries are the unperturbed
    baseline).  The resulting specs shard, parallelise and checkpoint
    like any others, and their streamed runs fold directly into
    success/safety-vs-``p`` curves via
    :mod:`repro.analysis.robustness`::

        robustness_curves("irrevocable", tiny_suite(),
                          scenario="skewed", c=[1.5, 2.0, 3.0])
        # 3 protocol variants × 4 ladder rungs = 12 experiment specs
    """
    from ..dynamics.sweeps import robustness_specs

    algorithms: List[Algorithm] = (
        list(param_grid(name, **axes)) if axes else [name]
    )
    ladder = dynamic_scenario(scenario) if isinstance(scenario, str) else list(scenario)
    if not ladder:
        raise ConfigurationError(
            "robustness_curves needs a non-empty adversary ladder"
        )
    return robustness_specs(
        algorithms,
        topologies,
        ladder,
        seeds=seeds,
        collect_profile=collect_profile,
    )


# --------------------------------------------------------------------------- #
# dynamic (adversarial) scenario suites
# --------------------------------------------------------------------------- #


def lossy_scenario() -> List[Optional["AdversarySpec"]]:
    """Benign-to-harsh i.i.d. message loss, baseline first."""
    from ..dynamics.spec import AdversarySpec

    return [None] + [
        AdversarySpec.create("loss", p=p) for p in (0.01, 0.05, 0.1)
    ]


def laggy_scenario() -> List[Optional["AdversarySpec"]]:
    """Bounded message delay at increasing rates and bounds."""
    from ..dynamics.spec import AdversarySpec

    return [
        None,
        AdversarySpec.create("delay", p=0.1, max_delay=2),
        AdversarySpec.create("delay", p=0.3, max_delay=5),
    ]


def flaky_links_scenario() -> List[Optional["AdversarySpec"]]:
    """Link churn from occasional blips to sustained instability."""
    from ..dynamics.spec import AdversarySpec

    return [
        None,
        AdversarySpec.create("churn", p_down=0.02, p_up=0.5),
        AdversarySpec.create("churn", p_down=0.1, p_up=0.25),
    ]


def crashy_scenario() -> List[Optional["AdversarySpec"]]:
    """Crash-stop failures early in the execution.

    The horizon is short on purpose: crash rounds are uniform over
    ``1..horizon``, and a crash only matters if it lands before the
    protocol finishes — flooding completes in ``diameter + 2`` rounds, a
    handful on the small suites.
    """
    from ..dynamics.spec import AdversarySpec

    return [
        None,
        AdversarySpec.create("crash", p=0.1, horizon=3),
        AdversarySpec.create("crash", p=0.3, horizon=3),
    ]


def skewed_scenario() -> List[Optional["AdversarySpec"]]:
    """Persistent per-link round skew at increasing link coverage.

    The asynchrony ladder: a growing fraction of links runs consistently
    late (same lateness for the whole run — see
    :class:`~repro.dynamics.adversaries.AsynchronyAdversary`), which
    breaks round-synchrony of information spread in a way the i.i.d.
    bounded-delay model cannot express.
    """
    from ..dynamics.spec import AdversarySpec

    return [None] + [
        AdversarySpec.create("skew", p=p, max_skew=3) for p in (0.1, 0.3, 0.6)
    ]


def asynchronous_scenario() -> List[Optional["AdversarySpec"]]:
    """Bounded asynchrony in force: persistent skew plus i.i.d. delay and loss.

    Where :func:`skewed_scenario` isolates the per-link clock skew, this
    ladder composes it with jitter (i.i.d. bounded delay) and a little
    loss — the full "asynchronous network" stress the paper's synchrony
    assumption is measured against.
    """
    from ..dynamics.spec import AdversarySpec
    from ..dynamics.sweeps import composed_spec

    return [
        None,
        composed_spec(
            AdversarySpec.create("skew", p=0.2, max_skew=2),
            AdversarySpec.create("delay", p=0.1, max_delay=2),
        ),
        composed_spec(
            AdversarySpec.create("skew", p=0.4, max_skew=4),
            AdversarySpec.create("delay", p=0.2, max_delay=3),
            AdversarySpec.create("loss", p=0.02),
        ),
    ]


def stormy_scenario() -> List[Optional["AdversarySpec"]]:
    """Loss, delay and churn *together* in one run, dialled up jointly.

    The single-model ladders isolate one failure mode at a time; real
    deployments degrade on all of them at once.  Built on the composed
    adversary, so each rung perturbs every run with all three models,
    each drawing from its own seed-derived RNG stream.
    """
    from ..dynamics.spec import AdversarySpec
    from ..dynamics.sweeps import composed_spec

    return [
        None,
        composed_spec(
            AdversarySpec.create("loss", p=0.01),
            AdversarySpec.create("delay", p=0.05, max_delay=2),
        ),
        composed_spec(
            AdversarySpec.create("loss", p=0.05),
            AdversarySpec.create("delay", p=0.1, max_delay=3),
            AdversarySpec.create("churn", p_down=0.02, p_up=0.5),
        ),
    ]


#: Named adversary ladders for robustness sweeps.  Each scenario starts
#: with ``None`` (the paper's reliable execution model) so every sweep
#: carries its own calibration cells; feed one to
#: :func:`repro.dynamics.robustness_specs` together with a topology suite.
DYNAMIC_SCENARIOS: Dict[str, Callable[[], List[Optional["AdversarySpec"]]]] = {
    "lossy": lossy_scenario,
    "laggy": laggy_scenario,
    "skewed": skewed_scenario,
    "asynchronous": asynchronous_scenario,
    "flaky-links": flaky_links_scenario,
    "crashy": crashy_scenario,
    "stormy": stormy_scenario,
}


def dynamic_scenario(name: str) -> List[Optional["AdversarySpec"]]:
    """Look up a named dynamic scenario (a ladder of adversary specs)."""
    try:
        builder = DYNAMIC_SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown dynamic scenario {name!r}; available: "
            f"{sorted(DYNAMIC_SCENARIOS)}"
        ) from None
    return builder()


# --------------------------------------------------------------------------- #
# protocol (parameter-ladder) scenario suites
# --------------------------------------------------------------------------- #


def paper_constants_scenario() -> List["ProtocolSpec"]:
    """The paper's tunable constants dialled around their defaults.

    A ladder of ``irrevocable`` variants sweeping Theorem 1's phase-length
    constant ``c`` and the walk-count multiplier ``x_multiplier`` one at a
    time, default configuration first — the cells needed for the paper's
    cost-vs-constant curves in a single sweep.
    """
    from ..protocols.spec import ProtocolSpec

    return (
        [ProtocolSpec.create("irrevocable")]
        + param_grid("irrevocable", c=[1.5, 3.0])
        + param_grid("irrevocable", x_multiplier=[1.0, 3.0])
    )


#: Named protocol-parameter ladders.  Where :data:`DYNAMIC_SCENARIOS`
#: dials the execution model, these dial the protocols' own constants;
#: each builder returns the algorithm list of one sweep
#: (``repro-le sweep --scenario paper-constants``).
PROTOCOL_SCENARIOS: Dict[str, Callable[[], List["ProtocolSpec"]]] = {
    "paper-constants": paper_constants_scenario,
}


def protocol_scenario(name: str) -> List["ProtocolSpec"]:
    """Look up a named protocol scenario (a ladder of protocol variants)."""
    try:
        builder = PROTOCOL_SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown protocol scenario {name!r}; available: "
            f"{sorted(PROTOCOL_SCENARIOS)}"
        ) from None
    return builder()
