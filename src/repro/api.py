"""The supported library surface: ``run``, ``sweep``, ``query``, ``serve``.

Everything the CLI can do, a program can do through this module — and
through *only* this module, so the two can't drift.  The facade wraps
four verbs around the engine:

* :func:`run` — one election: a protocol on a topology under a seed
  (optionally under a fault adversary).
* :func:`sweep` — an experiment grid through the parallel engine
  (:func:`repro.parallel.runner.run_experiments`), configured by one
  :class:`SweepConfig` — the engine's own configuration type, validated
  when it is built.
* :func:`query` — the memoized read path: answer a grid from a
  persistent :class:`~repro.archive.store.ResultArchive`, simulating
  only the cells the archive is missing (see :mod:`repro.archive`).
* :func:`serve` — the same read path over HTTP
  (:mod:`repro.archive.service`).

:func:`plan_sweep` is the shared spec planner: the CLI's
``--algorithms/--scenario/--adversary`` surface and the HTTP endpoint's
query parameters both expand to experiment specs through it.

Example::

    from repro import api
    from repro.workloads import suite_by_name

    specs, _ = api.plan_sweep(suite="tiny", algorithms=["flooding"], seeds=3)
    cfg = api.SweepConfig(workers=4)
    results = api.sweep(specs, config=cfg)
    answer = api.query(specs, archive="results.sqlite", config=cfg)
    assert answer.report.simulated_runs == 0  # second time around
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from .analysis.experiments import ExperimentResult, ExperimentSpec
from .analysis.streaming import ResultSink
from .core.errors import ConfigurationError
from .election.base import LeaderElectionResult
from .graphs.topology import Topology
from .parallel.runner import SweepConfig

__all__ = [
    "SweepConfig",
    "plan_sweep",
    "run",
    "sweep",
    "query",
    "serve",
]


def plan_sweep(
    *,
    suite: Optional[str] = None,
    topologies: Optional[Sequence[Topology]] = None,
    algorithms: Optional[Sequence[object]] = None,
    scenario: Optional[str] = None,
    adversary: Optional[object] = None,
    adversary_params: Optional[Sequence[str]] = None,
    seeds: int = 3,
    collect_profile: bool = True,
) -> Tuple[List[ExperimentSpec], bool]:
    """Expand a sweep/query request into experiment specs.

    Returns ``(specs, adversarial)`` where ``adversarial`` says whether
    the grid injects faults (and a sweep's exit criterion becomes the
    safety verdict).  This is the one planner behind ``repro-le sweep``,
    ``repro-le query`` and the HTTP ``/query`` endpoint:

    * ``topologies`` (explicit) or ``suite`` (a name from
      :data:`repro.workloads.SUITES`; default ``"mixed"``) fixes the
      topology axis;
    * ``algorithms`` are protocol spec strings/values (default
      ``["flooding", "gilbert"]``);
    * ``scenario`` names a ladder from
      :data:`repro.workloads.DYNAMIC_SCENARIOS` (adversary rungs) or
      :data:`repro.workloads.PROTOCOL_SCENARIOS` (parameterised protocol
      variants — fixes the algorithm list itself);
    * ``adversary`` (+ ``adversary_params``, ``K=V`` strings) attaches
      one fault model to every spec instead.
    """
    from .workloads import (
        DEFAULT_SUITE,
        DYNAMIC_SCENARIOS,
        PROTOCOL_SCENARIOS,
        dynamic_scenario,
        protocol_scenario,
        suite_by_name,
        sweep_specs,
    )

    if adversary is not None and scenario is not None:
        raise ConfigurationError(
            "adversary and scenario are mutually exclusive"
        )
    spec_adversary = _resolve_adversary(adversary, adversary_params)
    if seeds < 1:
        raise ConfigurationError(f"seeds must be >= 1, got {seeds}")
    if topologies is None:
        topologies = suite_by_name(suite if suite is not None else DEFAULT_SUITE)
    elif suite is not None:
        raise ConfigurationError("pass either suite= or topologies=, not both")

    chosen = list(algorithms) if algorithms is not None else ["flooding", "gilbert"]
    if not chosen:
        raise ConfigurationError("algorithms must name at least one algorithm, got []")
    adversarial = bool(adversary or scenario in DYNAMIC_SCENARIOS)
    if scenario is not None and scenario in PROTOCOL_SCENARIOS:
        # A protocol scenario fixes the algorithm list itself: a ladder of
        # parameterised variants of the protocols under study.
        if algorithms is not None:
            raise ConfigurationError(
                f"scenario {scenario!r} is a protocol ladder that fixes "
                f"the algorithm list; drop algorithms (dynamic scenarios "
                f"{sorted(DYNAMIC_SCENARIOS)} do combine with it)"
            )
        specs = sweep_specs(
            protocol_scenario(scenario),
            topologies,
            seeds=tuple(range(seeds)),
            collect_profile=collect_profile,
        )
    elif scenario is not None:
        from .dynamics import robustness_specs

        if scenario not in DYNAMIC_SCENARIOS:
            raise ConfigurationError(
                f"unknown scenario {scenario!r}; available: dynamic "
                f"{sorted(DYNAMIC_SCENARIOS)}, protocol "
                f"{sorted(PROTOCOL_SCENARIOS)}"
            )
        specs = robustness_specs(
            chosen,
            topologies,
            dynamic_scenario(scenario),
            seeds=tuple(range(seeds)),
            collect_profile=collect_profile,
        )
    else:
        specs = sweep_specs(
            chosen,
            topologies,
            seeds=tuple(range(seeds)),
            collect_profile=collect_profile,
            adversary=spec_adversary,
        )
    return specs, adversarial


def _resolve_adversary(adversary, adversary_params):
    """An :class:`~repro.dynamics.spec.AdversarySpec` from its CLI spelling."""
    if adversary is None:
        if adversary_params:
            raise ConfigurationError(
                "adversary_params (--adversary-param) requires adversary "
                "(--adversary)"
            )
        return None
    from .dynamics import parse_adversary_params, spec_from_cli
    from .dynamics.spec import AdversarySpec

    if isinstance(adversary, AdversarySpec):
        if adversary_params:
            raise ConfigurationError(
                "adversary_params only combines with a string adversary "
                "spelling; bake parameters into the AdversarySpec instead"
            )
        return adversary
    return spec_from_cli(
        str(adversary), parse_adversary_params(list(adversary_params or []))
    )


def run(
    algorithm: object,
    topology: Union[Topology, str],
    *,
    seed: int = 0,
    adversary: Optional[object] = None,
    adversary_params: Optional[Sequence[str]] = None,
    backend: str = "auto",
) -> LeaderElectionResult:
    """Run one election and return its result.

    ``algorithm`` is a protocol spec — a ``"name[:k=v,...]"`` string or a
    :class:`~repro.protocols.spec.ProtocolSpec` — resolved through the
    protocol registry.  ``topology`` is a
    :class:`~repro.graphs.topology.Topology` or a ``"family:arg[:arg]"``
    generator string (random families use graph seed 0).  ``adversary``
    optionally runs the election under a fault model (same spellings as
    the CLI's ``--adversary``).
    """
    from .core.simulator import backend_scope
    from .protocols import ProtocolSpec, protocol_runner

    if isinstance(topology, str):
        from .cli import parse_topology

        topology = parse_topology(topology)
    spec = (
        ProtocolSpec.parse(algorithm)
        if isinstance(algorithm, str)
        else algorithm
    )
    runner = protocol_runner(spec)
    adversary_spec = _resolve_adversary(adversary, adversary_params)
    if adversary_spec is not None:
        from .dynamics.runners import AdversarialRunner

        runner = AdversarialRunner(runner, adversary_spec)
    with backend_scope(backend):
        return runner(topology, seed)


def sweep(
    specs: Sequence[ExperimentSpec],
    *,
    config: Optional[SweepConfig] = None,
    sinks: Sequence[ResultSink] = (),
) -> List[ExperimentResult]:
    """Run an experiment grid through the parallel engine.

    Results are bit-identical for any ``config`` worker count, batch
    size, backend or shard layout — the configuration decides *how*
    the grid executes, never *what* it measures.
    """
    from .parallel.runner import run_experiments

    return run_experiments(specs, config=config, sinks=sinks)


def query(
    specs: Sequence[ExperimentSpec],
    *,
    archive: Union[str, Path, "object"],
    config: Optional[SweepConfig] = None,
    sinks: Sequence[ResultSink] = (),
):
    """Answer an experiment grid from ``archive``, simulating only misses.

    Returns a :class:`~repro.archive.query.QueryResult`: the folded
    results (bit-identical to a from-scratch :func:`sweep`, wall-clock
    aside) plus the cache accounting — asking for the same grid twice
    reports ``simulated_runs == 0`` the second time.
    """
    from .archive.query import query_experiments

    return query_experiments(specs, archive=archive, config=config, sinks=sinks)


def serve(
    *,
    archive: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 8765,
    config: Optional[SweepConfig] = None,
    block: bool = True,
):
    """Serve ``archive`` over HTTP (``/health``, ``/stats``, ``/query``).

    With ``block=True`` (the default) this runs the server loop until
    interrupted.  With ``block=False`` it returns the prepared
    :class:`http.server.ThreadingHTTPServer` — callers (tests, embedders)
    drive ``serve_forever`` themselves and ``shutdown()`` when done.
    """
    from .archive.service import make_server

    server = make_server(archive=archive, host=host, port=port, config=config)
    if block:
        try:
            server.serve_forever()
        finally:
            server.server_close()
    return server
