"""The supported library surface: ``run``, ``sweep``, ``query``, ``serve``.

Everything the CLI can do, a program can do through this module — and
through *only* this module, so the two can't drift.  The facade wraps
four verbs around the engine:

* :func:`run` — one election: a protocol on a topology under a seed
  (optionally under a fault adversary).
* :func:`sweep` — an experiment grid through the parallel engine,
  configured by one :class:`SweepConfig` instead of the ~15 loose
  keyword arguments :func:`repro.parallel.runner.run_experiments` grew.
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

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .analysis.experiments import ExperimentResult, ExperimentSpec
from .analysis.streaming import ResultSink
from .core.errors import ConfigurationError
from .election.base import LeaderElectionResult
from .graphs.topology import Topology
from .obs import TelemetrySink

__all__ = [
    "SweepConfig",
    "plan_sweep",
    "run",
    "sweep",
    "query",
    "serve",
]


@dataclass(frozen=True)
class SweepConfig:
    """Execution configuration of a sweep or query, as one value.

    Every knob :func:`repro.parallel.runner.run_experiments` accepts,
    grouped and validated once — build it at the edge (CLI parsing, HTTP
    parameters, test setup) and hand the same value to :func:`sweep` and
    :func:`query` calls instead of threading loose keywords through every
    layer.  The defaults are the engine's: one worker, the ``auto``
    simulator backend, JSONL checkpoints.
    """

    #: worker processes (1 = in-process serial execution)
    workers: int = 1
    #: simulator core: "auto", "round" or "event"
    backend: str = "auto"
    #: multiprocessing start method (platform default when ``None``)
    start_method: Optional[str] = None
    #: checkpoint file for resume; required by ``shard``
    checkpoint: Optional[Union[str, Path]] = None
    checkpoint_compact: bool = False
    #: ``(i, k)`` fixed slice or ``(AUTO_SHARD, blocks)`` work stealing
    shard: Optional[Tuple[object, int]] = None
    #: derive an independent deterministic seed per cell from ``base_seed``
    derive_seeds: bool = False
    base_seed: Optional[int] = None
    task_timeout: Optional[float] = None
    max_batch: Optional[int] = None
    lease_timeout: Optional[float] = None
    #: pre-computed expansion profiles, keyed by topology name/fingerprint
    profiles: Optional[Dict[str, object]] = None
    telemetry: Optional[TelemetrySink] = None
    #: in-worker profiler name (requires ``telemetry``)
    profile: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.checkpoint_compact and self.checkpoint is None:
            raise ConfigurationError(
                "checkpoint_compact=True requires checkpoint="
            )
        if self.shard is not None and self.checkpoint is None:
            raise ConfigurationError(
                "shard= requires checkpoint= (shard results must persist "
                "so merge can fold them together)"
            )
        if self.profile is not None and self.telemetry is None:
            raise ConfigurationError(
                "profile= requires telemetry= (hotspots are reported "
                "through the telemetry summary)"
            )

    def runner_kwargs(self) -> Dict[str, object]:
        """The keyword arguments for :func:`repro.parallel.runner.run_experiments`."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def query_kwargs(self) -> Dict[str, object]:
        """The subset of knobs a memoized query accepts.

        A query runs with the archive as its checkpoint, so checkpoint/
        shard settings on the config are a caller error there — populate
        the archive with :func:`sweep` runs instead.
        """
        if self.checkpoint is not None or self.shard is not None:
            raise ConfigurationError(
                "a query ignores checkpoint=/shard= configuration: the "
                "archive is its checkpoint; run the populate sweep with "
                "those knobs instead"
            )
        kwargs = self.runner_kwargs()
        for reserved in (
            "checkpoint",
            "checkpoint_compact",
            "shard",
            "lease_timeout",
        ):
            kwargs.pop(reserved)
        return kwargs


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
    if adversary_params and adversary is None:
        raise ConfigurationError("adversary_params requires adversary")
    if seeds < 1:
        raise ConfigurationError(f"seeds must be >= 1, got {seeds}")
    if topologies is None:
        topologies = suite_by_name(suite if suite is not None else "mixed")
    elif suite is not None:
        raise ConfigurationError("pass either suite= or topologies=, not both")

    chosen = list(algorithms) if algorithms is not None else ["flooding", "gilbert"]
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
        spec_adversary = _resolve_adversary(adversary, adversary_params)
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

    config = config if config is not None else SweepConfig()
    return run_experiments(specs, sinks=sinks, **config.runner_kwargs())


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

    config = config if config is not None else SweepConfig()
    return query_experiments(
        specs, archive=archive, sinks=sinks, **config.query_kwargs()
    )


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

    server = make_server(
        archive=archive,
        host=host,
        port=port,
        config=config if config is not None else SweepConfig(),
    )
    if block:
        try:
            server.serve_forever()
        finally:
            server.server_close()
    return server
