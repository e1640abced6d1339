"""Picklable ``(topology, seed)`` runners bound to a protocol spec.

The experiment layer drives algorithms through ``runner(topology, seed)``
callables.  :class:`ProtocolRunner` adapts a
:class:`~repro.protocols.spec.ProtocolSpec` to that shape: a frozen
dataclass of one spec, so parameterised protocol variants flow through the
parallel engine's worker pool unchanged (mirroring
:class:`~repro.dynamics.runners.AdversarialRunner` on the fault side).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..election.base import LeaderElectionResult
from ..graphs.topology import Topology
from .registry import ProtocolDefinition
from .spec import ProtocolSpec

__all__ = ["ProtocolRunner", "protocol_runner"]


@dataclass(frozen=True)
class ProtocolRunner:
    """``spec``'s protocol, invoked as a plain ``(topology, seed)`` runner.

    The registry entry is captured at *construction* time (in the parent
    process, where the protocol is registered) and travels inside the
    pickle — the factory is a module-level callable, pickled by reference.
    Resolving by name at call time instead would strand custom
    ``register_protocol`` entries on ``spawn``-start workers, whose fresh
    interpreters never ran the parent's registration.
    """

    spec: ProtocolSpec
    definition: Optional[ProtocolDefinition] = None
    #: The ``parameters["protocol"]`` value recorded on every run; nothing
    #: is recorded when empty (see
    #: :meth:`~repro.analysis.experiments.ExperimentSpec.protocol_token`).
    stamp: str = ""

    def __post_init__(self) -> None:
        if self.definition is None:
            object.__setattr__(self, "definition", self.spec.definition())
        # Validate once here, not per run: the mapping is invariant for a
        # frozen spec, and this keeps the safety net for raw-constructed
        # (non-create/parse) specs out of the per-run hot path.
        object.__setattr__(
            self,
            "_validated",
            self.definition.schema.validate(self.spec.name, dict(self.spec.params)),
        )

    def __call__(self, topology: Topology, seed: int) -> LeaderElectionResult:
        result = self.definition.factory(topology, seed, **self._validated)
        # Record the configuration on the run itself, so checkpoint records
        # and JSONL exports always say which constants produced a number.
        if self.stamp:
            result.parameters = {**result.parameters, "protocol": self.stamp}
        return result


def protocol_runner(spec: Union[ProtocolSpec, str]) -> ProtocolRunner:
    """Build a runner from a spec (or its string spelling, validated here)."""
    if isinstance(spec, str):
        spec = ProtocolSpec.parse(spec)
    return ProtocolRunner(spec, stamp=spec.token())
