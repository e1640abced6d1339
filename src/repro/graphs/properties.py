"""Graph-expansion properties: conductance, isoperimetric number, Cheeger bounds.

The paper's bounds are stated in terms of the graph conductance ``Φ(G)``
(Section 2), the isoperimetric number ``i(G)`` (used by Theorem 3), the
mixing time and the diameter.  Exact computation of ``Φ`` and ``i(G)``
requires minimising over all vertex subsets — exponential in ``n`` — so the
library offers

* :func:`conductance_exact` / :func:`isoperimetric_number_exact`: brute
  force over all cuts, feasible for ``n <= ~20`` (used by unit tests and by
  the tiny graphs in the revocable-election experiments);
* :func:`conductance_sweep` / :func:`isoperimetric_number_sweep`: the
  classic spectral sweep over the Fiedler-vector ordering, which returns an
  upper bound that is within the Cheeger guarantee of the optimum and is
  what the benchmarks use for larger graphs;
* :func:`conductance` / :func:`isoperimetric_number`: dispatchers that pick
  exact or sweep based on ``n``.

Cheeger-style sanity relations (``Φ²/2 <= 1 - λ₂ <= 2Φ`` for the lazy
walk) are exposed for property-based tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Set, Tuple

import numpy as np

from ..core.errors import ConfigurationError
from .spectral import lazy_walk_matrix, mixing_time, spectral_gap
from .topology import Topology

__all__ = [
    "cut_conductance",
    "cut_expansion",
    "conductance_exact",
    "conductance_sweep",
    "conductance",
    "isoperimetric_number_exact",
    "isoperimetric_number_sweep",
    "isoperimetric_number",
    "cheeger_bounds",
    "ExpansionProfile",
    "expansion_profile",
    "EXACT_CUT_LIMIT",
]

#: Largest ``n`` for which the dispatchers use exact (exponential) cut search.
EXACT_CUT_LIMIT = 18


def cut_conductance(topology: Topology, subset: Iterable[int]) -> float:
    """Conductance of a single cut ``(S, V \\ S)``.

    ``|∂S| / min(vol(S), vol(V \\ S))`` per the paper's definition.
    """
    inside = set(subset)
    if not inside or len(inside) >= topology.num_nodes:
        raise ConfigurationError("cut must be a proper non-empty subset")
    boundary = topology.edge_boundary(inside)
    vol_inside = topology.volume(inside)
    vol_outside = topology.volume() - vol_inside
    denominator = min(vol_inside, vol_outside)
    if denominator == 0:
        return math.inf
    return boundary / denominator


def cut_expansion(topology: Topology, subset: Iterable[int]) -> float:
    """Edge expansion of a single cut: ``|∂S| / |S|`` with ``|S| <= n/2``."""
    inside = set(subset)
    if not inside or len(inside) >= topology.num_nodes:
        raise ConfigurationError("cut must be a proper non-empty subset")
    if len(inside) > topology.num_nodes // 2:
        inside = set(range(topology.num_nodes)) - inside
    return topology.edge_boundary(inside) / len(inside)


def _proper_subsets(n: int) -> Iterable[Tuple[int, ...]]:
    """All subsets S with 1 <= |S| <= n // 2 (fixing node 0's side halves work)."""
    nodes = list(range(n))
    for size in range(1, n // 2 + 1):
        for subset in itertools.combinations(nodes, size):
            yield subset


def conductance_exact(topology: Topology) -> float:
    """Exact conductance by brute force (exponential; small graphs only)."""
    n = topology.num_nodes
    if n < 2:
        raise ConfigurationError("conductance undefined for a single node")
    best = math.inf
    for subset in _proper_subsets(n):
        best = min(best, cut_conductance(topology, subset))
    return best


def isoperimetric_number_exact(topology: Topology) -> float:
    """Exact isoperimetric number by brute force (small graphs only)."""
    n = topology.num_nodes
    if n < 2:
        raise ConfigurationError("isoperimetric number undefined for a single node")
    best = math.inf
    for subset in _proper_subsets(n):
        best = min(best, cut_expansion(topology, subset))
    return best


def _fiedler_order(topology: Topology) -> np.ndarray:
    """Node ordering by the Fiedler vector of the normalised Laplacian."""
    n = topology.num_nodes
    degrees = np.array(topology.degrees(), dtype=float)
    if np.any(degrees == 0):
        raise ConfigurationError("expansion undefined with isolated nodes")
    adjacency = np.zeros((n, n))
    for u, v in topology.edges():
        adjacency[u, v] = 1.0
        adjacency[v, u] = 1.0
    d_inv_sqrt = 1.0 / np.sqrt(degrees)
    normalized = np.eye(n) - (adjacency * d_inv_sqrt[:, np.newaxis]) * d_inv_sqrt[np.newaxis, :]
    eigenvalues, eigenvectors = np.linalg.eigh((normalized + normalized.T) / 2.0)
    fiedler = eigenvectors[:, 1] * d_inv_sqrt
    return np.argsort(fiedler)


def conductance_sweep(topology: Topology) -> float:
    """Sweep-cut upper bound on conductance along the Fiedler ordering."""
    n = topology.num_nodes
    if n < 2:
        raise ConfigurationError("conductance undefined for a single node")
    order = _fiedler_order(topology)
    best = math.inf
    prefix: Set[int] = set()
    for i in range(n - 1):
        prefix.add(int(order[i]))
        best = min(best, cut_conductance(topology, prefix))
    return best


def isoperimetric_number_sweep(topology: Topology) -> float:
    """Sweep-cut upper bound on the isoperimetric number."""
    n = topology.num_nodes
    if n < 2:
        raise ConfigurationError("isoperimetric number undefined for a single node")
    order = _fiedler_order(topology)
    best = math.inf
    prefix: Set[int] = set()
    for i in range(n - 1):
        prefix.add(int(order[i]))
        best = min(best, cut_expansion(topology, prefix))
    return best


def conductance(topology: Topology, *, exact: Optional[bool] = None) -> float:
    """Graph conductance ``Φ(G)``; exact for small graphs, sweep otherwise.

    A call with the default ``exact=None`` is measured once per topology
    instance (:meth:`Topology.memoized`).
    """
    if exact is None:
        exact = topology.num_nodes <= EXACT_CUT_LIMIT
        return topology.memoized(
            "conductance", lambda: conductance(topology, exact=exact)
        )
    return conductance_exact(topology) if exact else conductance_sweep(topology)


def isoperimetric_number(topology: Topology, *, exact: Optional[bool] = None) -> float:
    """Isoperimetric number ``i(G)``; exact for small graphs, sweep otherwise."""
    if exact is None:
        exact = topology.num_nodes <= EXACT_CUT_LIMIT
    return (
        isoperimetric_number_exact(topology)
        if exact
        else isoperimetric_number_sweep(topology)
    )


def cheeger_bounds(topology: Topology) -> Tuple[float, float, float]:
    """Return ``(Φ²/2, spectral gap, 2Φ)`` for the lazy walk.

    For the lazy random walk the Cheeger inequality reads
    ``Φ²/2 <= 1 - λ₂ <= 2Φ`` (the laziness halves the usual constants).
    Property-based tests assert this sandwich on generated graphs.
    """
    phi = conductance(topology)
    gap = spectral_gap(topology)
    return (phi * phi / 2.0, gap, 2.0 * phi)


@dataclass(frozen=True)
class ExpansionProfile:
    """All expansion-related quantities the benchmarks need for one graph."""

    name: str
    num_nodes: int
    num_edges: int
    diameter: int
    min_degree: int
    max_degree: int
    conductance: float
    isoperimetric_number: float
    spectral_gap: float
    mixing_time: int

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "diameter": self.diameter,
            "min_degree": self.min_degree,
            "max_degree": self.max_degree,
            "conductance": self.conductance,
            "isoperimetric_number": self.isoperimetric_number,
            "spectral_gap": self.spectral_gap,
            "mixing_time": self.mixing_time,
        }


def expansion_profile(topology: Topology, *, exact_cuts: Optional[bool] = None) -> ExpansionProfile:
    """Compute the full expansion profile of ``topology``.

    This is what the experiment runner attaches to every measured data
    point, so that results can be grouped and fitted against Φ, i(G) and
    ``t_mix``.  A call with the default ``exact_cuts=None`` is measured
    once per topology instance (:meth:`Topology.memoized`) and shares its
    ``t_mix`` and Φ with the election drivers and :func:`cheeger_bounds`.
    """
    if exact_cuts is None:
        return topology.memoized(
            "expansion_profile", lambda: _expansion_profile(topology, None)
        )
    return _expansion_profile(topology, exact_cuts)


def _expansion_profile(topology: Topology, exact_cuts: Optional[bool]) -> ExpansionProfile:
    return ExpansionProfile(
        name=topology.name,
        num_nodes=topology.num_nodes,
        num_edges=topology.num_edges,
        diameter=topology.diameter(),
        min_degree=topology.min_degree(),
        max_degree=topology.max_degree(),
        conductance=conductance(topology, exact=exact_cuts),
        isoperimetric_number=isoperimetric_number(topology, exact=exact_cuts),
        spectral_gap=spectral_gap(topology),
        mixing_time=mixing_time(topology),
    )
