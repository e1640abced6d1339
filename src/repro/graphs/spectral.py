"""Spectral analysis: random-walk matrices, mixing time, spectral gap.

The paper's algorithm for known network size takes the mixing time
``t_mix`` (and the conductance ``Φ``) as inputs.  The library computes
``t_mix`` exactly — following the paper's definition in Section 2 — by
iterating the lazy random-walk transition matrix until every starting
distribution is within ``1/(2n)`` of the stationary distribution in the
maximum norm.  For the graph sizes a simulation can handle (up to a few
thousand nodes) the exact computation is cheap; a spectral-gap estimate is
also provided for cross-checking and for the analysis layer.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..core.errors import ConfigurationError
from .topology import Topology

__all__ = [
    "lazy_walk_matrix",
    "simple_walk_matrix",
    "stationary_distribution",
    "mixing_time",
    "spectral_gap",
    "relaxation_time",
    "mixing_time_spectral_bound",
    "algebraic_connectivity",
]


def simple_walk_matrix(topology: Topology) -> np.ndarray:
    """Transition matrix of the simple random walk (uniform over neighbours)."""
    n = topology.num_nodes
    matrix = np.zeros((n, n), dtype=float)
    for u in range(n):
        degree = topology.degree(u)
        if degree == 0:
            matrix[u, u] = 1.0
            continue
        for v in topology.neighbors(u):
            matrix[u, v] = 1.0 / degree
    return matrix


def lazy_walk_matrix(topology: Topology) -> np.ndarray:
    """Transition matrix of the lazy random walk used throughout the paper.

    The walk stays put with probability 1/2 and otherwise moves to a
    uniformly random neighbour — exactly the walk issued by the candidates
    in Algorithm 5.  Laziness guarantees aperiodicity, so the walk always
    converges to its stationary distribution.
    """
    n = topology.num_nodes
    return 0.5 * np.eye(n) + 0.5 * simple_walk_matrix(topology)


def stationary_distribution(topology: Topology) -> np.ndarray:
    """Stationary distribution of the (lazy) random walk: ``deg(v) / 2m``."""
    degrees = np.array(topology.degrees(), dtype=float)
    total = degrees.sum()
    if total == 0:
        raise ConfigurationError("stationary distribution undefined without edges")
    return degrees / total


def mixing_time(
    topology: Topology,
    *,
    matrix: Optional[np.ndarray] = None,
    max_steps: Optional[int] = None,
) -> int:
    """Exact mixing time per the paper's definition (Section 2).

    ``t_mix`` is the smallest ``t`` such that for *every* starting
    distribution ``π₀`` the walk's distribution after ``t`` steps is within
    ``1/(2n)`` of the stationary distribution in the maximum norm.  Because
    the worst starting distribution is a point mass, it suffices to check
    the rows of ``P^t``.

    For the default lazy walk the computation diagonalises the (symmetrised)
    transition matrix once and then binary-searches ``t`` — cheap even for
    slow-mixing graphs like large cycles.  A caller-supplied ``matrix``
    falls back to straightforward power iteration.

    A call with the default arguments is measured once per topology
    instance (:meth:`Topology.memoized`); the election drivers, the
    baselines and the expansion profile all ask for it.
    """
    if matrix is None and max_steps is None:
        return topology.memoized(
            "mixing_time", lambda: _mixing_time(topology, None, None)
        )
    return _mixing_time(topology, matrix, max_steps)


def _mixing_time(
    topology: Topology,
    matrix: Optional[np.ndarray],
    max_steps: Optional[int],
) -> int:
    n = topology.num_nodes
    if n == 1:
        return 0
    pi = stationary_distribution(topology)
    threshold = 1.0 / (2.0 * n)
    if max_steps is None:
        # t_mix <= O(n^2 log n) for lazy walks on connected graphs (the
        # cycle is essentially the worst case); a generous cap keeps the
        # search finite even for pathological inputs.
        max_steps = max(16, 64 * n * n * max(1, int(math.log2(n)) + 1))

    if matrix is not None:
        return _mixing_time_iterative(
            np.asarray(matrix, dtype=float), pi, threshold, max_steps, topology.name
        )

    degrees = np.array(topology.degrees(), dtype=float)
    d_sqrt = np.sqrt(degrees)
    P = lazy_walk_matrix(topology)
    symmetric = (P * d_sqrt[:, np.newaxis]) / d_sqrt[np.newaxis, :]
    eigenvalues, eigenvectors = np.linalg.eigh((symmetric + symmetric.T) / 2.0)
    # The lazy walk has non-negative spectrum; clip numerical noise.
    eigenvalues = np.clip(eigenvalues, 0.0, 1.0)

    def deviation(t: int) -> float:
        powered = (eigenvectors * eigenvalues ** t) @ eigenvectors.T
        walk_t = powered / d_sqrt[:, np.newaxis] * d_sqrt[np.newaxis, :]
        return float(np.abs(walk_t - pi[np.newaxis, :]).max())

    if deviation(1) <= threshold:
        return 1
    hi = 1
    while deviation(hi) > threshold:
        hi *= 2
        if hi > max_steps:
            raise ConfigurationError(
                f"mixing time exceeded the cap of {max_steps} steps for "
                f"{topology.name}; the graph may be disconnected"
            )
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if deviation(mid) <= threshold:
            hi = mid
        else:
            lo = mid
    return hi


def _mixing_time_iterative(
    P: np.ndarray,
    pi: np.ndarray,
    threshold: float,
    max_steps: int,
    name: str,
) -> int:
    power = np.eye(P.shape[0])
    for t in range(1, max_steps + 1):
        power = power @ P
        if np.abs(power - pi[np.newaxis, :]).max() <= threshold:
            return t
    raise ConfigurationError(
        f"mixing time exceeded the cap of {max_steps} steps for {name}; "
        f"the graph may be disconnected"
    )


def spectral_gap(topology: Topology, *, matrix: Optional[np.ndarray] = None) -> float:
    """Spectral gap ``1 - λ₂`` of the lazy random walk.

    The lazy walk's transition matrix is similar to a symmetric matrix, so
    its eigenvalues are real; laziness makes them non-negative, hence the
    second-largest eigenvalue governs convergence.
    """
    P = lazy_walk_matrix(topology) if matrix is None else np.asarray(matrix, dtype=float)
    degrees = np.array(topology.degrees(), dtype=float)
    if np.any(degrees == 0):
        raise ConfigurationError("spectral gap undefined with isolated nodes")
    # Symmetrise: D^{1/2} P D^{-1/2} has the same spectrum as P.
    d_sqrt = np.sqrt(degrees)
    symmetric = (P * d_sqrt[:, np.newaxis]) / d_sqrt[np.newaxis, :]
    eigenvalues = np.linalg.eigvalsh((symmetric + symmetric.T) / 2.0)
    eigenvalues = np.sort(eigenvalues)[::-1]
    lambda2 = float(eigenvalues[1]) if len(eigenvalues) > 1 else 0.0
    return max(0.0, 1.0 - lambda2)


def relaxation_time(topology: Topology) -> float:
    """Relaxation time ``1 / (1 - λ₂)`` of the lazy walk."""
    gap = spectral_gap(topology)
    if gap <= 0:
        raise ConfigurationError(f"non-positive spectral gap for {topology.name}")
    return 1.0 / gap


def algebraic_connectivity(topology: Topology) -> float:
    """Second-smallest eigenvalue of the (unnormalised) graph Laplacian.

    This is the quantity that governs the convergence rate of the uniform
    potential-diffusion process of Section 5.2: with per-neighbour share
    ``s`` the diffusion matrix is ``I - s·L`` and its spectral gap is
    ``s·λ₂(L)``.  The scaled parameter schedule for the revocable election
    uses it to size the diffusion phase without the enormous worst-case
    constants of the paper schedule.
    """
    n = topology.num_nodes
    if n < 2:
        raise ConfigurationError("algebraic connectivity undefined for a single node")
    laplacian = np.zeros((n, n))
    for u, v in topology.edges():
        laplacian[u, u] += 1.0
        laplacian[v, v] += 1.0
        laplacian[u, v] -= 1.0
        laplacian[v, u] -= 1.0
    eigenvalues = np.sort(np.linalg.eigvalsh(laplacian))
    return float(max(0.0, eigenvalues[1]))


def mixing_time_spectral_bound(topology: Topology) -> float:
    """Standard upper bound ``t_mix <= t_rel * ln(2n / π_min)``.

    Cheap to compute and useful as a sanity check against the exact value
    (``mixing_time``) in tests and in the analysis layer.
    """
    n = topology.num_nodes
    if n == 1:
        return 0.0
    pi = stationary_distribution(topology)
    t_rel = relaxation_time(topology)
    return t_rel * math.log(2.0 * n / float(pi.min()))
