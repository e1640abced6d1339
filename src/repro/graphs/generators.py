"""Topology generators.

The complexity bounds in the paper are parameterised by the network's
conductance ``Φ``, isoperimetric number ``i(G)`` and mixing time ``t_mix``.
To sweep those regimes the benchmarks need graph families at both extremes
and in between:

* well connected / fast mixing: complete graphs, hypercubes, random regular
  graphs ("expanders"), Erdős–Rényi above the connectivity threshold;
* poorly connected / slow mixing: cycles, paths, barbells, lollipops,
  dumbbells (two cliques joined by a long path);
* intermediate: 2-D grids and tori, balanced binary trees, stars.

Every generator returns a :class:`~repro.graphs.topology.Topology` whose
name records the family and parameters, which the reporting layer uses as
row labels.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import List, Optional, Tuple

from ..core.errors import TopologyError
from .topology import Topology

__all__ = [
    "cycle",
    "path",
    "complete",
    "star",
    "grid_2d",
    "torus_2d",
    "hypercube",
    "binary_tree",
    "random_regular",
    "erdos_renyi",
    "barbell",
    "lollipop",
    "dumbbell",
    "two_cliques_bridge",
    "by_name",
    "GENERATORS",
]

Edge = Tuple[int, int]


def cycle(n: int, *, port_seed: Optional[int] = None) -> Topology:
    """The cycle ``C_n`` — the slow-mixing workhorse of Section 5.1."""
    if n < 3:
        raise TopologyError(f"a cycle needs at least 3 nodes, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Topology(n, edges, name=f"cycle(n={n})", port_seed=port_seed)


def path(n: int, *, port_seed: Optional[int] = None) -> Topology:
    """The path ``P_n``."""
    if n < 2:
        raise TopologyError(f"a path needs at least 2 nodes, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)]
    return Topology(n, edges, name=f"path(n={n})", port_seed=port_seed)


def complete(n: int, *, port_seed: Optional[int] = None) -> Topology:
    """The complete graph ``K_n`` — conductance Θ(1), mixing time O(1)."""
    if n < 2:
        raise TopologyError(f"a complete graph needs at least 2 nodes, got {n}")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Topology(n, edges, name=f"complete(n={n})", port_seed=port_seed)


def star(n: int, *, port_seed: Optional[int] = None) -> Topology:
    """A star with one hub and ``n - 1`` leaves."""
    if n < 2:
        raise TopologyError(f"a star needs at least 2 nodes, got {n}")
    edges = [(0, i) for i in range(1, n)]
    return Topology(n, edges, name=f"star(n={n})", port_seed=port_seed)


def grid_2d(rows: int, cols: int, *, port_seed: Optional[int] = None) -> Topology:
    """A ``rows x cols`` 2-D grid (no wraparound)."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise TopologyError(f"grid needs at least 2 nodes, got {rows}x{cols}")
    def index(r: int, c: int) -> int:
        return r * cols + c
    edges: List[Edge] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((index(r, c), index(r, c + 1)))
            if r + 1 < rows:
                edges.append((index(r, c), index(r + 1, c)))
    return Topology(
        rows * cols, edges, name=f"grid({rows}x{cols})", port_seed=port_seed
    )


def torus_2d(rows: int, cols: int, *, port_seed: Optional[int] = None) -> Topology:
    """A ``rows x cols`` 2-D torus (grid with wraparound)."""
    if rows < 3 or cols < 3:
        raise TopologyError(
            f"torus needs at least 3 rows and columns to avoid parallel edges, "
            f"got {rows}x{cols}"
        )
    def index(r: int, c: int) -> int:
        return r * cols + c
    edges = set()
    for r in range(rows):
        for c in range(cols):
            edges.add(tuple(sorted((index(r, c), index(r, (c + 1) % cols)))))
            edges.add(tuple(sorted((index(r, c), index((r + 1) % rows, c)))))
    return Topology(
        rows * cols, sorted(edges), name=f"torus({rows}x{cols})", port_seed=port_seed
    )


def hypercube(dimension: int, *, port_seed: Optional[int] = None) -> Topology:
    """The ``dimension``-dimensional hypercube on ``2^dimension`` nodes."""
    if dimension < 1:
        raise TopologyError(f"hypercube dimension must be >= 1, got {dimension}")
    n = 1 << dimension
    edges = []
    for u in range(n):
        for bit in range(dimension):
            v = u ^ (1 << bit)
            if u < v:
                edges.append((u, v))
    return Topology(n, edges, name=f"hypercube(d={dimension})", port_seed=port_seed)


def binary_tree(depth: int, *, port_seed: Optional[int] = None) -> Topology:
    """A complete binary tree of the given depth (root has depth 0)."""
    if depth < 1:
        raise TopologyError(f"binary tree depth must be >= 1, got {depth}")
    n = (1 << (depth + 1)) - 1
    edges = []
    for child in range(1, n):
        parent = (child - 1) // 2
        edges.append((parent, child))
    return Topology(n, edges, name=f"binary_tree(depth={depth})", port_seed=port_seed)


def random_regular(
    n: int,
    degree: int,
    *,
    seed: Optional[int] = None,
    port_seed: Optional[int] = None,
    max_attempts: int = 200,
) -> Topology:
    """A random ``degree``-regular graph on ``n`` nodes (simple, connected).

    Random regular graphs with ``degree >= 3`` are expanders with high
    probability, which makes them the standard stand-in for the
    "well-connected" graphs where the paper's Theorem 1 shines.  Uses the
    pairing model with rejection; retries until a simple connected graph is
    produced.
    """
    if degree < 2 or degree >= n:
        raise TopologyError(f"need 2 <= degree < n, got degree={degree}, n={n}")
    if (n * degree) % 2 != 0:
        raise TopologyError(f"n*degree must be even, got n={n}, degree={degree}")
    import networkx as nx

    rng = random.Random(seed)
    for attempt in range(max_attempts):
        graph = nx.random_regular_graph(degree, n, seed=rng.randrange(2 ** 31))
        if not nx.is_connected(graph):
            continue
        return Topology(
            n,
            [(int(u), int(v)) for u, v in graph.edges()],
            name=f"random_regular(n={n},d={degree})",
            port_seed=port_seed,
        )
    raise TopologyError(
        f"failed to generate a connected simple {degree}-regular graph on "
        f"{n} nodes in {max_attempts} attempts"
    )


def erdos_renyi(
    n: int,
    probability: Optional[float] = None,
    *,
    seed: Optional[int] = None,
    port_seed: Optional[int] = None,
    max_attempts: int = 200,
) -> Topology:
    """A connected Erdős–Rényi graph ``G(n, p)``.

    The default probability ``2 ln(n) / n`` is safely above the
    connectivity threshold, so rejection sampling terminates quickly.
    """
    if n < 2:
        raise TopologyError(f"need at least 2 nodes, got {n}")
    if probability is None:
        probability = min(1.0, 2.0 * math.log(max(2, n)) / n)
    if not (0.0 < probability <= 1.0):
        raise TopologyError(f"probability must be in (0, 1], got {probability}")
    rng = random.Random(seed)
    for _ in range(max_attempts):
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < probability
        ]
        try:
            return Topology(
                n,
                edges,
                name=f"erdos_renyi(n={n},p={probability:.3f})",
                port_seed=port_seed,
            )
        except TopologyError:
            continue
    raise TopologyError(
        f"failed to generate a connected G({n}, {probability}) in "
        f"{max_attempts} attempts"
    )


def barbell(clique_size: int, *, port_seed: Optional[int] = None) -> Topology:
    """Two cliques of ``clique_size`` nodes joined by a single edge.

    Conductance Θ(1/n²) — the classic bad case for diffusion and random
    walks.
    """
    if clique_size < 3:
        raise TopologyError(f"clique_size must be >= 3, got {clique_size}")
    n = 2 * clique_size
    edges = []
    for i in range(clique_size):
        for j in range(i + 1, clique_size):
            edges.append((i, j))
            edges.append((clique_size + i, clique_size + j))
    edges.append((clique_size - 1, clique_size))
    return Topology(n, edges, name=f"barbell(k={clique_size})", port_seed=port_seed)


def lollipop(clique_size: int, tail_length: int, *, port_seed: Optional[int] = None) -> Topology:
    """A clique with a path ("tail") attached to one of its nodes."""
    if clique_size < 3:
        raise TopologyError(f"clique_size must be >= 3, got {clique_size}")
    if tail_length < 1:
        raise TopologyError(f"tail_length must be >= 1, got {tail_length}")
    n = clique_size + tail_length
    edges = [
        (i, j) for i in range(clique_size) for j in range(i + 1, clique_size)
    ]
    previous = clique_size - 1
    for offset in range(tail_length):
        node = clique_size + offset
        edges.append((previous, node))
        previous = node
    return Topology(
        n,
        edges,
        name=f"lollipop(k={clique_size},tail={tail_length})",
        port_seed=port_seed,
    )


def dumbbell(clique_size: int, bridge_length: int, *, port_seed: Optional[int] = None) -> Topology:
    """Two cliques joined by a path of ``bridge_length`` intermediate nodes."""
    if clique_size < 3:
        raise TopologyError(f"clique_size must be >= 3, got {clique_size}")
    if bridge_length < 1:
        raise TopologyError(f"bridge_length must be >= 1, got {bridge_length}")
    n = 2 * clique_size + bridge_length
    edges = []
    for i in range(clique_size):
        for j in range(i + 1, clique_size):
            edges.append((i, j))
            edges.append((clique_size + bridge_length + i, clique_size + bridge_length + j))
    previous = clique_size - 1
    for offset in range(bridge_length):
        node = clique_size + offset
        edges.append((previous, node))
        previous = node
    edges.append((previous, clique_size + bridge_length))
    return Topology(
        n,
        edges,
        name=f"dumbbell(k={clique_size},bridge={bridge_length})",
        port_seed=port_seed,
    )


def two_cliques_bridge(clique_size: int, *, port_seed: Optional[int] = None) -> Topology:
    """Alias of :func:`barbell`, kept for readability in experiment specs."""
    return barbell(clique_size, port_seed=port_seed)


#: Registry used by :func:`by_name` and the workload suites.
GENERATORS = {
    "cycle": cycle,
    "path": path,
    "complete": complete,
    "star": star,
    "grid_2d": grid_2d,
    "torus_2d": torus_2d,
    "hypercube": hypercube,
    "binary_tree": binary_tree,
    "random_regular": random_regular,
    "erdos_renyi": erdos_renyi,
    "barbell": barbell,
    "lollipop": lollipop,
    "dumbbell": dumbbell,
}


def by_name(name: str, /, *args, **kwargs) -> Topology:
    """Look up a generator by name and call it with the given arguments."""
    try:
        generator = GENERATORS[name]
    except KeyError:
        raise TopologyError(
            f"unknown generator {name!r}; available: {sorted(GENERATORS)}"
        ) from None
    return generator(*args, **kwargs)
