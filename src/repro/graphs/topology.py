"""Port-numbered anonymous network topologies.

The paper's model (Section 2) is a connected undirected graph whose nodes
have no identifiers but do have a local labelling of their incident links —
*port numbers* ``1..deg(v)``.  :class:`Topology` captures exactly that: it
stores, for every node, the mapping from local port numbers to (neighbour,
neighbour's port), and nothing that a protocol could use to break anonymity.

Node indices ``0..n-1`` exist only for the simulator's bookkeeping and for
analysis; protocol code never sees them.

Port assignment order is part of the model (the impossibility proof in
Section 5.1 quantifies over port mappings), so the constructor supports both
a deterministic canonical assignment (ports ordered by neighbour index) and
a randomized assignment driven by a seed.
"""

from __future__ import annotations

import random
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TYPE_CHECKING,
    Tuple,
    TypeVar,
)

from ..core.errors import TopologyError
from ..core.rng import derive_seed

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Topology"]

Edge = Tuple[int, int]

T = TypeVar("T")


class Topology:
    """A connected, undirected, port-numbered graph.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``; nodes are indexed ``0..n-1``.
    edges:
        Iterable of undirected edges ``(u, v)`` with ``u != v``.  Parallel
        edges and self-loops are rejected.
    name:
        Optional human-readable name (used in reports and benchmarks).
    port_seed:
        If ``None``, ports are assigned canonically (sorted by neighbour
        index).  Otherwise each node's ports are a random permutation of
        its incident edges, derived from this seed.
    require_connected:
        The paper assumes connectivity; set to ``False`` only for tests
        that specifically exercise the validation.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[Edge],
        *,
        name: str = "topology",
        port_seed: Optional[int] = None,
        require_connected: bool = True,
    ) -> None:
        if num_nodes <= 0:
            raise TopologyError(f"num_nodes must be positive, got {num_nodes}")
        self._n = int(num_nodes)
        self._name = name
        self._memo: Dict[str, object] = {}

        seen = set()
        edge_list: List[Edge] = []
        for u, v in edges:
            if not (0 <= u < self._n and 0 <= v < self._n):
                raise TopologyError(f"edge ({u}, {v}) out of range for n={self._n}")
            if u == v:
                raise TopologyError(f"self-loop on node {u} is not allowed")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise TopologyError(f"parallel edge ({u}, {v})")
            seen.add(key)
            edge_list.append(key)

        self._edges: Tuple[Edge, ...] = tuple(sorted(edge_list))
        self._adjacency = self._adjacency_from_edges(self._n, self._edges)

        if require_connected and not self._is_connected():
            raise TopologyError(
                f"topology '{name}' with {self._n} nodes and "
                f"{len(self._edges)} edges is not connected"
            )

        self._build_ports(port_seed)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _is_connected(self) -> bool:
        if self._n == 1:
            return True
        visited = [False] * self._n
        stack = [0]
        visited[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v in self._adjacency[u]:
                if not visited[v]:
                    visited[v] = True
                    count += 1
                    stack.append(v)
        return count == self._n

    @staticmethod
    def _adjacency_from_edges(
        num_nodes: int, edges: Iterable[Edge]
    ) -> Tuple[Tuple[int, ...], ...]:
        adjacency: List[List[int]] = [[] for _ in range(num_nodes)]
        for u, v in edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        return tuple(tuple(sorted(neighbors)) for neighbors in adjacency)

    def _build_ports(self, port_seed: Optional[int]) -> None:
        # port_order[u] is the list of neighbours of u in port order:
        # port p of u leads to port_order[u][p - 1].
        if port_seed is None:
            port_order = [list(neighbors) for neighbors in self._adjacency]
        else:
            rng = random.Random(port_seed)
            port_order = []
            for neighbors in self._adjacency:
                order = list(neighbors)
                rng.shuffle(order)
                port_order.append(order)
        self._finalize_ports(port_order)

    def _finalize_ports(self, port_order: Iterable[Iterable[int]]) -> None:
        """Fix the port assignment and derive the lookup tables from it."""
        self._port_order: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(order) for order in port_order
        )
        # reverse map: port_of[u][v] -> port number at u leading to v
        self._port_of: Tuple[Dict[int, int], ...] = tuple(
            {v: p + 1 for p, v in enumerate(order)} for order in self._port_order
        )
        # flat endpoint table: endpoint_table()[u][p - 1] == endpoint(u, p).
        # Precomputed once so the simulator's delivery loop is a pair of
        # list indexings instead of a method call with validation.
        self._endpoint_table: Tuple[Tuple[Tuple[int, int], ...], ...] = tuple(
            tuple((v, self._port_of[v][u]) for v in order)
            for u, order in enumerate(self._port_order)
        )

    @classmethod
    def from_networkx(
        cls,
        graph: "nx.Graph",
        *,
        name: Optional[str] = None,
        port_seed: Optional[int] = None,
    ) -> "Topology":
        """Build a topology from a :class:`networkx.Graph`.

        Any object with networkx's ``nodes()`` and ``edges()`` (and,
        optionally, ``name``) will do; this method imports nothing.  Node
        labels may be arbitrary hashables; they are relabelled to
        ``0..n-1`` in insertion order.
        """
        nodes = list(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in graph.edges()]
        return cls(
            len(nodes),
            edges,
            name=name or getattr(graph, "name", None) or "from_networkx",
            port_seed=port_seed,
        )

    def with_port_seed(self, port_seed: Optional[int]) -> "Topology":
        """Return a copy of this topology with re-randomised port numbers."""
        return Topology(
            self._n,
            self._edges,
            name=self._name,
            port_seed=port_seed,
        )

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self._name

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def degree(self, node: int) -> int:
        self._check_node(node)
        return len(self._adjacency[node])

    def degrees(self) -> List[int]:
        return [len(neighbors) for neighbors in self._adjacency]

    def max_degree(self) -> int:
        return max(self.degrees()) if self._n else 0

    def min_degree(self) -> int:
        return min(self.degrees()) if self._n else 0

    def volume(self, nodes: Optional[Iterable[int]] = None) -> int:
        """Sum of degrees over ``nodes`` (all nodes if ``None``)."""
        if nodes is None:
            return 2 * self.num_edges
        return sum(self.degree(u) for u in nodes)

    def neighbors(self, node: int) -> Tuple[int, ...]:
        self._check_node(node)
        return self._adjacency[node]

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return v in self._port_of[u]

    # ------------------------------------------------------------------ #
    # port-numbered view (what the simulator uses)
    # ------------------------------------------------------------------ #
    def endpoint(self, node: int, port: int) -> Tuple[int, int]:
        """Return ``(neighbour, neighbour_port)`` reached through ``port``."""
        self._check_node(node)
        if not (1 <= port <= self.degree(node)):
            raise TopologyError(
                f"node {node} has ports 1..{self.degree(node)}, got {port}"
            )
        return self._endpoint_table[node][port - 1]

    def endpoint_table(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """The full port map: ``table[u][p - 1] == endpoint(u, p)``.

        The table is precomputed at construction; hot loops (the simulator's
        delivery phase) index it directly instead of calling
        :meth:`endpoint` per message.
        """
        return self._endpoint_table

    def fingerprint(self) -> str:
        """A short, process-stable digest of the exact graph structure.

        Display names omit construction details (two
        ``random_regular(n=64,d=4)`` instances built from different graph
        seeds share a name), so anything that must identify a topology
        *instance* — parallel-sweep checkpoint keys and derived seeds —
        hashes the node count, edge list and port assignment instead.
        Built on :func:`repro.core.rng.derive_seed`: no salted string
        hashing, so the digest is stable across processes, multiprocessing
        start methods and Python invocations.  Computed lazily and cached.
        """
        return self.memoized("fingerprint", self._compute_fingerprint)

    def _compute_fingerprint(self) -> str:
        digest = derive_seed(
            0,
            "topology-fingerprint",
            self._n,
            self._edges,
            self._port_order,
        )
        return f"{digest:016x}"

    def memoized(self, key: str, compute: Callable[[], T]) -> T:
        """``compute()``, evaluated once per instance and cached under ``key``.

        The one cache of what is measured on the (immutable) graph: the
        fingerprint, the diameter, and the default-argument
        ``mixing_time``, ``conductance`` and ``expansion_profile``.  It is
        keyed by instance, so two graphs that share a display name never
        share a measurement, and it is pickled with the topology (see
        :meth:`__getstate__`).  Two threads that miss at once may both
        compute; the first value stored is the one both return.
        """
        memo = self._memo
        if key in memo:
            return memo[key]  # type: ignore[return-value]
        return memo.setdefault(key, compute())  # type: ignore[return-value]

    def neighbor_via(self, node: int, port: int) -> int:
        """Return only the neighbour reached through ``port``."""
        return self.endpoint(node, port)[0]

    def port_to(self, node: int, neighbor: int) -> int:
        """Return the port of ``node`` that leads to ``neighbor``."""
        self._check_node(node)
        self._check_node(neighbor)
        try:
            return self._port_of[node][neighbor]
        except KeyError:
            raise TopologyError(f"nodes {node} and {neighbor} are not adjacent") from None

    def port_order(self, node: int) -> Tuple[int, ...]:
        """Neighbours of ``node`` in port order (index 0 is port 1)."""
        self._check_node(node)
        return self._port_order[node]

    # ------------------------------------------------------------------ #
    # conversions / analysis helpers
    # ------------------------------------------------------------------ #
    def to_networkx(self) -> "nx.Graph":
        import networkx as nx

        graph = nx.Graph(name=self._name)
        graph.add_nodes_from(range(self._n))
        graph.add_edges_from(self._edges)
        return graph

    def edge_boundary(self, subset: Iterable[int]) -> int:
        """Number of edges with exactly one endpoint in ``subset`` (``|∂S|``)."""
        inside = set(subset)
        # repro: disable=REP103 — validation only: each element is checked
        # independently and the loop has no ordered effect
        for u in inside:
            self._check_node(u)
        count = 0
        for u, v in self._edges:
            if (u in inside) != (v in inside):
                count += 1
        return count

    def bfs_distances(self, source: int) -> List[int]:
        """Hop distances from ``source`` to every node (-1 if unreachable)."""
        self._check_node(source)
        dist = [-1] * self._n
        dist[source] = 0
        queue = [source]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in self._adjacency[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def diameter(self) -> int:
        """Exact diameter via BFS from every node (fine for simulated sizes).

        Measured once per instance (see :meth:`memoized`).
        """
        return self.memoized("diameter", self._measure_diameter)

    def _measure_diameter(self) -> int:
        best = 0
        for source in range(self._n):
            dist = self.bfs_distances(source)
            farthest = max(dist)
            if farthest < 0:
                raise TopologyError("diameter undefined for a disconnected topology")
            best = max(best, farthest)
        return best

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self._n):
            raise TopologyError(f"node index {node} out of range for n={self._n}")

    # ------------------------------------------------------------------ #
    # pickling
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Dict[str, object]:
        # The defining data (nodes, edges, port assignment) travels with
        # the memo, so a topology measured in the parent reaches a pool
        # worker already measured; the derived tables (_adjacency,
        # _port_of, _endpoint_table) are rebuilt on load.  This keeps the
        # per-task payload small when the parallel engine ships one
        # topology per (topology, seed) run.
        return {
            "n": self._n,
            "name": self._name,
            "edges": self._edges,
            "port_order": self._port_order,
            "memo": dict(self._memo),
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._n = state["n"]
        self._name = state["name"]
        self._memo = state["memo"]
        self._edges = state["edges"]
        self._adjacency = self._adjacency_from_edges(self._n, self._edges)
        self._finalize_ports(state["port_order"])

    # ------------------------------------------------------------------ #
    # dunder conveniences
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology(name={self._name!r}, n={self._n}, m={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self._n == other._n
            and self._edges == other._edges
            and self._port_order == other._port_order
        )

    def __hash__(self) -> int:
        return hash((self._n, self._edges))
