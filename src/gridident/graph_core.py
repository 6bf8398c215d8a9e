"""Graph primitives for admittance networks.

Canonical edge lists, incidence matrices, rigidity matrices for measurement
frameworks, and the rank arithmetic that decides whether a measurement set can
identify a network uniquely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


Edge = tuple[int, int]


@dataclass(frozen=True)
class NetworkGraph:
    """Undirected graph on nodes 1..n with a canonically ordered edge list.

    Edges are pairs (i, j) with i < j, kept in strictly increasing
    lexicographic order. That order fixes the column order of incidence
    matrices and the entry order of admittance vectors package-wide.
    """

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be >= 1, got {self.n}")
        prev = None
        for edge in self.edges:
            i, j = edge
            if not (1 <= i < j <= self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            if prev is not None and edge <= prev:
                raise ValueError(f"edge list not in canonical order near ({i}, {j})")
            prev = edge

    @property
    def e(self) -> int:
        return len(self.edges)

    @classmethod
    def from_edges(cls, n: int, edges) -> "NetworkGraph":
        """Build a graph from edges in any order; rejects self-loops and duplicates."""
        seen = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            pair = (i, j) if i < j else (j, i)
            if pair in seen:
                raise ValueError(f"duplicate edge ({pair[0]}, {pair[1]})")
            seen.add(pair)
        return cls(n, tuple(sorted(seen)))

    def edge_index(self) -> dict[Edge, int]:
        """Map each canonical edge to its position in the edge list."""
        return {edge: pos for pos, edge in enumerate(self.edges)}

    def has_edge(self, i: int, j: int) -> bool:
        pair = (i, j) if i < j else (j, i)
        return pair in self.edges


def complete_graph(n: int) -> NetworkGraph:
    """All n(n-1)/2 node pairs in canonical order."""
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    edges = tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1))
    return NetworkGraph(n, edges)


def remove_edge(g: NetworkGraph, edge: Edge) -> NetworkGraph:
    """Return g without one edge, preserving canonical order."""
    i, j = edge
    pair = (i, j) if i < j else (j, i)
    if pair not in g.edges:
        raise KeyError(f"edge ({pair[0]}, {pair[1]}) not in graph")
    return NetworkGraph(g.n, tuple(e for e in g.edges if e != pair))


def is_connected(g: NetworkGraph) -> bool:
    adjacency = {v: [] for v in range(1, g.n + 1)}
    for i, j in g.edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    seen = {1}
    stack = [1]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def is_tree(g: NetworkGraph) -> bool:
    return g.e == g.n - 1 and is_connected(g)


def random_tree(n: int, rng: np.random.Generator) -> NetworkGraph:
    """Uniform-ish random tree: each node v > 1 attaches to a random earlier node."""
    edges = [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]
    return NetworkGraph.from_edges(n, edges)


def random_connected_graph(n: int, rng: np.random.Generator,
                           extra_edge_prob: float = 0.3) -> NetworkGraph:
    """Random spanning tree plus each remaining pair independently with given probability."""
    tree = set(random_tree(n, rng).edges)
    edges = list(tree)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            if (i, j) not in tree and rng.random() < extra_edge_prob:
                edges.append((i, j))
    return NetworkGraph.from_edges(n, edges)


def incidence_matrix(g: NetworkGraph) -> np.ndarray:
    """Node-by-edge incidence matrix, +1 at the smaller node index of each edge.

    Every column has exactly one +1 and one -1, so column sums are zero. Any
    consistent orientation works downstream because the matrix always appears
    in sign-cancelling pairs.
    """
    h = np.zeros((g.n, g.e))
    for pos, (i, j) in enumerate(g.edges):
        h[i - 1, pos] = 1.0
        h[j - 1, pos] = -1.0
    return h


@dataclass(frozen=True, eq=False)
class Framework:
    """A graph together with a realization: one tau-dimensional vector per node.

    The realization may be real or complex; rows are node-ordered.
    """

    graph: NetworkGraph
    realization: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.realization))
        if x.shape[0] != self.graph.n:
            raise ValueError(
                f"realization has {x.shape[0]} rows for a {self.graph.n}-node graph")
        object.__setattr__(self, "realization", x)

    @property
    def tau(self) -> int:
        return self.realization.shape[1]


def rigidity_matrix(fw: Framework) -> np.ndarray:
    """Edge-by-coordinate matrix of realization differences.

    Row for edge (i, j) holds x_i - x_j in node i's column block and the
    negation in node j's block; node i occupies columns (i-1)*tau .. i*tau-1.
    """
    g, x = fw.graph, fw.realization
    tau = fw.tau
    r = np.zeros((g.e, g.n * tau), dtype=x.dtype)
    for pos, (i, j) in enumerate(g.edges):
        diff = x[i - 1] - x[j - 1]
        r[pos, (i - 1) * tau:i * tau] = diff
        r[pos, (j - 1) * tau:j * tau] = -diff
    return r


def numerical_rank(m: np.ndarray) -> int:
    """Count of singular values above max(rows, cols) * machine epsilon * sigma_max.

    numpy's matrix_rank default, the standard robust choice for deciding
    integer rank from floating-point data; an empty matrix has no rank.
    """
    m = np.asarray(m)
    if m.size == 0:
        raise ValueError("matrix is empty")
    return int(np.linalg.matrix_rank(m))


def stack_to_rigidity_permutation(n: int, tau: int) -> np.ndarray:
    """Column permutation aligning the transposed stacked coefficient matrix with the rigidity matrix.

    The stacked coefficient matrix orders coordinates measurement-major
    (position (k-1)*n + i for node i at measurement k) while the rigidity
    matrix orders them node-major (position (i-1)*tau + k). Returns `perm`
    such that, for a framework whose realization equals the voltage matrix,
    ``a_stacked.T[:, perm]`` equals the rigidity matrix entry for entry.
    """
    if n < 1 or tau < 1:
        raise ValueError("n and tau must be >= 1")
    # source[k, i] = (k-1)*n + i in zero-based form; destination runs node-major
    source = np.arange(n * tau).reshape(tau, n)
    return source.T.ravel()
