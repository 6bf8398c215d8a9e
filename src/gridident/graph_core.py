"""Graph primitives for admittance networks.

Canonical edge lists, incidence matrices as endpoint arrays, rigidity matrices
for measurement frameworks, and the rank arithmetic that decides whether a
measurement set can identify a network uniquely.
"""

from __future__ import annotations

import functools
import itertools
import math
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

    @functools.cached_property
    def incidence(self) -> Incidence:
        """The incidence matrix as endpoint arrays, built on first use and kept.

        Edge (i, j) of the canonical list is +1 at node i and -1 at node j,
        the orientation incidence_matrix writes.
        """
        ends = np.fromiter(itertools.chain.from_iterable(self.edges), dtype=np.intp,
                           count=2 * self.e).reshape(self.e, 2) - 1
        return Incidence(self.n, ends[:, 0], ends[:, 1])


@dataclass(frozen=True, eq=False)
class Incidence:
    """A node-by-edge incidence matrix H held as the endpoints of its e columns.

    Column k is +1 at node plus[k] and -1 at node minus[k], both 0-based. Every
    product the estimators need reads only these 2e nonzeros: diff is H^T x,
    scatter is H x and laplacian is H diag(y) H^T, so the dense n-by-e matrix
    (about 4n^3 bytes under a hypothesis holding every node pair) is built only
    by matrix(), for the dense coefficient stack. Any orientation of the
    columns gives the same estimates, since H enters them in sign-cancelling
    pairs.
    """

    n: int
    plus: np.ndarray
    minus: np.ndarray

    def __post_init__(self):
        plus, minus = (np.array(a, dtype=np.intp) for a in (self.plus, self.minus))
        if plus.ndim != 1 or plus.shape != minus.shape:
            raise ValueError("endpoint arrays must be two vectors of one length")
        if plus.size and (min(plus.min(), minus.min()) < 0
                          or max(plus.max(), minus.max()) >= self.n
                          or np.any(plus == minus)):
            raise ValueError(f"endpoints must be distinct nodes in 0..{self.n - 1}")
        for name, ends in (("plus", plus), ("minus", minus)):
            ends.flags.writeable = False
            object.__setattr__(self, name, ends)

    @property
    def e(self) -> int:
        return self.plus.shape[0]

    def diff(self, x: np.ndarray) -> np.ndarray:
        """H^T x: row k is x[plus[k]] - x[minus[k]], for x with n rows."""
        x = np.asarray(x)
        return x[self.plus] - x[self.minus]

    def scatter(self, x: np.ndarray) -> np.ndarray:
        """H x: node i sums +x[k] over edges k with plus[k] = i and -x[k] where minus[k] = i.

        Each node sums its terms in edge order, as a dense product would, so
        flipping a column's orientation changes no bit of the result.
        """
        x = np.asarray(x)
        real = not np.iscomplexobj(x)
        cols = math.prod(x.shape[1:])
        # one bincount over (node, column) bins, complex entries as pairs of floats
        parts = np.ascontiguousarray(x.reshape(self.e, 1, cols), dtype=float if real else complex)
        parts = parts.view(float)
        width = parts.shape[2]
        ends = np.stack([self.plus, self.minus], axis=1)[:, :, np.newaxis]
        total = np.bincount((ends * width + np.arange(width)).ravel(),
                            np.concatenate([parts, -parts], axis=1).ravel(),
                            minlength=self.n * width)
        return (total if real else total.view(complex)).reshape((self.n,) + x.shape[1:])

    def laplacian(self, y: np.ndarray) -> np.ndarray:
        """H diag(y) H^T as a dense n-by-n array: -y_k at (plus[k], minus[k]) and its mirror.

        Each diagonal entry closes its row's sum to zero.
        """
        y = np.asarray(y)
        lap = np.zeros((self.n, self.n), dtype=np.result_type(y, float))
        lap[self.plus, self.minus] = -y
        lap[self.minus, self.plus] = -y
        np.fill_diagonal(lap, -lap.sum(axis=1))
        return lap

    def matrix(self) -> np.ndarray:
        """The dense n-by-e matrix H."""
        h = np.zeros((self.n, self.e))
        cols = np.arange(self.e)
        h[self.plus, cols] = 1.0
        h[self.minus, cols] = -1.0
        return h


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
    """Dense node-by-edge incidence matrix, +1 at the smaller node index of each edge.

    Every column has exactly one +1 and one -1, so column sums are zero. This
    is the public, dense form of g.incidence, about 4n^3 bytes under a
    hypothesis holding every node pair: the estimators read the endpoint arrays
    instead, and only the dense coefficient stack needs the matrix.
    """
    return g.incidence.matrix()


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
