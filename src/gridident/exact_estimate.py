"""Noise-free estimators and identifiability diagnostics.

The reduced-system solve for complete hypotheses, the least-squares route for
arbitrary hypothesis graphs, and the one identifiability rule in two gates:
before any solve, tau must reach min_measurements, the rank count
n*tau - tau*(tau+1)/2 >= e (require_measurements); after it, the solve's
rank must equal e (require_unique).

least_squares, one lstsq giving the minimum-norm solution and its rank, is
the one exact solve, of the reduced system and of the edge-vector stack alike.
structured_least_squares reaches the same answer without building the stack:
under a hypothesis that holds every node pair by one (n-1)-by-(n-1)
eigendecomposition of the whitened reduced voltage Gram, in O(n^2 tau + n^3),
and under any other hypothesis by Cholesky on the e-by-e normal equations.
Both read the hypothesis as its incidence's endpoint arrays. It falls back to
the stack, the one place the dense incidence matrix is built, when the system
is rank-deficient or ill-conditioned.

Only the Cholesky path calls scipy, and it imports scipy.linalg on first
use: importing scipy costs a fresh process about 0.3 s and 30 MB of
resident memory, which the complete-hypothesis path never needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientMeasurementsError, NonUniqueError
from .graph_core import (Edge, Incidence, NetworkGraph, complete_graph, is_tree,
                         numerical_rank, remove_edge)
from .netmodel import reconstruct_full
from .synth import MeasurementSet, stack_coefficients

PRIOR_KINDS = ("none", "tree", "minus_one_edge", "explicit_graph")

# Smallest LAPACK reciprocal condition estimate of the Gram matrix that the
# Cholesky path accepts. kappa(G) = kappa(A)^2 for the stack A, so this keeps
# kappa(A) near 1e5: sigma_min/sigma_max of A is then far above lstsq's rank
# cutoff eps*max(rows, cols), so full rank is the verdict lstsq would give, and
# corrected semi-normal equations are accurate at that kappa(A) (Bjorck,
# Numerical Methods for Least Squares Problems, 1996, section 6.6). The
# complete-hypothesis path holds lambda_min/lambda_max of its whitened voltage
# Gram, the exact reciprocal condition of its normal-equation operator, to the
# same bound.
_GRAM_RCOND_MIN = 1e-10


@dataclass(frozen=True)
class PriorTopology:
    """Hypothesis edge set plus the kind of prior knowledge it encodes."""

    kind: str
    graph: NetworkGraph

    def __post_init__(self):
        if self.kind not in PRIOR_KINDS:
            raise ValueError(f"unknown prior kind {self.kind!r}")
        n = self.graph.n
        if self.kind == "none" and self.graph.e != n * (n - 1) // 2:
            raise ValueError("prior kind 'none' requires the complete graph")
        if self.kind == "tree" and not is_tree(self.graph):
            raise ValueError("prior kind 'tree' requires a connected graph with n-1 edges")
        if self.kind == "minus_one_edge" and self.graph.e != n * (n - 1) // 2 - 1:
            raise ValueError("prior kind 'minus_one_edge' requires the complete graph minus one edge")

    @classmethod
    def complete(cls, n: int) -> "PriorTopology":
        return cls("none", complete_graph(n))

    @classmethod
    def tree(cls, graph: NetworkGraph) -> "PriorTopology":
        return cls("tree", graph)

    @classmethod
    def minus_one(cls, n: int, removed: Edge) -> "PriorTopology":
        return cls("minus_one_edge", remove_edge(complete_graph(n), removed))

    @classmethod
    def explicit(cls, graph: NetworkGraph) -> "PriorTopology":
        return cls("explicit_graph", graph)


@dataclass(frozen=True)
class UniquenessDiagnostic:
    """Rank of the coefficient matrix against the number of unknowns.

    gram_rcond is the reciprocal condition of the normal equations when a fast
    path of structured_least_squares produced the solve: LAPACK's estimate for
    the Gram matrix on the Cholesky path, lambda_min/lambda_max of the whitened
    reduced voltage Gram on the complete-hypothesis path. It is None when the
    lstsq fallback made the solve.
    """

    rank: int
    unknowns: int
    gram_rcond: float | None = None

    @property
    def unique(self) -> bool:
        return self.rank == self.unknowns

    @property
    def deficiency(self) -> int:
        return self.unknowns - self.rank


def min_measurements(prior: PriorTopology, n: int) -> int:
    """Smallest tau in 1..n-1 with n*tau - tau*(tau+1)/2 >= e, the prior's edge count.

    One count for every prior, and a proven necessary condition. At tau <= n-1
    the complete hypothesis's stack has rank at most n*tau - tau*(tau+1)/2,
    with equality for generic voltages (criterion 01). Every other
    hypothesis's stack is a subset of its columns, so its e unknowns can be
    unique only if that count reaches e. The count gives the paper's n-1 with
    no prior, n-2 with one known missing edge and 1 with a known tree, and for
    generic voltages it is exact there. On a graph with a subgraph denser than
    the count allows for its own nodes, a unique solve may need more points;
    require_unique rejects the rank-deficient solve at the count.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if prior.graph.n != n:
        raise ValueError(f"prior is over {prior.graph.n} nodes, not {n}")
    # reached by tau = n-1 at the latest, where the count is n(n-1)/2 >= e
    return next(tau for tau in range(1, n) if n * tau - tau * (tau + 1) // 2 >= prior.graph.e)


def require_measurements(prior: PriorTopology, n: int, tau: int) -> None:
    """Raise InsufficientMeasurementsError, naming the rank count, below min_measurements."""
    needed = min_measurements(prior, n)
    if tau < needed:
        raise InsufficientMeasurementsError(
            f"{tau} operating points supplied but {needed} required: {prior.graph.e} unknown "
            f"admittances on {n} nodes need n*tau - tau*(tau+1)/2 >= {prior.graph.e}")


def build_reduced_measurements(ms: MeasurementSet):
    """Slack-reduced voltage and current matrices, each (n-1)-by-tau.

    Drops the node-1 rows and subtracts each operating point's measured
    node-1 voltage from the remaining voltages of that point, which keeps the
    reduced system exact even when the slack voltage drifts across points.
    """
    u = ms.voltage_matrix()
    return u[1:, :] - u[0, :], ms.current_matrix()[1:, :]


def estimate_reduced(vbar: np.ndarray, ibar: np.ndarray) -> np.ndarray:
    """Reduced admittance matrix Ybar from Ybar @ vbar = ibar.

    estimate_vector_ls solves the transpose vbar.T @ Ybar.T = ibar.T with one
    lstsq call for solution and rank. Needs tau >= n-1 and full row rank of
    vbar; anything less leaves Ybar non-unique and raises NonUniqueError.
    """
    vbar = np.asarray(vbar, dtype=complex)
    ibar = np.asarray(ibar, dtype=complex)
    if vbar.shape != ibar.shape or vbar.ndim != 2:
        raise ValueError("reduced voltage/current matrices must share shape (n-1, tau)")
    return estimate_vector_ls(vbar.T, ibar.T).T


def uniqueness_diagnostic(a: np.ndarray, unknowns: int) -> UniquenessDiagnostic:
    """Rank the stacked coefficient matrix against the unknown count."""
    a = np.asarray(a)
    return UniquenessDiagnostic(rank=numerical_rank(a) if a.size else 0, unknowns=unknowns)


def require_unique(diag: UniquenessDiagnostic) -> None:
    """Raise NonUniqueError carrying the diagnostic unless every unknown is determined."""
    if not diag.unique:
        raise NonUniqueError(
            f"coefficient matrix rank {diag.rank} < {diag.unknowns} unknowns "
            f"(deficiency {diag.deficiency})", diagnostic=diag)


def estimate_vector_ls(a: np.ndarray, i_stacked: np.ndarray) -> np.ndarray:
    """Unique least-squares admittance vector from the stacked system.

    Raises NonUniqueError carrying the rank diagnostic when the coefficient
    matrix does not determine every unknown.
    """
    y, diag = least_squares(a, i_stacked)
    require_unique(diag)
    return y


def least_squares(a: np.ndarray,
                  i_stacked: np.ndarray) -> tuple[np.ndarray, UniquenessDiagnostic]:
    """Minimum-norm least-squares solution and the rank diagnostic of the same solve.

    lstsq's default cutoff, eps * max(rows, cols) * sigma_max, is
    numerical_rank's, so the rank it returns needs no second SVD of the stack.
    This is the slow path on the dense stack; structured_least_squares takes
    the fast one whenever the system is well conditioned and falls back here.
    """
    a = np.asarray(a, dtype=complex)
    y, _, rank, _ = np.linalg.lstsq(a, np.asarray(i_stacked, dtype=complex), rcond=None)
    return y, UniquenessDiagnostic(rank=int(rank), unknowns=a.shape[1])


def _stack_adjoint(inc: Incidence, d: np.ndarray, r: np.ndarray) -> np.ndarray:
    # A^H r for the stack of blocks H diag(d_t), with r the n-by-tau residual
    return (d.conj() * inc.diff(r)).sum(axis=1)


def _gram_solve(inc: Incidence, v: np.ndarray, cur: np.ndarray):
    """(y, rcond) from Cholesky on the Gram matrix, or None unless it certifies full rank."""
    from scipy.linalg import cho_solve, lapack  # deferred: the complete path needs numpy only

    d = inc.diff(v)
    # numpy factors conj(G) = (D D^H) * (H^T H) as L L^H, so L.T is G's upper
    # Cholesky factor, already in the Fortran order LAPACK reads without a copy.
    # numpy's Cholesky, not scipy's: numpy and scipy may each bundle their own
    # threaded BLAS, and alternating between the two pools made a 90x90
    # factorization 15x slower on two cores. The scipy calls below are
    # triangular solves with one right-hand side, which run on one thread.
    gram_conj = d @ d.conj().T
    # H^T H from the endpoints: +1 where two edges share their plus or their minus
    # node, -1 where one's plus is the other's minus, and 2 on the diagonal
    hth = np.equal.outer(inc.plus, inc.plus).astype(float)
    hth += np.equal.outer(inc.minus, inc.minus)
    hth -= np.equal.outer(inc.plus, inc.minus)
    hth -= np.equal.outer(inc.minus, inc.plus)
    gram_conj *= hth
    del hth
    anorm = np.linalg.norm(gram_conj, 1)
    try:
        upper = np.linalg.cholesky(gram_conj).T
    except np.linalg.LinAlgError:
        return None
    del gram_conj
    rcond, info = lapack.zpocon(upper, anorm)
    if info != 0 or not rcond >= _GRAM_RCOND_MIN:
        return None
    factor = (upper, False)
    y = cho_solve(factor, _stack_adjoint(inc, d, cur), check_finite=False)
    # one corrected semi-normal step, its residual formed block-wise too
    y += cho_solve(factor, _stack_adjoint(inc, d, cur - inc.scatter(d * y[:, None])),
                   check_finite=False)
    return y, float(rcond)


def _complete_solve(inc: Incidence, v: np.ndarray, cur: np.ndarray):
    """(y, rcond) when inc holds every node pair, or None unless it certifies full rank."""
    n = inc.n
    vbar = v[1:] - v[0]
    # Q = P P^T = I + 11^T for the slack reduction P = [-1, I] has the closed-form
    # inverse square root I - (1 - 1/sqrt(n)) 11^T / (n-1); g = Q^{-1/2} U
    q_isqrt = np.eye(n - 1) - (1.0 - 1.0 / math.sqrt(n)) / (n - 1)
    whitened = q_isqrt @ vbar
    # numpy only, for the thread-pool reason _gram_solve gives: with scipy's
    # triangular solves in place of the matmuls, n = 40-48 solves took 8-20 ms
    # on two cores
    lam, u = np.linalg.eigh(whitened @ whitened.conj().T)
    if not (lam[0] > 0 and lam[0] >= _GRAM_RCOND_MIN * lam[-1]):
        return None
    g = q_isqrt @ u
    denom = lam[:, None] + lam

    def solve(r):
        # Z from Q Z C + C^T Z Q = B + B^T, C = vbar vbar^H, B = (P r) vbar^H
        b = (r[1:] - r[0]) @ vbar.conj().T
        z = g.conj() @ ((g.T @ (b + b.T) @ g) / denom) @ g.conj().T
        return (z + z.T) / 2

    z = solve(cur)
    # one refinement step on the residual I - Y V
    z += solve(cur - reconstruct_full(z) @ v)
    # y_k = -Y at edge k's two ends, which Y's symmetry reads the same either way round
    return -reconstruct_full(z)[inc.plus, inc.minus], float(lam[0] / lam[-1])


def structured_least_squares(ms: MeasurementSet,
                             inc: Incidence) -> tuple[np.ndarray, UniquenessDiagnostic]:
    """least_squares(*stack_coefficients(ms, inc.matrix())) without building the stack when it can.

    inc is the hypothesis's incidence as endpoint arrays (NetworkGraph.incidence);
    the fast paths read nothing else of it.

    Each operating point contributes the block H diag(d_t), d_t = H^T v_t, so
    the stack's residual is Y V - I with Y = H diag(y) H^T. Two fast paths:

    - When inc holds every node pair (e = n(n-1)/2), Y is any Laplacian
      P^T Z P, with P = [-1, I] and Z symmetric (n-1)-by-(n-1), and the normal
      equations are Q Z C + C^T Z Q = B + B^T with Q = P P^T, C = Vbar Vbar^H,
      Vbar = P V and B = (P I) Vbar^H. Whitening by Q^{-1/2} and one eigh of
      Q^{-1/2} C Q^{-1/2} = U Lambda U^H turn this into division by
      lambda_i + lambda_j (the Kronecker-sum form of a Sylvester equation,
      Bartels & Stewart, CACM 1972). gram_rcond is lambda_min/lambda_max.
    - Otherwise, with D = H^T V, it factors G = (H^T H) * (conj(D) D^T) by
      Cholesky and solves G y = rowsum(conj(D) * (H^T I)); gram_rcond is
      LAPACK's condition estimate of G.

    Either takes one refinement step with the residual I - Y V formed without
    the stack, and runs only when its reciprocal condition is at least
    _GRAM_RCOND_MIN; the diagnostic then reports full rank. Any other system
    (rank-deficient, below the identifiability threshold, or ill-conditioned)
    falls back to least_squares on the stack, whose minimum-norm solution and
    rank are returned unchanged; only that fallback builds the dense H.
    """
    n, e = inc.n, inc.e
    solve = _complete_solve if e == n * (n - 1) // 2 else _gram_solve
    # an edgeless hypothesis goes to lstsq: LAPACK's condition estimate rejects a 0x0 matrix
    solved = solve(inc, ms.voltage_matrix(), ms.current_matrix()) if e else None
    if solved is None:
        return least_squares(*stack_coefficients(ms, inc.matrix()))
    y, rcond = solved
    return y, UniquenessDiagnostic(rank=e, unknowns=e, gram_rcond=rcond)
