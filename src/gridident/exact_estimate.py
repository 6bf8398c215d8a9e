"""Noise-free estimators and identifiability diagnostics.

The reduced-system solve for complete hypotheses, the least-squares route for
arbitrary hypothesis graphs, and the one identifiability rule: each prior's tau
threshold (require_measurements) and every solve's rank (require_unique).

The least-squares route has two paths. structured_least_squares is the fast
one: it solves the e-by-e normal equations by Cholesky without building the
dense (n*tau)-by-e coefficient stack. least_squares (lstsq on that stack) is
its fallback for rank-deficient and ill-conditioned systems.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, lapack

from .errors import (HeuristicBoundWarning, InsufficientMeasurementsError, NonUniqueError,
                     OutOfRegimeError)
from .graph_core import (Edge, NetworkGraph, complete_graph, is_tree,
                         numerical_rank, remove_edge)
from .synth import MeasurementSet, stack_coefficients

PRIOR_KINDS = ("none", "tree", "minus_one_edge", "explicit_graph")

_THRESHOLD_RULES = {
    "none": "with no prior topology information a unique solution needs tau >= n-1",
    "tree": "a known tree topology needs tau >= 1",
    "minus_one_edge": "a known missing edge needs tau >= n-2 (n >= 4)",
    "explicit_graph": "heuristic lower bound ceil(e/n) for an explicit hypothesis",
}

# Smallest LAPACK reciprocal condition estimate of the Gram matrix that the
# Cholesky path accepts. kappa(G) = kappa(A)^2 for the stack A, so this keeps
# kappa(A) near 1e5: sigma_min/sigma_max of A is then far above lstsq's rank
# cutoff eps*max(rows, cols), so full rank is the verdict lstsq would give, and
# corrected semi-normal equations are accurate at that kappa(A) (Bjorck,
# Numerical Methods for Least Squares Problems, 1996, section 6.6).
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

    gram_rcond is the condition estimate of the Gram matrix when the Cholesky
    path of structured_least_squares produced the solve, and None otherwise.
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
    """Minimum operating points for a unique solution under the given prior.

    No prior needs n-1, a known tree needs 1, a known missing edge needs n-2
    (only claimed for n >= 4). For an arbitrary explicit hypothesis no closed
    form is available, so a heuristic lower bound ceil(e/n) is returned with
    a warning; rely on the runtime rank diagnostic there.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if prior.graph.n != n:
        raise ValueError(f"prior is over {prior.graph.n} nodes, not {n}")
    if prior.kind == "none":
        return n - 1
    if prior.kind == "tree":
        return 1
    if prior.kind == "minus_one_edge":
        if n < 4:
            raise OutOfRegimeError(
                f"the missing-edge threshold n-2 is only established for n >= 4, got n={n}")
        return n - 2
    bound = max(1, math.ceil(prior.graph.e / n))
    warnings.warn(
        f"no proven threshold for an explicit hypothesis graph; "
        f"returning heuristic lower bound {bound}",
        HeuristicBoundWarning, stacklevel=2)
    return bound


def require_measurements(prior: PriorTopology, n: int, tau: int) -> None:
    """Raise InsufficientMeasurementsError, naming the prior's rule, below min_measurements."""
    needed = min_measurements(prior, n)
    if tau < needed:
        raise InsufficientMeasurementsError(f"{tau} operating points supplied but {needed} "
                                            f"required: {_THRESHOLD_RULES[prior.kind]}")


def build_reduced_measurements(ms: MeasurementSet, v1_slack: complex | None = None):
    """Slack-reduced voltage and current matrices.

    Drops the node-1 rows and references every remaining voltage to the slack
    voltage. By default the measured node-1 voltage of each operating point is
    subtracted column by column, which keeps the reduced system exact even
    when the slack voltage drifts across points; pass a scalar to subtract a
    fixed known slack voltage instead.
    """
    u = ms.voltage_matrix()
    i = ms.current_matrix()
    slack = u[0, :] if v1_slack is None else np.full(ms.tau, complex(v1_slack))
    return u[1:, :] - slack[np.newaxis, :], i[1:, :]


def estimate_reduced(vbar: np.ndarray, ibar: np.ndarray) -> np.ndarray:
    """Reduced admittance matrix from reduced measurements.

    Square case: direct linear solve. Overdetermined case: least squares,
    equivalent to the right pseudo-inverse. Requires tau >= n-1 and full row
    rank; anything less leaves the matrix non-unique and raises.
    """
    vbar = np.asarray(vbar, dtype=complex)
    ibar = np.asarray(ibar, dtype=complex)
    if vbar.shape != ibar.shape or vbar.ndim != 2:
        raise ValueError("reduced voltage/current matrices must share shape (n-1, tau)")
    m, tau = vbar.shape
    require_unique(uniqueness_diagnostic(vbar, m))
    if tau == m:
        # ybar @ vbar = ibar  <=>  vbar.T @ ybar.T = ibar.T
        return np.linalg.solve(vbar.T, ibar.T).T
    return np.linalg.lstsq(vbar.T, ibar.T, rcond=None)[0].T


def symmetry_deviation(mat: np.ndarray) -> float:
    """Largest absolute asymmetry relative to the largest entry; 0 for symmetric input."""
    mat = np.asarray(mat)
    scale = max(float(np.abs(mat).max(initial=0.0)), 1e-30)
    return float(np.abs(mat - mat.T).max(initial=0.0)) / scale


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


def minimum_norm_vector(a: np.ndarray, i_stacked: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution with no uniqueness gate; see least_squares."""
    return least_squares(a, i_stacked)[0]


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


def _stack_adjoint(h: np.ndarray, d: np.ndarray, r: np.ndarray) -> np.ndarray:
    # A^H r for the stack of blocks H diag(d_t), with r the n-by-tau residual
    return (d.conj() * (h.T @ r)).sum(axis=1)


def _gram_solve(h: np.ndarray, v: np.ndarray, cur: np.ndarray):
    """(y, rcond) from Cholesky on the Gram matrix, or None unless it certifies full rank."""
    d = h.T @ v
    # numpy factors conj(G) = (D D^H) * (H^T H) as L L^H, so L.T is G's upper
    # Cholesky factor, already in the Fortran order LAPACK reads without a copy.
    # numpy's Cholesky, not scipy's: numpy and scipy may each bundle their own
    # threaded BLAS, and alternating between the two pools made a 90x90
    # factorization 15x slower on two cores. The scipy calls below are
    # triangular solves with one right-hand side, which run on one thread.
    gram_conj = d @ d.conj().T
    gram_conj *= h.T @ h
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
    y = cho_solve(factor, _stack_adjoint(h, d, cur), check_finite=False)
    # one corrected semi-normal step, its residual formed block-wise too
    y += cho_solve(factor, _stack_adjoint(h, d, cur - h @ (d * y[:, None])), check_finite=False)
    return y, float(rcond)


def structured_least_squares(ms: MeasurementSet,
                             h: np.ndarray) -> tuple[np.ndarray, UniquenessDiagnostic]:
    """least_squares(*stack_coefficients(ms, h)) without building the stack when it can.

    Each operating point contributes the block H diag(d_t), d_t = H^T v_t, so
    with D = H^T V the normal equations are G y = rowsum(conj(D) * (H^T I)),
    G = (H^T H) * (conj(D) D^T). The fast path factors G by Cholesky, solves,
    and takes one corrected semi-normal refinement step with the residual
    I - H (D * y) formed block-wise. It runs only when the factorization
    succeeds and its condition estimate is at least _GRAM_RCOND_MIN; the
    diagnostic then reports full rank and that estimate as gram_rcond. Any
    other system (rank-deficient, below the identifiability threshold, or
    ill-conditioned) falls back to least_squares on the stack, whose
    minimum-norm solution and rank are returned unchanged.
    """
    h = np.asarray(h, dtype=float)
    e = h.shape[1]
    # an edgeless hypothesis goes to lstsq: LAPACK's condition estimate rejects a 0x0 matrix
    solved = _gram_solve(h, ms.voltage_matrix(), ms.current_matrix()) if e else None
    if solved is None:
        return least_squares(*stack_coefficients(ms, h))
    y, rcond = solved
    return y, UniquenessDiagnostic(rank=e, unknowns=e, gram_rcond=rcond)
