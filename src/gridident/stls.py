"""Structured total least squares estimation for noisy measurements.

The complex regression is expanded into real/imaginary blocks, the voltage
noise enters the coefficient matrix through the same incidence structure as
the voltages themselves, and the resulting equality-constrained problem is
solved by Newton iteration on the KKT residual. The plug-in ordinary least
squares estimator averages replicate snapshots before one plain regression;
topo_recover.choose_method decides when it replaces the structured solve.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import SolverFailureError
from .exact_estimate import PriorTopology, require_unique, structured_least_squares
from .graph_core import incidence_matrix
from .synth import MeasurementSet, OperatingPoint, average_snapshots, voltage_coefficient

_DAMPING_FLOOR = 1e-10
_DAMPING_CAP = 1e8
_DEFICIENT_DAMPING = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the Newton-on-KKT solve.

    weight: symmetric positive-definite 4n-by-4n penalty on each per-point
    noise vector (identity when None). tol: infinity-norm stopping tolerance
    on the full KKT residual. damping: initial diagonal shift, escalated
    automatically whenever the step system is numerically singular.
    """

    weight: np.ndarray | None = None
    tol: float = 1e-5
    max_iter: int = 50
    damping: float = 0.0

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if self.damping < 0:
            raise ValueError("damping must be nonnegative")


@dataclass(frozen=True, eq=False)
class RealifiedBlock:
    """Real/imaginary expansion of one operating point's regression block.

    a has the two-by-two block structure of complex multiplication (top-left
    equals bottom-right, top-right is the negated bottom-left); b stacks the
    real then imaginary current parts.
    """

    a: np.ndarray
    b: np.ndarray
    h: np.ndarray


@dataclass(frozen=True, eq=False)
class StlsSolution:
    """Estimated admittances plus per-point noise estimates and solver diagnostics."""

    y: np.ndarray
    s: np.ndarray
    iterations: int
    kkt_residual: float
    converged: bool
    trace: tuple

    @property
    def objective(self) -> float:
        return 0.5 * float(np.sum(self.s * self.s))


def realified_coefficient(h: np.ndarray, v_re: np.ndarray, v_im: np.ndarray) -> np.ndarray:
    """2n-by-2e real expansion of the complex coefficient matrix."""
    b_re = voltage_coefficient(h, v_re)
    b_im = voltage_coefficient(h, v_im)
    return np.block([[b_re, -b_im], [b_im, b_re]])


def realify(h: np.ndarray, point: OperatingPoint) -> RealifiedBlock:
    """Expand one operating point into the real-arithmetic regression block."""
    h = np.asarray(h, dtype=float)
    if h.shape[0] != point.n:
        raise ValueError("incidence matrix and operating point disagree on node count")
    a = realified_coefficient(h, point.V.real, point.V.imag)
    b = np.concatenate([point.I.real, point.I.imag])
    return RealifiedBlock(a=a, b=b, h=h)


def noise_blocks(h: np.ndarray, s: np.ndarray):
    """Coefficient and right-hand-side perturbations induced by one noise vector.

    s stacks the four real n-blocks (voltage real/imag, current real/imag);
    the voltage part enters through the same incidence structure as the
    voltages, the current part shifts the right-hand side directly.
    """
    n = h.shape[0]
    if s.shape != (4 * n,):
        raise ValueError(f"noise vector must have length 4n={4 * n}, got {s.shape}")
    dv_re, dv_im, di_re, di_im = np.split(s, 4)
    da = realified_coefficient(h, dv_re, dv_im)
    db = np.concatenate([di_re, di_im])
    return da, db


def constraint_residual(block: RealifiedBlock, s: np.ndarray,
                        y_re: np.ndarray, y_im: np.ndarray) -> np.ndarray:
    """Equality-constraint value for one operating point at the given noise/parameter guess."""
    da, db = noise_blocks(block.h, np.asarray(s, dtype=float))
    y2 = np.concatenate([y_re, y_im])
    return (block.a + da) @ y2 - (block.b + db)


def _structure_jacobian(h: np.ndarray, y2: np.ndarray) -> np.ndarray:
    # derivative of the constraint w.r.t. the voltage-noise block: a weighted
    # Laplacian pair, symmetric because H diag(c) H^T is.
    e = h.shape[1]
    y_re, y_im = y2[:e], y2[e:]
    c_re = (h * y_re) @ h.T
    c_im = (h * y_im) @ h.T
    return np.block([[c_re, -c_im], [c_im, c_re]])


def _cross_block(h: np.ndarray, lam: np.ndarray) -> np.ndarray:
    # second derivative of the Lagrangian in (voltage-noise, parameters)
    n = h.shape[0]
    l1, l2 = lam[:n], lam[n:]
    b1 = voltage_coefficient(h, l1)
    b2 = voltage_coefficient(h, l2)
    top = np.block([[b1, b2], [b2, -b1]])
    return np.vstack([top, np.zeros((2 * n, top.shape[1]))])


def _weight_matrix(cfg: SolverConfig, size: int) -> np.ndarray:
    if cfg.weight is None:
        return np.eye(size)
    w = np.asarray(cfg.weight, dtype=float)
    if w.shape != (size, size):
        raise ValueError(f"weight matrix must be {size}x{size}, got {w.shape}")
    if float(np.abs(w - w.T).max()) > 1e-10 * max(1.0, float(np.abs(w).max())):
        raise ValueError("weight matrix must be symmetric")
    try:
        np.linalg.cholesky(w)
    except np.linalg.LinAlgError as exc:
        raise ValueError("weight matrix must be positive definite") from exc
    return w


def solve_stls(ms: MeasurementSet, prior: PriorTopology,
               cfg: SolverConfig | None = None) -> StlsSolution:
    """Estimate edge admittances from noisy measurements under structured noise.

    Minimizes the weighted squared noise over all per-point noise vectors
    subject to every realified regression equation holding exactly, via full
    Newton steps on the stationarity-plus-feasibility residual of the
    Lagrangian. The constraint is bilinear in (noise, parameters), so the
    Jacobian assembled here is exact.

    Starts from the ordinary least-squares parameters with zero noise and
    multipliers. Returns a non-converged solution (never a silent success)
    if the residual is still above tolerance after max_iter steps; raises
    SolverFailureError only when the step system stays singular through the
    damping escalation.
    """
    cfg = cfg or SolverConfig()
    h = incidence_matrix(prior.graph)
    n, e_hat = h.shape
    tau = ms.tau
    w = _weight_matrix(cfg, 4 * n)

    blocks = [realify(h, p) for p in ms.points]
    y0, rank_diag = structured_least_squares(ms, h)
    base_damping = cfg.damping
    if not rank_diag.unique:
        # the KKT system is singular along the unidentifiable directions;
        # regularize so the factorization stays well defined
        warnings.warn(
            f"coefficient matrix rank {rank_diag.rank} < {e_hat} unknowns; "
            f"the estimate cannot be unique", stacklevel=2)
        base_damping = max(base_damping, _DEFICIENT_DAMPING)

    ns, ny, nl = 4 * n, 2 * e_hat, 2 * n
    dim = tau * ns + ny + tau * nl
    s = np.zeros((tau, ns))
    y2 = np.concatenate([y0.real, y0.imag])
    lam = np.zeros((tau, nl))

    def kkt_residual():
        g_jac = _structure_jacobian(h, y2)
        f_s, f_g = [], []
        f_y = np.zeros(ny)
        jy_list = []
        for k in range(tau):
            da, db = noise_blocks(h, s[k])
            jy = blocks[k].a + da
            jy_list.append(jy)
            f_s.append(w @ s[k] + np.concatenate([g_jac.T @ lam[k], -lam[k]]))
            f_y += jy.T @ lam[k]
            f_g.append(jy @ y2 - (blocks[k].b + db))
        resid = np.concatenate([*f_s, f_y, *f_g])
        g_norm = max(float(np.abs(g).max()) for g in f_g)
        return resid, g_norm, jy_list, g_jac

    def newton_matrix(jy_list, g_jac):
        js_t = sp.csr_matrix(np.vstack([g_jac.T, -np.eye(nl)]))  # 4n x 2n
        sw = sp.block_diag([sp.csr_matrix(w)] * tau, format="csr")
        p = sp.vstack([sp.csr_matrix(_cross_block(h, lam[k])) for k in range(tau)],
                      format="csr")
        jst_all = sp.block_diag([js_t] * tau, format="csr")
        jy = sp.vstack([sp.csr_matrix(j) for j in jy_list], format="csr")
        return sp.bmat([[sw, p, jst_all],
                        [p.T, None, jy.T],
                        [jst_all.T, jy, None]], format="csc")

    mu_state = [base_damping]

    def damped_solve(matrix, rhs):
        # escalated damping is kept for later iterations: a singular step
        # system at one iterate will almost surely be singular at the next
        rhs_norm = float(np.linalg.norm(rhs))
        while True:
            mu = mu_state[0]
            try:
                shifted = matrix if mu == 0 else matrix + mu * sp.identity(dim, format="csc")
                step = splu(shifted).solve(rhs)
                if np.all(np.isfinite(step)):
                    backward = float(np.linalg.norm(shifted @ step - rhs))
                    if backward <= 1e-6 * max(rhs_norm, 1e-300):
                        return step
            except RuntimeError:
                pass
            mu_state[0] = _DAMPING_FLOOR if mu == 0 else mu * 10.0
            if mu_state[0] > _DAMPING_CAP:
                raise SolverFailureError(
                    f"step system stayed singular up to damping {_DAMPING_CAP:g}")

    resid, g_norm, jy_list, g_jac = kkt_residual()
    r_norm = float(np.abs(resid).max())
    trace = [(0, r_norm, g_norm, 0.0)]
    best = (r_norm, s.copy(), y2.copy(), 0)
    it = 0
    while r_norm > cfg.tol and it < cfg.max_iter:
        step = damped_solve(newton_matrix(jy_list, g_jac), -resid)
        ds = step[:tau * ns].reshape(tau, ns)
        dy = step[tau * ns:tau * ns + ny]
        dlam = step[tau * ns + ny:].reshape(tau, nl)
        s += ds
        y2 += dy
        lam += dlam
        it += 1
        resid, g_norm, jy_list, g_jac = kkt_residual()
        r_norm = float(np.abs(resid).max())
        trace.append((it, r_norm, g_norm, float(np.abs(step).max())))
        if r_norm < best[0]:
            best = (r_norm, s.copy(), y2.copy(), it)

    best_norm, best_s, best_y2, _ = best
    converged = best_norm <= cfg.tol
    y = best_y2[:e_hat] + 1j * best_y2[e_hat:]
    return StlsSolution(y=y, s=best_s, iterations=it, kkt_residual=best_norm,
                        converged=converged, trace=tuple(trace))


def save_trace(solution: StlsSolution, path) -> None:
    """Per-iteration convergence record for plotting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "kkt_residual", "constraint_norm", "step_norm"])
        for row in solution.trace:
            writer.writerow([row[0], repr(row[1]), repr(row[2]), repr(row[3])])


def plug_in_ols(sets, prior: PriorTopology) -> np.ndarray:
    """Average repeated snapshots, then solve the ordinary least-squares system.

    Averaging replicate snapshots of the same operating points shrinks the
    noise before a single plain regression. topo_recover.choose_method picks
    this estimator over the structured solve when the unknown count makes
    that solve impractical; on one measurement set it is the exact estimator.
    """
    y, diag = structured_least_squares(average_snapshots(sets), incidence_matrix(prior.graph))
    require_unique(diag)
    return y
