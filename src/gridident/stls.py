"""Structured total least squares estimation for noisy measurements.

Operating point k obeys H((H^T(V_k + dV_k)) * y) = I_k + dI_k: the voltage
noise dV enters the coefficient matrix through the same incidence structure
as the voltages themselves. solve_stls minimizes the squared noise subject
to that equation at every point by Newton iteration on the KKT residual of
the Lagrangian. The residual, including the 2n-by-tau complex noise
solve_stls returns, is formed for all points at once in complex arithmetic
on n-by-tau arrays, with constraint_residual as the constraint; only the
Newton matrix and its step are real, in the layout
[per-point noise, real admittance parts, per-point multipliers] that the
sparse LU factors. It returns its least-squares warm start's rank diagnostic
and never warns. The plug-in ordinary least squares estimator averages
replicate snapshots before one plain regression; topo_recover.choose_method
decides when it replaces the structured solve.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import SolverFailureError
from .exact_estimate import (PriorTopology, UniquenessDiagnostic, _stack_adjoint,
                             require_unique, structured_least_squares)
from .graph_core import incidence_matrix
from .synth import MeasurementSet, average_snapshots, voltage_coefficient

_DAMPING_FLOOR = 1e-10
_DAMPING_CAP = 1e8
_DEFICIENT_DAMPING = 1e-6


@dataclass(frozen=True, eq=False)
class StlsSolution:
    """Estimated admittances plus per-point noise estimates and solver diagnostics.

    s is the 2n-by-tau complex noise, one column per operating point: the
    voltage noise over the current noise. uniqueness is the warm start's rank diagnostic.
    """

    y: np.ndarray
    s: np.ndarray
    iterations: int
    kkt_residual: float
    converged: bool
    trace: tuple
    uniqueness: UniquenessDiagnostic

    @property
    def objective(self) -> float:
        return 0.5 * float(np.vdot(self.s, self.s).real)


def realified_coefficient(h: np.ndarray, v_re: np.ndarray, v_im: np.ndarray) -> np.ndarray:
    """2n-by-2e real expansion [[B_re, -B_im], [B_im, B_re]] of the complex coefficient matrix.

    n-by-tau voltage parts give one expansion per operating point, stacked
    along a trailing axis as voltage_coefficient stacks them.
    """
    b_re = voltage_coefficient(h, v_re)
    b_im = voltage_coefficient(h, v_im)
    return np.concatenate([np.concatenate([b_re, -b_im], axis=1),
                           np.concatenate([b_im, b_re], axis=1)])


def constraint_residual(h: np.ndarray, v: np.ndarray, cur: np.ndarray,
                        dv: np.ndarray, di: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Equality-constraint value H((H^T(V + dV)) * y) - (I + dI) of every operating point.

    v, cur and the noise guesses dv, di are n-by-tau complex arrays, one
    column per operating point; column k is
    voltage_coefficient(h, v_k + dv_k) @ y - (cur_k + di_k).
    """
    v = np.asarray(v)
    if v.ndim != 2 or v.shape[0] != h.shape[0] or not (
            v.shape == np.shape(cur) == np.shape(dv) == np.shape(di)):
        raise ValueError(f"voltages, currents and noise must all be {h.shape[0]}-by-tau arrays")
    return h @ ((h.T @ (v + dv)) * y[:, np.newaxis]) - (cur + di)


def _real_layout(z: np.ndarray, n: int) -> np.ndarray:
    # (k*n)-by-tau complex -> tau-by-2kn real; row t holds, block by block, the
    # real then imaginary parts of column t: the per-point order of the KKT vector
    tau = z.shape[1]
    z = z.reshape(-1, n, tau)
    return np.stack([z.real, z.imag], axis=1).reshape(-1, tau).T


def _complex_layout(x: np.ndarray, n: int) -> np.ndarray:
    # inverse of _real_layout
    tau = x.shape[0]
    parts = x.T.reshape(-1, 2, n, tau)
    return (parts[:, 0] + 1j * parts[:, 1]).reshape(-1, tau)


def _split_step(step: np.ndarray, n: int, e: int, tau: int):
    # a real vector in the KKT layout -> (2n-by-tau noise, e admittances, n-by-tau multipliers)
    ns = tau * 4 * n
    return (_complex_layout(step[:ns].reshape(tau, 4 * n), n),
            step[ns:ns + e] + 1j * step[ns + e:ns + 2 * e],
            _complex_layout(step[ns + 2 * e:].reshape(tau, 2 * n), n))


def _kkt_residual(h, v, cur, s, y, lam):
    """Stationarity-plus-feasibility residual of the Lagrangian, and the constraint's max-norm.

    s is the 2n-by-tau complex noise (voltage rows over current rows), y the
    complex admittances, lam the n-by-tau complex multipliers. The residual is
    returned in the real layout the Newton matrix uses: every point's noise
    stationarity s + [conj(Lap) lam; -lam] (4n), then the parameter
    stationarity (real, imaginary), then every point's constraint (2n).
    """
    n = h.shape[0]
    g = _real_layout(constraint_residual(h, v, cur, s[:n], s[n:], y), n)
    lap = (h * y) @ h.T  # H diag(y) H^T, complex symmetric
    f_s = _real_layout(s + np.vstack([lap.conj() @ lam, -lam]), n)
    f_y = _stack_adjoint(h, h.T @ (v + s[:n]), lam)
    resid = np.concatenate([f_s.ravel(), f_y.real, f_y.imag, g.ravel()])
    return resid, float(np.abs(g).max())


def _newton_matrix(h, v, s, y, lam):
    """Exact Jacobian of _kkt_residual in its real layout; the constraint is bilinear."""
    n, e = h.shape
    tau = v.shape[1]
    vt = v + s[:n]
    lap = (h * y) @ h.T
    # d(constraint)/d(y) of every point
    jy = np.moveaxis(realified_coefficient(h, vt.real, vt.imag), -1, 0)
    jy = sp.csr_matrix(jy.reshape(tau * 2 * n, 2 * e))
    # d(noise stationarity)/d(y): conj(Lap) lam = H diag(H^T lam) conj(y) on the
    # voltage noise, nothing on the current noise
    cross = np.zeros((tau, 4 * n, 2 * e))
    cross[:, :2 * n] = np.moveaxis(realified_coefficient(h, lam.real, lam.imag), -1, 0)
    cross[:, :2 * n, e:] *= -1
    p = sp.csr_matrix(cross.reshape(tau * 4 * n, 2 * e))
    # d(constraint)/d(noise), transposed; the same block for every point
    js_t = sp.csr_matrix(np.vstack([np.block([[lap.real, lap.imag], [-lap.imag, lap.real]]),
                                    -np.eye(2 * n)]))
    jst_all = sp.kron(sp.identity(tau), js_t, format="csr")
    return sp.bmat([[sp.identity(tau * 4 * n, format="csr"), p, jst_all],
                    [p.T, None, jy.T],
                    [jst_all.T, jy, None]], format="csc")


def _damped_solve(matrix, rhs, mu: float):
    """Newton step from splu on matrix + mu*I, escalating mu until the step is accurate.

    Returns the step and the damping it used; escalated damping is kept for
    later iterations, since a step system singular at one iterate will almost
    surely be singular at the next.
    """
    rhs_norm = float(np.linalg.norm(rhs))
    while True:
        try:
            shifted = matrix if mu == 0 else matrix + mu * sp.identity(matrix.shape[0], format="csc")
            step = splu(shifted).solve(rhs)
            if np.all(np.isfinite(step)):
                backward = float(np.linalg.norm(shifted @ step - rhs))
                if backward <= 1e-6 * max(rhs_norm, 1e-300):
                    return step, mu
        except RuntimeError:
            pass
        mu = _DAMPING_FLOOR if mu == 0 else mu * 10.0
        if mu > _DAMPING_CAP:
            raise SolverFailureError(
                f"step system stayed singular up to damping {_DAMPING_CAP:g}")


def solve_stls(ms: MeasurementSet, prior: PriorTopology, *, tol: float = 1e-5,
               max_iter: int = 50) -> StlsSolution:
    """Estimate edge admittances from noisy measurements under structured noise.

    Minimizes the squared noise over all per-point noise vectors subject to
    every noisy regression equation holding exactly, via full Newton steps on
    the stationarity-plus-feasibility residual of the Lagrangian. The
    constraint is bilinear in (noise, parameters), so the Jacobian assembled
    here is exact.

    Starts from the ordinary least-squares parameters with zero noise and
    multipliers, and returns that solve's rank diagnostic as uniqueness. Returns a
    non-converged solution (never a silent success) if the infinity norm of the KKT
    residual is still above tol after max_iter steps; raises SolverFailureError only
    when the step system stays singular through the damping escalation.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter!r}")
    h = incidence_matrix(prior.graph)
    n, e_hat = h.shape
    tau = ms.tau
    v, cur = ms.voltage_matrix(), ms.current_matrix()

    y, uniqueness = structured_least_squares(ms, h)
    # damp a rank-deficient KKT system, singular along the unidentifiable directions
    mu = 0.0 if uniqueness.unique else _DEFICIENT_DAMPING

    s = np.zeros((2 * n, tau), dtype=complex)
    lam = np.zeros((n, tau), dtype=complex)
    resid, g_norm = _kkt_residual(h, v, cur, s, y, lam)
    r_norm = float(np.abs(resid).max())
    trace = [(0, r_norm, g_norm, 0.0)]
    best = (r_norm, s.copy(), y.copy())
    it = 0
    while r_norm > tol and it < max_iter:
        step, mu = _damped_solve(_newton_matrix(h, v, s, y, lam), -resid, mu)
        ds, dy, dlam = _split_step(step, n, e_hat, tau)
        s += ds
        y += dy
        lam += dlam
        it += 1
        resid, g_norm = _kkt_residual(h, v, cur, s, y, lam)
        r_norm = float(np.abs(resid).max())
        trace.append((it, r_norm, g_norm, float(np.abs(step).max())))
        if r_norm < best[0]:
            best = (r_norm, s.copy(), y.copy())

    best_norm, best_s, best_y = best
    return StlsSolution(y=best_y, s=best_s, iterations=it,
                        kkt_residual=best_norm, converged=best_norm <= tol,
                        trace=tuple(trace), uniqueness=uniqueness)


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
