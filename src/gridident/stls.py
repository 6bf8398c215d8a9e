"""Structured total least squares estimation for noisy measurements.

Operating point k obeys H((H^T(V_k + dV_k)) * y) = I_k + dI_k: the voltage
noise dV enters the coefficient matrix through the same incidence structure
as the voltages themselves. solve_stls minimizes the squared noise subject
to that equation at every point by Newton iteration on the KKT residual of
the Lagrangian. The residual, including the 2n-by-tau complex noise
solve_stls returns, is formed for all points at once in complex arithmetic
on n-by-tau arrays, with constraint_residual as the constraint; only the
Newton matrix and its step are real, in the layout
[per-point noise, real admittance parts, per-point multipliers]. That
matrix is a symmetric saddle point whose blocks are all H diag(w) or
H diag(y) H^T patterns, so it is assembled in sparse form from H's 2e
nonzeros in O(tau*e) time and memory, and SuperLU factors it with a
symmetric minimum-degree ordering. A solve factors it once, at the first
step, and keeps those factors: each later step solves its own matrix by
iterative refinement on them, since from one step to the next the matrix
moves only by the noise's order. Every step passes the same accuracy test,
a backward error of at most 1e-6 of its right-hand side; a step whose
refinement stalls before that factors its own matrix and keeps the new
factors, so the iterates are full Newton steps either way. It returns its
least-squares warm start's rank diagnostic and never warns. The plug-in ordinary least squares
estimator averages replicate snapshots before one plain regression;
topo_recover.choose_method decides when it replaces the structured solve.

scipy.sparse and SuperLU load on the first Newton step, not on import:
importing scipy costs a fresh process about 0.3 s and 30 MB of resident
memory, which noiseless runs, the CLI's help and synthesis never need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverFailureError
from .exact_estimate import (PriorTopology, UniquenessDiagnostic, _stack_adjoint,
                             require_unique, structured_least_squares)
from .graph_core import incidence_matrix
from .synth import MeasurementSet, average_snapshots

_DAMPING_FLOOR = 1e-10
_DAMPING_CAP = 1e8
_DEFICIENT_DAMPING = 1e-6
# Every refinement sweep on kept factors must shrink the step's backward error by
# this factor, or the step system is refactored. At sigma 1e-3 one sweep shrinks it
# by 1e-3 to 3e-2, so the first step's factors meet the bound in 2-3 sweeps after
# the first solve on mesh14 under minus-one:1-8 (tau 12-20) and on tree123 under
# its tree prior (tau 2-20); at sigma 0.05 on tree123 (tau 10) it takes 7-8 sweeps
# of 0.1 to 0.35 each. At 0.5 a refinement that succeeds needs at most 20 sweeps, and
# a sweep costs 1/90 to 1/16 of a factorization on those inputs.
_REFINE_CONTRACTION = 0.5


@dataclass(frozen=True, eq=False)
class StlsSolution:
    """Estimated admittances plus per-point noise estimates and solver diagnostics.

    The solution is the iterate with the smallest KKT residual; iterations is
    its index (0: the warm start), and trace has a row for every iterate.
    s is the 2n-by-tau complex noise, one column per operating point: the
    voltage noise over the current noise. uniqueness is the warm start's rank diagnostic.
    damping is the diagonal shift of the last Newton step (0.0 if none was
    taken or none was needed): positive on rank-deficient input, or where a
    step system was singular. factorizations counts the SuperLU factorizations
    of step systems: 1 when every later step refined on the first step's
    factors, 0 when no step was taken.
    """

    y: np.ndarray
    s: np.ndarray
    iterations: int
    kkt_residual: float
    converged: bool
    trace: tuple
    uniqueness: UniquenessDiagnostic
    damping: float
    factorizations: int

    @property
    def objective(self) -> float:
        return 0.5 * float(np.vdot(self.s, self.s).real)


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
    """Exact Jacobian of _kkt_residual in its real layout, as a symmetric CSC matrix.

    The matrix is [[I, P, Js], [P^T, 0, Jy^T], [Js^T, Jy, 0]]. Jy, the
    derivative of each point's constraint in y, is the realified
    H diag(H^T(V_t + dV_t)); P, that of the noise stationarity in y, has the
    same pattern in H^T lam_t on the voltage noise; Js^T, that of the
    constraint in the noise, is the realified Laplacian H diag(y) H^T beside
    -I, the same at every point. The constraint is bilinear, so the matrix is
    exact. Every column of H holds two nonzeros, so the blocks are written in
    COO form straight from them: O(tau*e) entries, nothing dense beyond
    e-by-tau. The lower blocks mirror the upper ones, so the matrix equals its
    transpose bit for bit. The stored pattern depends on H alone: entries that
    happen to be zero, such as all of P at the warm start's zero multipliers,
    stay stored, since without them the ordering found for that first step
    factors slower (about 2x on a 14-node minus-one hypothesis).
    """
    import scipy.sparse as sp  # deferred: numpy-only paths never pay scipy's import

    n, e = h.shape
    tau = v.shape[1]
    ns = tau * 4 * n  # the noise rows; the admittances follow, then the multipliers
    t = np.arange(tau)
    at_noise, at_mult = 4 * n * t, ns + 2 * e + 2 * n * t  # each point's first row
    edge, node = np.nonzero(h.T)  # edge-major: the two ends of every edge
    sign = h[node, edge][:, np.newaxis]
    y_re = ns + edge[:, np.newaxis]
    y_im = y_re + e
    noise, mult = node[:, np.newaxis] + at_noise, node[:, np.newaxis] + at_mult
    b = sign * (h.T @ (v + s[:n]))[edge]
    c = sign * (h.T @ lam)[edge]
    # the Laplacian's diagonal, then both off-diagonal entries of every edge
    nodes, ends = np.arange(n), node.reshape(e, 2)
    off = sign[0::2, 0] * sign[1::2, 0] * y
    diag = (np.bincount(node, y[edge].real, minlength=n)
            + 1j * np.bincount(node, y[edge].imag, minlength=n))
    lap = np.concatenate([diag, off, off])[:, np.newaxis]
    lap_row = np.concatenate([nodes, ends[:, 0], ends[:, 1]])[:, np.newaxis] + at_noise
    lap_col = np.concatenate([nodes, ends[:, 1], ends[:, 0]])[:, np.newaxis] + at_mult
    cur = nodes[:, np.newaxis]
    upper = [
        # Jy^T: [[B_re, -B_im], [B_im, B_re]] with B = H diag(H^T(V_t + dV_t))
        (y_re, mult, b.real), (y_im, mult, -b.imag),
        (y_re, mult + n, b.imag), (y_im, mult + n, b.real),
        # P: conj(Lap) lam = H diag(H^T lam) conj(y) on the voltage noise only
        (noise, y_re, c.real), (noise, y_im, c.imag),
        (noise + n, y_re, c.imag), (noise + n, y_im, -c.real),
        # Js: [[L_re, L_im], [-L_im, L_re]] on the voltage noise, -I on the current noise
        (lap_row, lap_col, lap.real), (lap_row, lap_col + n, lap.imag),
        (lap_row + n, lap_col, -lap.imag), (lap_row + n, lap_col + n, lap.real),
        (cur + 2 * n + at_noise, cur + at_mult, -1.0),
        (cur + 3 * n + at_noise, cur + n + at_mult, -1.0),
    ]
    rows, cols, vals = (np.concatenate([a.ravel() for a in parts])
                        for parts in zip(*(np.broadcast_arrays(*block) for block in upper)))
    eye = np.arange(ns)  # the identity on the noise
    dim = ns + 2 * e + tau * 2 * n
    return sp.csc_matrix((np.concatenate([np.ones(ns), vals, vals]),
                          (np.concatenate([eye, rows, cols]), np.concatenate([eye, cols, rows]))),
                         shape=(dim, dim))


def _damped_solve(matrix, rhs, mu: float, lu=None):
    """Newton step on matrix + mu*I with a backward error of at most 1e-6*||rhs||.

    lu, when given, holds the SuperLU factors of an earlier step's shifted
    matrix. The step is then found by iterative refinement on those factors
    (Wilkinson; Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 12), step += lu.solve(rhs - shifted @ step), for as long as every
    sweep shrinks the backward error by _REFINE_CONTRACTION. Only if that
    misses the accuracy test is matrix + mu*I factored itself: SuperLU orders
    the symmetric saddle point by minimum degree on its (symmetric) pattern and
    prefers diagonal pivots, and mu escalates until the step meets the same
    test. Escalated damping is kept for later iterations, since a step system
    singular at one iterate will almost surely be singular at the next.
    Returns the step, the damping it used, the factors it used (lu itself
    unless it refactored) and the number of factorizations it ran.
    """
    import scipy.sparse as sp  # deferred, as in _newton_matrix
    from scipy.sparse.linalg import splu

    rhs_norm = float(np.linalg.norm(rhs))
    bound = 1e-6 * max(rhs_norm, 1e-300)
    shifted = matrix if mu == 0 else matrix + mu * sp.identity(matrix.shape[0], format="csc")
    if lu is not None:
        step, previous = lu.solve(rhs), rhs_norm
        while True:
            residual = rhs - shifted @ step
            backward = float(np.linalg.norm(residual))
            if backward <= bound:
                return step, mu, lu, 0
            if not backward <= _REFINE_CONTRACTION * previous:  # stalled, or not finite
                break
            previous = backward
            step += lu.solve(residual)
    factored = 0
    while True:
        factored += 1
        try:
            # minimum degree on A + A^T, diagonal pivots preferred: SuperLU's default COLAMD
            # gives this matrix several times the fill (2.0M against 0.37M entries in L and U
            # on tree123 at tau 20)
            lu = splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                      options={"SymmetricMode": True})
            step = lu.solve(rhs)
            if np.all(np.isfinite(step)) and float(np.linalg.norm(shifted @ step - rhs)) <= bound:
                return step, mu, lu, factored
        except RuntimeError:
            pass
        mu = _DAMPING_FLOOR if mu == 0 else mu * 10.0
        if mu > _DAMPING_CAP:
            raise SolverFailureError(
                f"step system stayed singular up to damping {_DAMPING_CAP:g}")
        shifted = matrix + mu * sp.identity(matrix.shape[0], format="csc")


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
    best = (r_norm, 0, s.copy(), y.copy())
    it = factorizations = 0
    lu = None  # the step system's SuperLU factors, kept for refining later steps
    while r_norm > tol and it < max_iter:
        step, mu, lu, factored = _damped_solve(_newton_matrix(h, v, s, y, lam), -resid, mu, lu)
        factorizations += factored
        ds, dy, dlam = _split_step(step, n, e_hat, tau)
        s += ds
        y += dy
        lam += dlam
        it += 1
        resid, g_norm = _kkt_residual(h, v, cur, s, y, lam)
        r_norm = float(np.abs(resid).max())
        trace.append((it, r_norm, g_norm, float(np.abs(step).max())))
        if r_norm < best[0]:
            best = (r_norm, it, s.copy(), y.copy())

    best_norm, best_it, best_s, best_y = best
    return StlsSolution(y=best_y, s=best_s, iterations=best_it,
                        kkt_residual=best_norm, converged=best_norm <= tol,
                        trace=tuple(trace), uniqueness=uniqueness,
                        damping=mu if it else 0.0, factorizations=factorizations)


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
