"""Structured total least squares estimation for noisy measurements.

Operating point k obeys H((H^T(V_k + dV_k)) * y) = I_k + dI_k: the voltage
noise dV enters the coefficient matrix through the same incidence structure
as the voltages themselves. solve_stls minimizes the squared noise subject
to that equation at every point by Newton iteration on the KKT residual of
the Lagrangian. H is never formed: the hypothesis is read as its incidence's
endpoint arrays (graph_core.Incidence), which apply H, H^T and the Laplacian
H diag(y) H^T in O(e) per column. The residual, including the 2n-by-tau
complex noise solve_stls returns, is formed for all points at once in complex
arithmetic on n-by-tau arrays, with constraint_residual as the constraint;
only the Newton matrix and its step are real, in the layout
[per-point noise, real admittance parts, per-point multipliers]. That
matrix is a symmetric saddle point whose blocks are all H diag(w) or
H diag(y) H^T patterns, so its sparse pattern follows from the endpoints and
tau alone. A solve builds that pattern once, as int32 CSC index arrays with
O(tau*e) entries, and every step writes only the values into it; the
pattern is dropped when the solve returns.

The first step starts from zero multipliers, where P, the one block that is
not complex-linear, vanishes. Its step system is then complex-linear, and
eliminating the noise and the multipliers leaves the e-by-e Hermitian
Gauss-Newton matrix of variable projection on the admittances alone
(_SchurFactors): one n-by-n inverse and one e-by-e Cholesky factorization,
dense, in numpy. Each later step solves its own real matrix by iterative
refinement on those factors, since from one step to the next the matrix
moves only by the noise's order. Every step passes the same accuracy test, a
backward error of at most 1e-6 of its right-hand side against the real
matrix; a step whose refinement stalls before that drops the stale factors,
factors its own real matrix with SuperLU and keeps the new factors, so the
iterates are full Newton steps either way. It returns its least-squares warm
start's rank diagnostic and never warns. The plug-in ordinary least squares
estimator averages replicate snapshots before one plain regression;
topo_recover.choose_method decides when it replaces the structured solve.

scipy.sparse and scipy.linalg's triangular solves load on the first Newton
step and SuperLU on the first refactorization, not on import: importing scipy
costs a fresh process about 0.3 s and 30 MB of resident memory, which
noiseless runs, the CLI's help and synthesis never need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverFailureError
from .exact_estimate import (PriorTopology, UniquenessDiagnostic, _stack_adjoint,
                             require_unique, structured_least_squares)
from .graph_core import Incidence
from .synth import MeasurementSet, average_snapshots

_DAMPING_FLOOR = 1e-10
_DAMPING_CAP = 1e8
_DEFICIENT_DAMPING = 1e-6
# Every refinement sweep on kept factors must shrink the step's backward error by
# this factor, or the step system is refactored. Measured at sigma 1e-3 on the first
# step's Schur factors: on mesh14 under minus-one:1-8 (tau 12-20) one sweep shrinks it
# by 1e-3 to 2e-2, and the bound is met 2-3 sweeps after the first solve; on the
# benchmark's 123-node trees under their tree priors (seed 12301, tau 1-20) a sweep
# shrinks it by 7e-3 to 0.9 (median 0.055) over 3-8 sweeps, and 14 of the 128 solves
# stall at the second step and refactor (8 at tau 5, 2 at tau 10, 4 at tau 20; 9 of
# the first 16 trees' 64). At sigma 0.05 on tree123 (tau 10) it takes 7 sweeps of
# 0.07 to 0.35 each. At 0.5 a refinement that succeeds needs at most 20 sweeps, and
# a sweep costs 1/70 to 1/8 of a real SuperLU factorization on those inputs.
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
    step system was singular. factorizations counts the factorizations of
    step systems: 1 when every later step refined on the first step's
    factors, 0 when no step was taken. The first step's are dense Cholesky
    factorizations of its Schur complement on the admittances; a later
    step's refactorization is SuperLU's, of its real matrix.
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


def constraint_residual(inc: Incidence, v: np.ndarray, cur: np.ndarray,
                        dv: np.ndarray, di: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Equality-constraint value H((H^T(V + dV)) * y) - (I + dI) of every operating point.

    inc is the hypothesis's incidence H as endpoint arrays
    (NetworkGraph.incidence). v, cur and the noise guesses dv, di are n-by-tau
    complex arrays, one column per operating point; column k is
    voltage_coefficient(inc.matrix(), v_k + dv_k) @ y - (cur_k + di_k).
    """
    v = np.asarray(v)
    if v.ndim != 2 or v.shape[0] != inc.n or not (
            v.shape == np.shape(cur) == np.shape(dv) == np.shape(di)):
        raise ValueError(f"voltages, currents and noise must all be {inc.n}-by-tau arrays")
    return inc.scatter(inc.diff(v + dv) * y[:, np.newaxis]) - (cur + di)


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


def _join_step(ds, dy, dlam, n):
    # inverse of _split_step
    return np.concatenate([_real_layout(ds, n).ravel(), dy.real, dy.imag,
                           _real_layout(dlam, n).ravel()])


def _kkt_residual(inc, v, cur, s, y, lam):
    """Stationarity-plus-feasibility residual of the Lagrangian, and the constraint's max-norm.

    s is the 2n-by-tau complex noise (voltage rows over current rows), y the
    complex admittances, lam the n-by-tau complex multipliers. The residual is
    returned in the real layout the Newton matrix uses: every point's noise
    stationarity s + [conj(Lap) lam; -lam] (4n), then the parameter
    stationarity (real, imaginary), then every point's constraint (2n).
    """
    n = inc.n
    g = constraint_residual(inc, v, cur, s[:n], s[n:], y)
    lap = inc.laplacian(y)  # H diag(y) H^T, complex symmetric
    f_y = _stack_adjoint(inc, inc.diff(v + s[:n]), lam)
    resid = _join_step(s + np.vstack([lap.conj() @ lam, -lam]), f_y, g, n)
    return resid, float(np.abs(resid[resid.shape[0] - 2 * g.size:]).max())


# How a complex entry a of a block, at complex row r and column c, is realified: the
# real entries it stores, as (row part, column part, source part), where part 0 is a
# real part and 1 an imaginary one, and source parts 0-3 read Re S, Im S, -Re S and
# -Im S of the entry's source S
_REALIFIED = {
    "scalar": ((0, 0, 0), (1, 1, 0)),  # a = S, a real number
    "conj": ((0, 0, 0), (0, 1, 1), (1, 0, 3), (1, 1, 0)),  # a = conj(S)
    "antilinear": ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 2)),  # dz -> S conj(dz)
}


def _point_pattern(inc):
    """The stored pattern of the Newton matrix at one operating point, in CSC form.

    The blocks are listed once, over the point's complex unknowns: voltage
    noise and current noise (n each), admittances (e), multipliers (n). Their
    entries read the point's complex sources S, which are 1, -1, then b, c
    (2e each) and lap (n + 2e), as _point_sources forms them. Every block is
    realified into _newton_matrix's layout, where an unknown's imaginary part
    follows its real part by n (by e for the admittances).

    Returns indptr, the row indices and take: stored entry k holds entry take[k]
    of [Re S, Im S, -Re S, -Im S].
    """
    n, e = inc.n, inc.e
    m = 2 + 6 * e + n  # sources per point
    at_y, at_mult = 2 * n, 2 * n + e
    node = np.stack([inc.plus, inc.minus], axis=1).ravel()  # edge-major: both ends
    edge = at_y + np.repeat(np.arange(e), 2)
    nodes = np.arange(n)
    # the Laplacian's diagonal, then both off-diagonal entries of every edge
    lap_row = np.concatenate([nodes, inc.plus, inc.minus])
    lap_col = np.concatenate([nodes, inc.minus, inc.plus]) + at_mult
    src_b, src_c, src_lap = (2 + offset + np.arange(size) for offset, size in
                             ((0, 2 * e), (2 * e, 2 * e), (4 * e, n + 2 * e)))
    upper = [
        # Jy^H, with Jy = H diag(H^T(V_t + dV_t)) the constraint's derivative in y
        (edge, node + at_mult, src_b, "conj"),
        # P: conj(Lap) lam = H diag(H^T lam) conj(y) on the voltage noise only
        (node, edge, src_c, "antilinear"),
        # Js^H, with Js = [Lap, -I] the constraint's derivative in the noise
        (lap_row, lap_col, src_lap, "conj"),
        (nodes + n, nodes + at_mult, 1, "scalar"),
    ]
    # where each complex unknown's real, then imaginary part sits in the real layout:
    # [Re dV, Im dV, Re dI, Im dI], then [Re y, Im y], then [Re lam, Im lam]
    starts, widths = (0, 2 * n, 4 * n, 4 * n + 2 * e), (n, n, e, n)
    at = [np.concatenate([start + p * w + np.arange(w) for start, w in zip(starts, widths)])
          for p in (0, 1)]
    rows, cols, take = (np.concatenate(entries) for entries in zip(
        *(np.broadcast_arrays(at[pr][r], at[pc][c], k + s * m)
          for r, c, k, kind in upper for pr, pc, s in _REALIFIED[kind])))
    eye = np.arange(4 * n)  # the identity on the noise, source 0
    # the realification is symmetric: the lower blocks read the upper ones' sources
    rows, cols = np.concatenate([eye, rows, cols]), np.concatenate([eye, cols, rows])
    take = np.concatenate([np.zeros(eye.shape[0], dtype=take.dtype), take, take])
    order = np.lexsort((rows, cols))  # CSC order: column-major, rows ascending
    dim = 2 * (3 * n + e)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=dim))])
    return indptr, rows[order], take[order]


def _newton_pattern(inc, tau):
    """The stored pattern of the Newton matrix at tau points: int32 CSC indptr and row indices.

    Also returns where each stored value comes from, as three index arrays
    into the tau-by-S matrix of every point's sources (_point_pattern). They
    come from the one-point pattern: each noise and multiplier column of a
    point repeats that pattern with the point's rows, and each admittance
    column holds the noise rows of every point, then the multiplier rows of
    every point. The pattern depends on the endpoints and tau alone, so
    solve_stls builds it once per solve. Apart from the indices a matrix
    holds anyway, it keeps only O(n + e) integers.
    """
    n, e = inc.n, inc.e
    indptr1, rows1, take1 = _point_pattern(inc)
    w_noise, w_y = 4 * n, 2 * e  # one point's noise rows, then the admittances
    ns = w_noise * tau  # the noise rows; the admittances follow, then the multipliers
    t = np.arange(tau, dtype=np.int32)[:, np.newaxis]
    rows1 = rows1.astype(np.int32)

    def rows_at(r):
        # one-point rows r at every point: noise rows move by w_noise per point and
        # multiplier rows by 2n
        return r + np.where(r < w_noise, w_noise * t,
                            ns - w_noise + np.where(r < w_noise + w_y, 0, 2 * n * t))

    cuts = indptr1[[w_noise, w_noise + w_y]]
    noise_rows, y_rows, mult_rows = np.split(rows1, cuts)
    noise_take, y_take, mult_take = np.split(take1, cuts)
    # at each point an admittance column holds 4 noise rows (P), then 4 multiplier rows (Jy)
    y_rows = y_rows.reshape(w_y, 2, 1, 4)
    y_take = y_take.reshape(w_y, 2, 4)
    counts = np.diff(indptr1)
    counts = np.concatenate([np.tile(counts[:w_noise], tau), counts[w_noise:w_noise + w_y] * tau,
                             np.tile(counts[w_noise + w_y:], tau)])
    indptr = np.zeros(counts.shape[0] + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    takes = (noise_take, y_take, mult_take)
    for block, rows in zip(_by_block(indices, tau, takes), (noise_rows, y_rows, mult_rows)):
        block[...] = rows_at(rows)
    return indptr, indices, takes


def _by_block(a, tau, takes):
    # views of a stored-entry array: the noise columns (tau-by-), the admittance
    # columns (columns-by-groups-by-tau-by-rows) and the multiplier columns (tau-by-)
    noise_take, y_take, mult_take = takes
    start, stop = tau * noise_take.size, tau * (noise_take.size + y_take.size)
    columns, groups, rows = y_take.shape
    return (a[:start].reshape(tau, -1), a[start:stop].reshape(columns, groups, tau, rows),
            a[stop:].reshape(tau, -1))


def _point_sources(inc, v, s, y, lam):
    # every point's complex sources, one row per point, in _point_pattern's order
    n, tau = inc.n, v.shape[1]
    d, g = inc.diff(v + s[:n]), inc.diff(lam)
    # at each edge's two ends, + then -: sign * H^T(V + dV) and sign * H^T lam
    b = np.stack([d, -d], axis=1).reshape(-1, tau)
    c = np.stack([g, -g], axis=1).reshape(-1, tau)
    # the Laplacian's diagonal sums y over the edges at each node
    ends, twice = np.stack([inc.plus, inc.minus], axis=1).ravel(), np.repeat(y, 2)
    diag = (np.bincount(ends, twice.real, minlength=n)
            + 1j * np.bincount(ends, twice.imag, minlength=n))
    lap = np.concatenate([diag, -y, -y])[:, np.newaxis].repeat(tau, axis=1)
    return np.concatenate([np.ones((1, tau)), -np.ones((1, tau)), b, c, lap]).T


def _assemble(pattern, src):
    # the CSC matrix of pattern (_newton_pattern) whose stored entries read src, the
    # tau-by-S real sources of every point
    import scipy.sparse as sp  # deferred: numpy-only paths never pay scipy's import

    indptr, indices, takes = pattern
    data = np.empty(indices.shape[0], dtype=src.dtype)
    noise, admittance, mult = _by_block(data, src.shape[0], takes)
    noise_take, y_take, mult_take = takes
    noise[...] = src[:, noise_take]
    admittance[...] = src[:, y_take].transpose(1, 2, 0, 3)
    mult[...] = src[:, mult_take]
    dim = indptr.shape[0] - 1
    return sp.csc_matrix((data, indices, indptr), shape=(dim, dim))


def _newton_matrix(inc, v, s, y, lam, pattern=None):
    """Exact Jacobian of _kkt_residual in its real layout, as a symmetric CSC matrix.

    The matrix is [[I, P, Js], [P^T, 0, Jy^T], [Js^T, Jy, 0]]. Jy, the
    derivative of each point's constraint in y, is the realified
    H diag(H^T(V_t + dV_t)); P, that of the noise stationarity in y, has the
    same pattern in H^T lam_t on the voltage noise; Js^T, that of the
    constraint in the noise, is the realified Laplacian H diag(y) H^T beside
    -I, the same at every point. The constraint is bilinear, so the matrix is
    exact. Every column of H holds two nonzeros, the endpoints in inc, so the
    stored pattern has O(tau*e) entries and nothing dense beyond e-by-tau is
    formed. The lower blocks mirror the upper ones, so the matrix equals its
    transpose bit for bit.

    The pattern depends on the endpoints and tau alone: entries that happen to
    be zero, such as all of P at the warm start's zero multipliers, stay
    stored. pattern is _newton_pattern(inc, tau), which solve_stls builds once
    per solve in int32 so that every step shares its index arrays and writes
    only its values; None builds a fresh one.
    """
    src = _point_sources(inc, v, s, y, lam)
    pattern = _newton_pattern(inc, v.shape[1]) if pattern is None else pattern
    return _assemble(pattern, np.concatenate([src.real, src.imag, -src.real, -src.imag], axis=1))


class _SchurFactors:
    """The step system at zero multipliers, solved by its Schur complement on the admittances.

    At zero multipliers P vanishes, and the step system shifted by mu is the
    realification of a complex one. Per point t it reads

        (1 + mu) ds_t + Js^H dlam_t = r_s,t
        mu dy + sum_t Jy_t^H dlam_t = r_y
        Js ds_t + Jy_t dy + mu dlam_t = r_lam,t

    with Js = [Y, -I] the same at every point, Y = H diag(y) H^T, and
    Jy_t = H diag(d_t), d_t = H^T(v_t + dv_t). Eliminating the noise, then the
    multipliers (Benzi, Golub & Liesen, Acta Numerica 2005), leaves
    dlam_t = N^-1 (Jy_t dy - q_t) with q_t = r_lam,t - Js r_s,t / (1 + mu) and
    N = (I + Y Y^H) / (1 + mu) - mu I, one n-by-n matrix for every point, and
    the e-by-e Hermitian system G dy = r_y + sum_t Jy_t^H N^-1 q_t with
    G = (H^T N^-1 H) * (conj(D) D^T) + mu I. At mu = 0, G is the Gauss-Newton
    matrix of variable projection (Golub & Pereyra, Inverse Problems 2003), the
    Hadamard shape of exact_estimate._gram_solve's Gram.

    N^-1 is numpy's inverse and G's factor numpy's Cholesky, which raises
    LinAlgError unless G is numerically positive definite; N is positive
    definite for mu below 0.6. H^T N^-1 H is read from four gathers of N^-1 at
    the endpoints, summed so that a flipped column of H negates its row and
    column of the sum exactly: the step is the same bit for bit under any
    orientation. solve maps a right-hand side in the real KKT layout to the
    complex one and the step back. The complex system is the real one exactly,
    so refinement on these factors reads the real matrix's residual.
    """

    def __init__(self, inc, v, s, y, mu: float):
        n = inc.n
        self.inc, self.mu = inc, mu
        self.d = d = inc.diff(v + s[:n])
        self.lap = lap = inc.laplacian(y)
        shifted = lap @ lap.conj().T  # N = (I + Y Y^H) / (1 + mu) - mu I
        shifted[np.diag_indices(n)] += 1.0
        shifted /= 1.0 + mu
        shifted[np.diag_indices(n)] -= mu
        self.w = np.linalg.inv(shifted)
        # numpy factors conj(G) = L L^H, so L.T is G's upper Cholesky factor, in the
        # Fortran order LAPACK reads, as in _gram_solve
        w, p, m = self.w.conj(), inc.plus, inc.minus
        gram = w[np.ix_(p, p)]
        gram += w[np.ix_(m, m)]
        gram -= w[np.ix_(p, m)] + w[np.ix_(m, p)]
        gram *= d @ d.conj().T
        gram[np.diag_indices(inc.e)] += mu
        self.upper = np.linalg.cholesky(gram).T

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        # one right-hand side: scipy's triangular solves run on one thread (_gram_solve)
        from scipy.linalg import cho_solve

        inc, mu, w, d, lap = self.inc, self.mu, self.w, self.d, self.lap
        n = inc.n
        r_s, r_y, r_lam = _split_step(rhs, n, inc.e, d.shape[1])
        q = r_lam - (lap @ r_s[:n] - r_s[n:]) / (1.0 + mu)
        dy = cho_solve((self.upper, False), r_y + _stack_adjoint(inc, d, w @ q),
                       check_finite=False)
        dlam = w @ (inc.scatter(d * dy[:, np.newaxis]) - q)
        ds = (r_s - np.vstack([lap.conj() @ dlam, -dlam])) / (1.0 + mu)
        return _join_step(ds, dy, dlam, n)


@dataclass
class _KeptFactors:
    """What a solve keeps between Newton steps for the step solves.

    lu is None or the factors of an earlier step's shifted matrix: SuperLU's of
    a real matrix, or _SchurFactors. schur is None or, while the multipliers
    are zero, the arguments (inc, v, s, y) of the next step's _SchurFactors;
    _damped_solve factors those in place of the real matrix and drops them.
    """

    lu: object = None
    schur: tuple | None = None


def _damped_solve(matrix, rhs, mu: float, kept=None):
    """Newton step on matrix + mu*I with a backward error of at most 1e-6*||rhs||.

    kept is the solve's _KeptFactors. With factors in it, the step is found by
    iterative refinement on them (Wilkinson; Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 12), step += lu.solve(rhs - shifted @ step), for
    as long as every sweep shrinks the backward error by _REFINE_CONTRACTION.
    Only if that misses the accuracy test is the step system factored itself,
    after the stale factors leave kept, so that two sets of factors are never
    alive at once, and mu escalates until the step meets the same test. The
    new factors then go into kept. While kept holds the arguments of
    _SchurFactors, which solve_stls puts there while the multipliers are zero,
    the factors are those of its Schur complement, dense and in numpy: at the
    first step, whose factors every later step then refines on. A
    refactorization at a later step factors matrix + mu*I, which is real and
    not complex-linear, with SuperLU, which orders the symmetric saddle point
    by minimum degree on its (symmetric) pattern and prefers diagonal pivots.
    A singular or indefinite factorization (RuntimeError, LinAlgError) or a
    step that misses the test escalates mu. Escalated damping is kept for
    later iterations, since a step system singular at one iterate will almost
    surely be singular at the next. Returns the step, the damping it used and
    the number of factorizations it ran; kept=None factors afresh and keeps
    nothing.
    """
    import scipy.sparse as sp  # deferred, as in _assemble

    from ._native import factor, release_free_heap

    rhs_norm = float(np.linalg.norm(rhs))
    bound = 1e-6 * max(rhs_norm, 1e-300)
    shifted = matrix if mu == 0 else matrix + mu * sp.identity(matrix.shape[0], format="csc")
    kept = _KeptFactors() if kept is None else kept
    if kept.lu is not None:
        lu = kept.lu
        step, previous = lu.solve(rhs), rhs_norm
        while True:
            residual = rhs - shifted @ step
            backward = float(np.linalg.norm(residual))
            if backward <= bound:
                return step, mu, 0
            if not backward <= _REFINE_CONTRACTION * previous:  # stalled, or not finite
                break
            previous = backward
            step += lu.solve(residual)
        del lu
        kept.lu = None  # the stale factors go before any new ones are made
        release_free_heap()
    schur, kept.schur = kept.schur, None
    factored = 0
    while True:
        factored += 1
        lu = None  # and so do those of a failed attempt
        try:
            lu = factor(shifted) if schur is None else _SchurFactors(*schur, mu)
            step = lu.solve(rhs)
            if np.all(np.isfinite(step)) and float(np.linalg.norm(shifted @ step - rhs)) <= bound:
                kept.lu = lu
                return step, mu, factored
        except (RuntimeError, np.linalg.LinAlgError):
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
    inc = prior.graph.incidence
    n, e_hat = inc.n, inc.e
    tau = ms.tau
    v, cur = ms.voltage_matrix(), ms.current_matrix()

    y, uniqueness = structured_least_squares(ms, inc)
    # damp a rank-deficient KKT system, singular along the unidentifiable directions
    mu = 0.0 if uniqueness.unique else _DEFICIENT_DAMPING

    s = np.zeros((2 * n, tau), dtype=complex)
    lam = np.zeros((n, tau), dtype=complex)
    resid, g_norm = _kkt_residual(inc, v, cur, s, y, lam)
    r_norm = float(np.abs(resid).max())
    trace = [(0, r_norm, g_norm, 0.0)]
    best = (r_norm, 0, s.copy(), y.copy())
    it = factorizations = 0
    pattern = None  # the Newton matrix's index arrays, built at the first step
    kept = _KeptFactors()  # the step system's factors, kept for refining later steps
    while r_norm > tol and it < max_iter:
        if pattern is None:
            pattern = _newton_pattern(inc, tau)
        if not lam.any():  # P vanishes: the step system is complex-linear
            kept.schur = (inc, v, s, y)
        step, mu, factored = _damped_solve(_newton_matrix(inc, v, s, y, lam, pattern),
                                           -resid, mu, kept)
        factorizations += factored
        ds, dy, dlam = _split_step(step, n, e_hat, tau)
        s += ds
        y += dy
        lam += dlam
        it += 1
        resid, g_norm = _kkt_residual(inc, v, cur, s, y, lam)
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
    y, diag = structured_least_squares(average_snapshots(sets), prior.graph.incidence)
    require_unique(diag)
    return y
