import pathlib
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from gridident import (Incidence, NoiseSpec, PriorTopology, add_noise, complete_graph,
                       constraint_residual, estimate_vector_ls, incidence_matrix,
                       least_squares, plug_in_ols, random_admittances, solve_stls,
                       stack_coefficients, synthesize, synthesize_independent,
                       voltage_coefficient)
from gridident.stls import (_KeptFactors, _SchurFactors, _damped_solve, _kkt_residual,
                            _newton_matrix, _split_step)


def _network(n, seed):
    return random_admittances(complete_graph(n), np.random.default_rng(seed))


def _jy(inc, v, dv):
    """Each point's 2n-by-2e constraint-by-y block of the Newton matrix at voltage noise dv.

    Rows hold the real then imaginary parts of the point's constraint, columns
    the real then imaginary admittance parts; the state's y and multipliers
    do not enter it.
    """
    n, e = inc.n, inc.e
    tau = v.shape[1]
    y = np.ones(e, dtype=complex)
    s = np.vstack([dv, np.zeros_like(dv)])
    k = _newton_matrix(inc, v, s, y, np.ones((n, tau), dtype=complex))
    ns = tau * 4 * n
    jy = k[ns + 2 * e:, ns:ns + 2 * e].toarray()
    return jy.reshape(tau, 2 * n, 2 * e)


def test_realify_block_structure():
    net = _network(4, 50)
    ms = synthesize_independent(net, 3, seed=51)
    inc = net.graph.incidence
    v = ms.voltage_matrix()
    a = _jy(inc, v, 0.01 * v[::-1])
    n, e = 4, 6
    assert a.shape == (3, 2 * n, 2 * e)
    top_left = a[:, :n, :e]
    assert np.array_equal(top_left, a[:, n:, e:])
    assert np.array_equal(a[:, :n, e:], -a[:, n:, :e])
    for k in range(3):  # each point's block depends on that point alone
        assert np.array_equal(a[k], _jy(inc, v[:, k:k + 1], 0.01 * v[::-1, k:k + 1])[0])


def test_realify_real_input_reduces_to_real_arithmetic():
    net = _network(3, 52)
    h = incidence_matrix(net.graph)
    v = np.array([[1.0], [2.0], [-0.5]]) + 0j
    a = _jy(net.graph.incidence, v, np.zeros_like(v))[0]
    assert np.abs(a[:3, 3:]).max() == 0  # no imaginary coupling
    assert np.array_equal(a[:3, :3], voltage_coefficient(h, v[:, 0]).real)


def test_realified_product_matches_complex_product():
    """Every point's block times [Re y; Im y] is its realified H diag(H^T(v + dv)) y."""
    rng = np.random.default_rng(53)
    net = _network(5, 54)
    h = incidence_matrix(net.graph)
    y = rng.standard_normal(net.graph.e) + 1j * rng.standard_normal(net.graph.e)
    y2 = np.concatenate([y.real, y.imag])
    for tau in (1, 4):
        vs = rng.standard_normal((5, tau)) + 1j * rng.standard_normal((5, tau))
        dvs = 0.01 * (rng.standard_normal((5, tau)) + 1j * rng.standard_normal((5, tau)))
        batched = _jy(net.graph.incidence, vs, dvs)
        for k in range(tau):
            expected = voltage_coefficient(h, vs[:, k] + dvs[:, k]) @ y
            assert np.abs(batched[k] @ y2
                          - np.concatenate([expected.real, expected.imag])).max() <= 1e-12
    # the block is zero wherever H is zero, which on a tree is most entries
    from gridident import random_tree
    tree = random_tree(7, rng)
    vs = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    off_pattern = np.tile(incidence_matrix(tree) == 0, (2, 2))
    assert np.all(_jy(tree.incidence, vs, np.zeros_like(vs))[:, off_pattern] == 0)


def test_realify_zero_voltage():
    net = _network(3, 55)
    for tau in (1, 2):
        v = np.zeros((3, tau), dtype=complex)
        assert np.abs(_jy(net.graph.incidence, v, v)).max() == 0


def _flipped(inc, signs):
    """inc with the columns at negative signs negated: their plus and minus ends swapped."""
    flip = signs < 0
    return Incidence(inc.n, np.where(flip, inc.minus, inc.plus),
                     np.where(flip, inc.plus, inc.minus))


def _no_noise(ms):
    return np.zeros((ms.n, ms.tau), dtype=complex)


def test_constraint_residual_zero_at_exact_solution():
    net = _network(4, 56)
    ms = synthesize_independent(net, 3, seed=57)
    g = constraint_residual(net.graph.incidence, ms.voltage_matrix(), ms.current_matrix(),
                            _no_noise(ms), _no_noise(ms), net.y)
    assert g.shape == (4, 3)
    assert np.abs(g).max() <= 1e-10


def test_constraint_residual_zero_parameters():
    net = _network(4, 58)
    ms = synthesize_independent(net, 3, seed=59)
    g = constraint_residual(net.graph.incidence, ms.voltage_matrix(), ms.current_matrix(),
                            _no_noise(ms), _no_noise(ms), np.zeros(net.graph.e, dtype=complex))
    assert np.array_equal(g, -ms.current_matrix())


def test_constraint_residual_matches_complex_recomputation():
    rng = np.random.default_rng(60)
    net = _network(4, 61)
    n, e, tau = 4, net.graph.e, 2
    h = incidence_matrix(net.graph)
    ms = synthesize_independent(net, tau, seed=62)
    s = rng.standard_normal((4 * n, tau)) * 0.01
    dv = s[:n] + 1j * s[n:2 * n]
    di = s[2 * n:3 * n] + 1j * s[3 * n:]
    y = rng.standard_normal(e) + 1j * rng.standard_normal(e)
    g = constraint_residual(net.graph.incidence, ms.voltage_matrix(), ms.current_matrix(),
                            dv, di, y)
    # independent per-point recomputation of the noisy equation
    for k, (v_k, cur_k) in enumerate(ms.points):
        lhs = voltage_coefficient(h, v_k + dv[:, k]) @ y - (cur_k + di[:, k])
        assert np.abs(g[:, k] - lhs).max() <= 1e-12


def test_noise_blocks_length_check():
    net = _network(3, 63)
    inc = net.graph.incidence
    ms = synthesize_independent(net, 2, seed=63)
    v, cur, y = ms.voltage_matrix(), ms.current_matrix(), net.y
    ok = _no_noise(ms)
    for dv, di in ((np.zeros((5, 2)), ok), (ok, np.zeros(3)), (ok, np.zeros((3, 3)))):
        with pytest.raises(ValueError):
            constraint_residual(inc, v, cur, dv, di, y)
    with pytest.raises(ValueError):  # one point given as a vector, not an n-by-1 array
        constraint_residual(inc, v[:, 0], cur[:, 0], ok[:, 0], ok[:, 0], y)
    with pytest.raises(ValueError):  # incidence over a different node count
        constraint_residual(complete_graph(4).incidence, v, cur, ok, ok, np.zeros(6))


def _kkt_state(kind, seed):
    """A random noisy problem and a random solver state (s, y, lam) for it."""
    from gridident import random_tree
    rng = np.random.default_rng(seed)
    n, tau = 6, 4
    prior = {"complete": lambda: PriorTopology.complete(n),
             "tree": lambda: PriorTopology.tree(random_tree(n, rng)),
             "minus_one": lambda: PriorTopology.minus_one(n, (2, 5))}[kind]()
    net = random_admittances(prior.graph, rng)
    ms = add_noise(synthesize_independent(net, tau, seed=seed), NoiseSpec(0.001), seed=seed)
    inc = prior.graph.incidence

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    state = (0.01 * cplx(2 * n, tau), net.y + 0.1 * cplx(prior.graph.e), cplx(n, tau))
    return inc, ms.voltage_matrix(), ms.current_matrix(), state, rng


@pytest.mark.parametrize("kind, seed", [("complete", 94), ("tree", 95), ("minus_one", 96)])
def test_newton_matrix_is_the_residual_jacobian(kind, seed):
    """The KKT residual is quadratic in (s, y, lam), so central differences are exact."""
    inc, v, cur, (s, y, lam), rng = _kkt_state(kind, seed)
    n, e = inc.n, inc.e
    tau = v.shape[1]
    k = _newton_matrix(inc, v, s, y, lam)
    assert k.shape == (tau * 6 * n + 2 * e,) * 2
    eps = 1e-3
    for _ in range(3):
        delta = rng.standard_normal(k.shape[0])
        ds, dy, dlam = _split_step(eps * delta, n, e, tau)
        r_plus = _kkt_residual(inc, v, cur, s + ds, y + dy, lam + dlam)[0]
        r_minus = _kkt_residual(inc, v, cur, s - ds, y - dy, lam - dlam)[0]
        expected = k @ delta
        assert np.abs((r_plus - r_minus) / (2 * eps) - expected).max() <= \
            1e-9 * np.abs(expected).max()


@pytest.mark.parametrize("kind, seed", [("complete", 94), ("tree", 95), ("minus_one", 96)])
def test_newton_matrix_is_symmetric_on_a_fixed_pattern(kind, seed):
    """The symmetric ordering of the step solve relies on K == K^T entry for entry.

    The warm start's zero noise and multipliers leave the stored pattern as it is.
    """
    inc, v, _, (s, y, lam), _ = _kkt_state(kind, seed)
    k = _newton_matrix(inc, v, s, y, lam)
    assert (k - k.T).count_nonzero() == 0
    k0 = _newton_matrix(inc, v, np.zeros_like(s), y, np.zeros_like(lam))
    assert np.array_equal(k0.indptr, k.indptr) and np.array_equal(k0.indices, k.indices)


def test_newton_matrix_assembly_memory_is_linear_in_the_edges():
    """tree123 at tau = 20: a dense tau*2n-by-2e intermediate alone would take 9.6 MB."""
    from gridident import load_network
    net = load_network(pathlib.Path(__file__).resolve().parents[1] / "networks" / "tree123.json")
    ms = add_noise(synthesize_independent(net, 20, seed=100), NoiseSpec(0.001), seed=101)
    inc = net.graph.incidence
    n, tau = inc.n, ms.tau
    rng = np.random.default_rng(102)
    s = 1e-3 * (rng.standard_normal((2 * n, tau)) + 1j * rng.standard_normal((2 * n, tau)))
    lam = rng.standard_normal((n, tau)) + 1j * rng.standard_normal((n, tau))
    v = ms.voltage_matrix()
    tracemalloc.start()
    try:
        k = _newton_matrix(inc, v, s, net.y, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k.shape == (tau * 6 * n + 2 * net.graph.e,) * 2
    assert peak < 16e6


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 7), tau=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_constraint_residual_is_the_per_point_equation(n, tau, seed):
    """Every column is that point's noisy regression residual, whatever the edge orientations."""
    from gridident import random_connected_graph
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(n, rng, 0.5)
    inc, h = graph.incidence, incidence_matrix(graph)
    e = graph.e

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    v, cur, dv, di, y = cplx(n, tau), cplx(n, tau), cplx(n, tau), cplx(n, tau), cplx(e)
    g = constraint_residual(inc, v, cur, dv, di, y)
    for k in range(tau):
        expected = voltage_coefficient(h, v[:, k] + dv[:, k]) @ y - (cur[:, k] + di[:, k])
        assert np.allclose(g[:, k], expected, rtol=1e-12, atol=1e-12)
    flipped = _flipped(inc, rng.choice([-1.0, 1.0], size=e))
    assert np.allclose(constraint_residual(flipped, v, cur, dv, di, y), g,
                       rtol=1e-12, atol=1e-12)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(n=st.integers(3, 7), tau=st.integers(1, 4), complete=st.booleans(),
       seed=st.integers(0, 2**16))
def test_edge_orientation_does_not_change_the_estimate(n, tau, complete, seed):
    """Flipping incidence columns leaves both solvers' outputs unchanged bit for bit.

    Every product with a flipped column flips twice, so both the Cholesky path
    and the lstsq fallback (complete priors below n-1 points) see the same numbers.
    """
    from gridident import random_connected_graph, structured_least_squares
    rng = np.random.default_rng(seed)
    net = random_admittances(random_connected_graph(n, rng, 0.5), rng)
    prior = PriorTopology.complete(n) if complete else PriorTopology.explicit(net.graph)
    ms = add_noise(synthesize(net, tau, [seed, 1]), NoiseSpec(1e-3), [seed, 2])
    inc = prior.graph.incidence
    flipped = _flipped(inc, rng.choice([-1.0, 1.0], size=prior.graph.e))
    v, cur = ms.voltage_matrix(), ms.current_matrix()

    y, diag = structured_least_squares(ms, inc)
    y_f, diag_f = structured_least_squares(ms, flipped)
    assert np.array_equal(y, y_f) and diag == diag_f
    dv, di = 1e-3 * v[::-1], 1e-3 * cur[::-1]
    assert np.array_equal(constraint_residual(inc, v, cur, dv, di, y),
                          constraint_residual(flipped, v, cur, dv, di, y))
    sol = solve_stls(ms, prior)
    with pytest.MonkeyPatch.context() as mp:
        # the graph keeps its incidence in its instance dict, where solve_stls reads it
        mp.setitem(vars(prior.graph), "incidence", flipped)
        sol_f = solve_stls(ms, prior)
    assert np.array_equal(sol.y, sol_f.y)
    assert (sol.converged, sol.uniqueness) == (sol_f.converged, sol_f.uniqueness)


@pytest.mark.parametrize("prior_kind", ["complete", "tree", "minus_one"])
def test_zero_noise_degeneracy(prior_kind):
    from gridident import random_tree
    n = 6
    rng = np.random.default_rng(64)
    if prior_kind == "complete":
        prior = PriorTopology.complete(n)
    elif prior_kind == "tree":
        prior = PriorTopology.tree(random_tree(n, rng))
    else:
        prior = PriorTopology.minus_one(n, (2, 5))
    net = random_admittances(prior.graph, rng)
    from gridident import min_measurements
    ms = synthesize_independent(net, min_measurements(prior, n), seed=65)
    sol = solve_stls(ms, prior)
    a, i = stack_coefficients(ms, incidence_matrix(prior.graph))
    y_exact = estimate_vector_ls(a, i)
    assert sol.converged
    assert np.linalg.norm(sol.y - y_exact) <= 1e-6 * np.linalg.norm(y_exact)
    scale = np.linalg.norm(np.concatenate([ms.voltage_matrix().ravel(),
                                           ms.current_matrix().ravel()]))
    assert np.linalg.norm(sol.s) <= 1e-6 * scale


def test_tol_must_be_positive():
    n = 4
    prior = PriorTopology.complete(n)
    ms = synthesize_independent(_network(n, 69), n - 1, seed=70)
    for tol in (0.0, -1e-5, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_stls(ms, prior, tol=tol)


def test_max_iter_must_be_nonnegative():
    n = 4
    prior = PriorTopology.complete(n)
    ms = synthesize_independent(_network(n, 69), n - 1, seed=70)
    with pytest.raises(ValueError, match="max_iter must be nonnegative"):
        solve_stls(ms, prior, max_iter=-1)


def _noisy_input(network, tau, sigma=0.001, seed=98):
    """Noisy measurements of a network file (mesh14 under its minus-one:1-8 prior, tree123
    under its tree prior, cycle5 under its own graph), of a random complete network
    ("complete6") under the complete prior, or of a random 123-node tree under its tree prior."""
    from gridident import load_network, random_tree
    if network.startswith("complete"):
        n = int(network.removeprefix("complete"))
        net, prior = _network(n, 97), PriorTopology.complete(n)
    elif network == "random-tree":
        rng = np.random.default_rng([seed, 123])
        net = random_admittances(random_tree(123, rng), rng)
        prior = PriorTopology.tree(net.graph)
    else:
        net = load_network(pathlib.Path(__file__).resolve().parents[1] / "networks"
                           / f"{network}.json")
        if network == "tree123":
            prior = PriorTopology.tree(net.graph)
        elif network == "cycle5":
            prior = PriorTopology.explicit(net.graph)
        else:
            prior = PriorTopology.minus_one(net.graph.n, (1, 8))
    ms = add_noise(synthesize_independent(net, tau, seed=seed), NoiseSpec(sigma), seed=seed + 1)
    return ms, prior


@pytest.mark.parametrize("network, tau", [("mesh14", 12), ("tree123", 1), ("tree123", 5),
                                          ("complete6", 5), ("complete6", 2)])
def test_returned_noise_is_the_minimal_noise_for_the_returned_y(network, tau):
    """For fixed y the noise enters linearly: dI = K and dV = -conj(Y) K.

    Here K = (I + Y Y^H)^-1 (Y V - I) with Y = H diag(y) H^T, and the objective
    is half the sum of Re(r^H K) over the points' residuals r = Y V - I.
    """
    ms, prior = _noisy_input(network, tau)
    sol = solve_stls(ms, prior, tol=1e-11)
    h = incidence_matrix(prior.graph)
    n = h.shape[0]
    lap = (h * sol.y) @ h.T
    r = lap @ ms.voltage_matrix() - ms.current_matrix()
    k = np.linalg.solve(np.eye(n) + lap @ lap.conj().T, r)
    scale = np.abs(sol.s).max()
    assert np.abs(sol.s[n:] - k).max() <= 1e-8 * scale
    assert np.abs(sol.s[:n] + lap.conj() @ k).max() <= 1e-8 * scale
    projected = 0.5 * float(np.sum((r.conj() * k).real))
    assert abs(sol.objective - projected) <= 1e-10 * projected
    # only the rank-deficient complete6 at tau 2 needs a shifted step system
    assert (sol.damping == 0.0) == sol.uniqueness.unique


@pytest.mark.parametrize("network, tau", [("mesh14", 12), ("mesh14", 16), ("mesh14", 20),
                                          ("tree123", 5), ("tree123", 20)])
def test_well_conditioned_solve_factors_once(monkeypatch, network, tau):
    """The first step's factors are its Schur complement's, and the second step refines on them.

    Neither step calls splu.
    """
    import scipy.sparse.linalg as sla
    ms, prior = _noisy_input(network, tau)
    calls, splu = [], sla.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    # _damped_solve imports splu from the module each time it runs
    monkeypatch.setattr(sla, "splu", counting)
    sol = solve_stls(ms, prior)
    assert sol.converged
    assert (sol.factorizations, len(sol.trace) - 1, len(calls)) == (1, 2, 0)


def test_newton_steps_share_one_int32_pattern(monkeypatch):
    """The Newton matrix's index arrays are built once per solve; each step writes values only."""
    from gridident import stls
    ms, prior = _noisy_input("mesh14", 16)
    matrices, damped_solve = [], stls._damped_solve

    def recording(matrix, rhs, mu, lu=None):
        matrices.append(matrix)
        return damped_solve(matrix, rhs, mu, lu)

    monkeypatch.setattr(stls, "_damped_solve", recording)
    sol = solve_stls(ms, prior)
    assert sol.converged and len(sol.trace) - 1 == len(matrices) == 2
    first, second = matrices
    for name in ("indices", "indptr"):
        a, b = getattr(first, name), getattr(second, name)
        assert a.dtype == b.dtype == np.int32
        assert np.shares_memory(a, b), name
    assert not np.shares_memory(first.data, second.data)


@pytest.mark.parametrize("network, tau, sigma, seed, fallback", [
    *[("mesh14", tau, 0.001, seed, False) for tau in (12, 16, 20) for seed in (98, 1, 2)],
    *[("tree123", tau, 0.001, 98, False) for tau in (1, 2, 5, 10, 20)],
    *[("random-tree", 5, 0.001, seed, False) for seed in (1, 2)],
    *[(f"complete{n}", tau, 0.001, 98, False) for n in (6, 8, 10) for tau in (n - 1, 2)
      if (n, tau) != (6, 2)],
    # rank-deficient, so damped from the first step; on complete6 the second step's
    # refinement stalls and refactors
    ("complete6", 2, 0.001, 98, True),
    ("cycle5", 1, 0.001, 98, False),
    ("tree123", 10, 0.05, 98, False),
    ("tree123", 2, 0.01, 98, True),  # refinement stalls at a later step, which refactors
    ("mesh14", 12, 0.05, 98, True),
])
def test_refining_on_kept_factors_matches_refactoring_every_step(monkeypatch, network, tau,
                                                                  sigma, seed, fallback):
    """The reference is the same solver with its kept factors discarded before every step."""
    from gridident import stls
    ms, prior = _noisy_input(network, tau, sigma, seed)
    damped_solve = stls._damped_solve
    factorizations = []
    for tol, rtol in ((1e-5, 1e-8), (1e-11, 1e-10)):
        sol = solve_stls(ms, prior, tol=tol)
        with monkeypatch.context() as m:
            m.setattr(stls, "_damped_solve",
                      lambda matrix, rhs, mu, lu=None: damped_solve(matrix, rhs, mu))
            ref = solve_stls(ms, prior, tol=tol)
        steps = len(ref.trace) - 1
        assert ref.factorizations == steps >= 1
        assert (sol.converged, len(sol.trace), sol.damping, sol.uniqueness) == \
            (ref.converged, len(ref.trace), ref.damping, ref.uniqueness)
        assert np.abs(sol.y - ref.y).max() <= rtol * np.abs(ref.y).max()
        assert 1 <= sol.factorizations <= steps
        factorizations.append(sol.factorizations)
    assert (max(factorizations) > 1) == fallback, factorizations


def _part_indices(n, e, tau):
    """Where each complex unknown's real and imaginary parts sit in the real KKT layout.

    The complex unknowns are ordered every point's noise, the admittances,
    then every point's multipliers, as _split_step returns them.
    """
    ds, dy, dlam = _split_step(np.arange(tau * 6 * n + 2 * e, dtype=float), n, e, tau)
    z = np.concatenate([ds.T.ravel(), dy, dlam.T.ravel()])
    return z.real.astype(int), z.imag.astype(int)


@pytest.mark.parametrize("network, tau", [("mesh14", 12), ("tree123", 5), ("complete6", 2)])
def test_first_newton_matrix_realifies_a_hermitian_matrix(network, tau):
    """At the warm start's zero multipliers the Newton matrix is complex-linear.

    Its real-real and imaginary-imaginary blocks are equal and its
    real-imaginary block is the negated imaginary-real block, so it realifies
    the complex matrix B_rr + i B_ir, which is Hermitian; P makes it
    antilinear at nonzero multipliers. The step from that complex system's
    Schur complement solves the real step system as accurately as the real
    factorization's step.
    """
    import scipy.sparse as sp
    from gridident import structured_least_squares
    ms, prior = _noisy_input(network, tau)
    inc = prior.graph.incidence
    n, e = inc.n, inc.e
    v = ms.voltage_matrix()
    y, diag = structured_least_squares(ms, inc)
    mu = 0.0 if diag.unique else 1e-6  # complete6 at tau 2 is rank-deficient
    assert (mu > 0) == (network == "complete6")
    s, lam = np.zeros((2 * n, tau), dtype=complex), np.zeros((n, tau), dtype=complex)
    re, im = _part_indices(n, e, tau)

    def blocks(k):
        return [k[rows][:, cols] for rows in (re, im) for cols in (re, im)]

    k = _newton_matrix(inc, v, s, y, lam)
    rr, ri, ir, ii = blocks(k)
    assert (rr - ii).count_nonzero() == 0 and (ri + ir).count_nonzero() == 0
    a = rr + 1j * ir
    assert a.shape == (tau * 3 * n + e,) * 2 and (a - a.conj().T).count_nonzero() == 0

    rng = np.random.default_rng(103)
    lam = rng.standard_normal(lam.shape) + 1j * rng.standard_normal(lam.shape)
    rr, ri, ir, ii = blocks(_newton_matrix(inc, v, s, y, lam))
    assert (rr - ii).count_nonzero() > 0 and (ri + ir).count_nonzero() > 0

    lam = np.zeros_like(lam)
    rhs = -_kkt_residual(inc, v, ms.current_matrix(), s, y, lam)[0]
    real_step, real_mu, _ = _damped_solve(k, rhs, mu)
    kept = _KeptFactors(schur=(inc, v, s, y))
    step, step_mu, factored = _damped_solve(k, rhs, mu, kept)
    assert (step_mu, factored, kept.schur) == (real_mu, 1, None)
    assert isinstance(kept.lu, _SchurFactors)
    # both solve the real step system to rounding; how far apart that leaves the steps
    # depends on its conditioning
    shifted = k + mu * sp.identity(k.shape[0], format="csc")
    for x in (step, real_step):
        assert np.linalg.norm(shifted @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)


def _warm_start_step_system(ms, prior, mu):
    """The shifted real Newton matrix at the warm start, its right-hand side and Schur step."""
    import scipy.sparse as sp
    from gridident import structured_least_squares
    inc = prior.graph.incidence
    n, tau = inc.n, ms.tau
    v, cur = ms.voltage_matrix(), ms.current_matrix()
    y = structured_least_squares(ms, inc)[0]
    s, lam = np.zeros((2 * n, tau), dtype=complex), np.zeros((n, tau), dtype=complex)
    rhs = -_kkt_residual(inc, v, cur, s, y, lam)[0]
    k = _newton_matrix(inc, v, s, y, lam) + mu * sp.identity(tau * 6 * n + 2 * inc.e)
    return k, rhs, _SchurFactors(inc, v, s, y, mu).solve(rhs)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(4, 12), kind=st.sampled_from(["complete", "tree", "minus_one", "explicit"]),
       tau_pick=st.integers(0, 2**16), mu=st.sampled_from([0.0, 1e-6, 1e-2]),
       seed=st.integers(0, 2**16))
def test_schur_step_solves_the_first_step_system(n, kind, tau_pick, mu, seed):
    """The Schur step meets a 1e-12 backward error in the real step system plus mu*I.

    tau runs from min_measurements to n-1, and from 2 under the complete prior,
    where below n-1 points the system is rank-deficient and solve_stls always
    damps it. Flipping incidence columns leaves the step unchanged bit for bit.
    """
    from gridident import (min_measurements, random_connected_graph, random_tree,
                           structured_least_squares)
    rng = np.random.default_rng(seed)
    if kind == "complete":
        prior = PriorTopology.complete(n)
    elif kind == "tree":
        prior = PriorTopology.tree(random_tree(n, rng))
    elif kind == "minus_one":
        prior = PriorTopology.minus_one(n, tuple(sorted(rng.choice(n, 2, replace=False) + 1)))
    else:
        prior = PriorTopology.explicit(random_connected_graph(n, rng, 0.5))
    low = 2 if kind == "complete" else min_measurements(prior, n)
    tau = low + tau_pick % (n - low)
    net = random_admittances(prior.graph, rng)
    ms = add_noise(synthesize_independent(net, tau, seed=seed), NoiseSpec(1e-3), seed=seed + 1)
    if mu == 0 and not structured_least_squares(ms, prior.graph.incidence)[1].unique:
        mu = 1e-6  # G is singular without a shift, which solve_stls always puts on it
    k, rhs, step = _warm_start_step_system(ms, prior, mu)
    assert np.linalg.norm(k @ step - rhs) <= 1e-12 * np.linalg.norm(rhs)
    inc = prior.graph.incidence
    flipped = _flipped(inc, rng.choice([-1.0, 1.0], size=inc.e))
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(vars(prior.graph), "incidence", flipped)
        assert np.array_equal(_warm_start_step_system(ms, prior, mu)[2], step)


def test_failed_schur_cholesky_escalates_the_damping(monkeypatch):
    """A first-step Cholesky that fails as indefinite escalates mu and factors again.

    The second Schur factorization, at the damping floor, gives the step, and
    the later step refines on it: no SuperLU factorization runs.
    """
    import scipy.sparse.linalg as sla
    from gridident import stls
    mus, schur, cholesky = [], stls._SchurFactors, np.linalg.cholesky

    def indefinite_first(matrix):
        if len(mus) == 1:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return cholesky(matrix)

    def recording(inc, v, s, y, mu):
        mus.append(mu)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "cholesky", indefinite_first)
            return schur(inc, v, s, y, mu)

    def no_splu(*args, **kwargs):
        raise AssertionError("splu ran")

    monkeypatch.setattr(stls, "_SchurFactors", recording)
    monkeypatch.setattr(sla, "splu", no_splu)
    ms, prior = _noisy_input("mesh14", 12)
    sol = solve_stls(ms, prior)
    assert mus == [0.0, stls._DAMPING_FLOOR]
    assert sol.converged and sol.damping == stls._DAMPING_FLOOR and sol.factorizations == 2


def test_noisy_solve_converges_and_improves():
    n = 7
    prior = PriorTopology.complete(n)
    net = _network(n, 71)
    ms = add_noise(synthesize_independent(net, n - 1, seed=72), NoiseSpec(0.001), seed=73)
    sol = solve_stls(ms, prior)
    assert sol.converged and sol.kkt_residual <= 1e-5
    a, i = stack_coefficients(ms, incidence_matrix(prior.graph))
    y_ls = least_squares(a, i)[0]
    err_stls = np.sum(np.abs(sol.y - net.y))
    err_ls = np.sum(np.abs(y_ls - net.y))
    assert err_stls <= err_ls * 1.2  # structured solve should not lose to plain LS


def test_solver_determinism():
    n = 5
    prior = PriorTopology.complete(n)
    net = _network(n, 74)
    ms = add_noise(synthesize_independent(net, n - 1, seed=75), NoiseSpec(0.001), seed=76)
    a = solve_stls(ms, prior)
    b = solve_stls(ms, prior)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.s, b.s)
    assert a.trace == b.trace


def test_residual_never_worse_than_initial():
    n = 6
    prior = PriorTopology.complete(n)
    net = _network(n, 77)
    ms = add_noise(synthesize_independent(net, n - 1, seed=78), NoiseSpec(0.001), seed=79)
    sol = solve_stls(ms, prior, max_iter=1)
    assert sol.kkt_residual <= sol.trace[0][1]


def test_non_convergence_is_flagged():
    n = 5
    prior = PriorTopology.complete(n)
    net = _network(n, 80)
    ms = add_noise(synthesize_independent(net, n - 1, seed=81), NoiseSpec(0.001), seed=82)
    sol = solve_stls(ms, prior, max_iter=0)
    assert not sol.converged
    assert sol.kkt_residual > 1e-5


def test_iterations_names_the_returned_iterate():
    """A non-converging solve returns its best iterate and reports that iterate's index."""
    from gridident import random_connected_graph
    rng = np.random.default_rng([12, 1])
    net = random_admittances(random_connected_graph(7, rng, 0.4), rng)
    ms = add_noise(synthesize(net, 3, [1, 3]), NoiseSpec(1e-2), [1, 9])
    sol = solve_stls(ms, PriorTopology.complete(7))
    assert not sol.converged and len(sol.trace) == 51  # every one of max_iter steps ran
    assert sol.iterations == 1
    assert sol.trace[sol.iterations][1] == sol.kkt_residual == min(row[1] for row in sol.trace)


def test_rank_deficient_warns():
    n = 6
    prior = PriorTopology.complete(n)
    net = _network(n, 86)
    ms = add_noise(synthesize_independent(net, 2, seed=87), NoiseSpec(0.001), seed=88)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_stls(ms, prior)
    assert sol.uniqueness.rank < sol.uniqueness.unknowns == prior.graph.e
    assert np.all(np.isfinite(sol.y))
    assert sol.damping > 0


def test_plug_in_single_noiseless_equals_exact():
    n = 6
    prior = PriorTopology.complete(n)
    net = _network(n, 89)
    ms = synthesize_independent(net, n - 1, seed=90)
    y = plug_in_ols([ms], prior)
    a, i = stack_coefficients(ms, incidence_matrix(prior.graph))
    assert np.allclose(y, estimate_vector_ls(a, i), rtol=1e-12)


def test_plug_in_is_fast_where_structured_solve_is_not():
    n = 40
    prior = PriorTopology.complete(n)
    net = _network(n, 91)
    ms = synthesize_independent(net, n - 1, seed=92)
    spec = NoiseSpec(0.001)
    reps = [add_noise(ms, spec, seed=[93, r]) for r in range(4)]
    t0 = time.perf_counter()
    plug_in_ols(reps, prior)
    t_plugin = time.perf_counter() - t0
    t0 = time.perf_counter()
    solve_stls(reps[0], prior, max_iter=1)
    t_one_newton_step = time.perf_counter() - t0
    assert t_plugin < t_one_newton_step
