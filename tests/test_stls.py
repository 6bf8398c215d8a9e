import pathlib
import time
import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from gridident import (NoiseSpec, PriorTopology, add_noise, complete_graph,
                       constraint_residual, estimate_vector_ls, incidence_matrix,
                       plug_in_ols, random_admittances, realified_coefficient,
                       save_trace, solve_stls, stack_coefficients, synthesize,
                       synthesize_independent, voltage_coefficient)
from gridident.stls import _kkt_residual, _newton_matrix, _split_step


def _network(n, seed):
    return random_admittances(complete_graph(n), np.random.default_rng(seed))


def test_realify_block_structure():
    net = _network(4, 50)
    ms = synthesize_independent(net, 3, seed=51)
    h = incidence_matrix(net.graph)
    v = ms.voltage_matrix()
    a = realified_coefficient(h, v.real, v.imag)
    n, e = 4, 6
    assert a.shape == (2 * n, 2 * e, 3)
    top_left = a[:n, :e]
    assert np.array_equal(top_left, a[n:, e:])
    assert np.array_equal(a[:n, e:], -a[n:, :e])
    for k in range(3):  # the trailing axis holds each point's own expansion
        assert np.array_equal(a[..., k], realified_coefficient(h, v[:, k].real, v[:, k].imag))


def test_realify_real_input_reduces_to_real_arithmetic():
    net = _network(3, 52)
    h = incidence_matrix(net.graph)
    v = np.array([1.0, 2.0, -0.5]) + 0j
    a = realified_coefficient(h, v.real, v.imag)
    assert np.abs(a[:3, 3:]).max() == 0  # no imaginary coupling
    assert np.array_equal(a[:3, :3], voltage_coefficient(h, v).real)


def test_realified_product_matches_complex_product():
    rng = np.random.default_rng(53)
    net = _network(5, 54)
    h = incidence_matrix(net.graph)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    y = rng.standard_normal(net.graph.e) + 1j * rng.standard_normal(net.graph.e)
    y2 = np.concatenate([y.real, y.imag])
    a = realified_coefficient(h, v.real, v.imag)
    expected = voltage_coefficient(h, v) @ y
    assert np.abs(a @ y2 - np.concatenate([expected.real, expected.imag])).max() <= 1e-12
    vs = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    batched = realified_coefficient(h, vs.real, vs.imag)
    for k in range(4):
        expected = voltage_coefficient(h, vs[:, k]) @ y
        assert np.abs(batched[..., k] @ y2
                      - np.concatenate([expected.real, expected.imag])).max() <= 1e-12


def test_realify_zero_voltage():
    net = _network(3, 55)
    h = incidence_matrix(net.graph)
    assert np.abs(realified_coefficient(h, np.zeros(3), np.zeros(3))).max() == 0
    assert np.abs(realified_coefficient(h, np.zeros((3, 2)), np.zeros((3, 2)))).max() == 0


def _no_noise(ms):
    return np.zeros((ms.n, ms.tau), dtype=complex)


def test_constraint_residual_zero_at_exact_solution():
    net = _network(4, 56)
    ms = synthesize_independent(net, 3, seed=57)
    h = incidence_matrix(net.graph)
    g = constraint_residual(h, ms.voltage_matrix(), ms.current_matrix(),
                            _no_noise(ms), _no_noise(ms), net.y)
    assert g.shape == (4, 3)
    assert np.abs(g).max() <= 1e-10


def test_constraint_residual_zero_parameters():
    net = _network(4, 58)
    ms = synthesize_independent(net, 3, seed=59)
    h = incidence_matrix(net.graph)
    g = constraint_residual(h, ms.voltage_matrix(), ms.current_matrix(),
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
    g = constraint_residual(h, ms.voltage_matrix(), ms.current_matrix(), dv, di, y)
    # independent per-point recomputation of the noisy equation
    for k, point in enumerate(ms.points):
        lhs = voltage_coefficient(h, point.V + dv[:, k]) @ y - (point.I + di[:, k])
        assert np.abs(g[:, k] - lhs).max() <= 1e-12


def test_noise_blocks_length_check():
    net = _network(3, 63)
    h = incidence_matrix(net.graph)
    ms = synthesize_independent(net, 2, seed=63)
    v, cur, y = ms.voltage_matrix(), ms.current_matrix(), net.y
    ok = _no_noise(ms)
    for dv, di in ((np.zeros((5, 2)), ok), (ok, np.zeros(3)), (ok, np.zeros((3, 3)))):
        with pytest.raises(ValueError):
            constraint_residual(h, v, cur, dv, di, y)
    with pytest.raises(ValueError):  # one point given as a vector, not an n-by-1 array
        constraint_residual(h, v[:, 0], cur[:, 0], ok[:, 0], ok[:, 0], y)
    with pytest.raises(ValueError):  # incidence matrix over a different node count
        constraint_residual(incidence_matrix(complete_graph(4)), v, cur, ok, ok, np.zeros(6))


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
    h = incidence_matrix(prior.graph)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    state = (0.01 * cplx(2 * n, tau), net.y + 0.1 * cplx(prior.graph.e), cplx(n, tau))
    return h, ms.voltage_matrix(), ms.current_matrix(), state, rng


@pytest.mark.parametrize("kind, seed", [("complete", 94), ("tree", 95), ("minus_one", 96)])
def test_newton_matrix_is_the_residual_jacobian(kind, seed):
    """The KKT residual is quadratic in (s, y, lam), so central differences are exact."""
    h, v, cur, (s, y, lam), rng = _kkt_state(kind, seed)
    n, e = h.shape
    tau = v.shape[1]
    k = _newton_matrix(h, v, s, y, lam)
    assert k.shape == (tau * 6 * n + 2 * e,) * 2
    eps = 1e-3
    for _ in range(3):
        delta = rng.standard_normal(k.shape[0])
        ds, dy, dlam = _split_step(eps * delta, n, e, tau)
        r_plus = _kkt_residual(h, v, cur, s + ds, y + dy, lam + dlam)[0]
        r_minus = _kkt_residual(h, v, cur, s - ds, y - dy, lam - dlam)[0]
        expected = k @ delta
        assert np.abs((r_plus - r_minus) / (2 * eps) - expected).max() <= \
            1e-9 * np.abs(expected).max()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 7), tau=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_constraint_residual_is_the_per_point_equation(n, tau, seed):
    """Every column is that point's noisy regression residual, whatever the edge orientations."""
    from gridident import random_connected_graph
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(n, rng, 0.5)
    h = incidence_matrix(graph)
    e = graph.e

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    v, cur, dv, di, y = cplx(n, tau), cplx(n, tau), cplx(n, tau), cplx(n, tau), cplx(e)
    g = constraint_residual(h, v, cur, dv, di, y)
    for k in range(tau):
        expected = voltage_coefficient(h, v[:, k] + dv[:, k]) @ y - (cur[:, k] + di[:, k])
        assert np.allclose(g[:, k], expected, rtol=1e-12, atol=1e-12)
    flipped = h * rng.choice([-1.0, 1.0], size=e)
    assert np.allclose(constraint_residual(flipped, v, cur, dv, di, y), g,
                       rtol=1e-12, atol=1e-12)


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


def _closed_form_input(network, tau):
    """Noisy measurements of a network file (mesh14 under its minus-one:1-8 prior, tree123
    under its tree prior) or of a random complete6 network under the complete prior."""
    from gridident import load_network
    if network == "complete6":
        net, prior = _network(6, 97), PriorTopology.complete(6)
    else:
        net = load_network(pathlib.Path(__file__).resolve().parents[1] / "networks"
                           / f"{network}.json")
        prior = (PriorTopology.tree(net.graph) if network == "tree123"
                 else PriorTopology.minus_one(net.graph.n, (1, 8)))
    ms = add_noise(synthesize_independent(net, tau, seed=98), NoiseSpec(0.001), seed=99)
    return ms, prior


@pytest.mark.parametrize("network, tau", [("mesh14", 12), ("tree123", 1), ("tree123", 5),
                                          ("complete6", 5), ("complete6", 2)])
def test_returned_noise_is_the_minimal_noise_for_the_returned_y(network, tau):
    """For fixed y the noise enters linearly: dI = K and dV = -conj(Y) K.

    Here K = (I + Y Y^H)^-1 (Y V - I) with Y = H diag(y) H^T, and the objective
    is half the sum of Re(r^H K) over the points' residuals r = Y V - I.
    """
    ms, prior = _closed_form_input(network, tau)
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


def test_noisy_solve_converges_and_improves():
    n = 7
    prior = PriorTopology.complete(n)
    net = _network(n, 71)
    ms = add_noise(synthesize_independent(net, n - 1, seed=72), NoiseSpec(0.001), seed=73)
    sol = solve_stls(ms, prior)
    assert sol.converged and sol.kkt_residual <= 1e-5
    a, i = stack_coefficients(ms, incidence_matrix(prior.graph))
    from gridident import minimum_norm_vector
    y_ls = minimum_norm_vector(a, i)
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


def test_trace_file(tmp_path):
    n = 4
    prior = PriorTopology.complete(n)
    net = _network(n, 83)
    ms = add_noise(synthesize_independent(net, n - 1, seed=84), NoiseSpec(0.001), seed=85)
    sol = solve_stls(ms, prior)
    path = tmp_path / "trace.csv"
    save_trace(sol, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,kkt_residual,constraint_norm,step_norm"
    assert len(lines) == len(sol.trace) + 1


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
