import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridident import (AdmittanceNetwork, HeuristicBoundWarning, NetworkGraph,
                       NonUniqueError, OutOfRegimeError, PriorTopology,
                       build_reduced_measurements, complete_graph,
                       estimate_reduced, estimate_vector_ls, incidence_matrix,
                       matrix_from_vector, min_measurements, random_admittances,
                       random_connected_graph, random_tree, reconstruct_full,
                       reduce_slack, stack_coefficients, symmetry_deviation,
                       synthesize, synthesize_independent, uniqueness_diagnostic,
                       voltage_coefficient)


def test_prior_validation():
    with pytest.raises(ValueError):
        PriorTopology("none", NetworkGraph(3, ((1, 2),)))
    with pytest.raises(ValueError):
        PriorTopology("tree", complete_graph(4))
    with pytest.raises(ValueError):
        PriorTopology("minus_one_edge", complete_graph(4))
    assert PriorTopology.complete(4).graph.e == 6
    assert PriorTopology.minus_one(5, (2, 3)).graph.e == 9
    assert PriorTopology.tree(random_tree(6, np.random.default_rng(0))).kind == "tree"


def test_min_measurements_table():
    assert min_measurements(PriorTopology.complete(32), 32) == 31
    tree = PriorTopology.tree(random_tree(123, np.random.default_rng(1)))
    assert min_measurements(tree, 123) == 1
    assert min_measurements(PriorTopology.minus_one(14, (1, 2)), 14) == 12


def test_min_measurements_out_of_regime():
    prior = PriorTopology("minus_one_edge",
                          NetworkGraph(3, ((1, 2), (1, 3))))
    with pytest.raises(OutOfRegimeError):
        min_measurements(prior, 3)


def test_min_measurements_explicit_is_heuristic():
    g = NetworkGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)])
    prior = PriorTopology.explicit(g)
    with pytest.warns(HeuristicBoundWarning):
        bound = min_measurements(prior, 5)
    assert bound == 2  # ceil(6 / 5)


def test_build_reduced_flat_profile_is_zero():
    from gridident import MeasurementSet, OperatingPoint
    v = (1.0 + 0.5j) * np.ones(4)
    pts = tuple(OperatingPoint(v, np.zeros(4, dtype=complex), k) for k in (1, 2))
    ms = MeasurementSet(pts)
    vbar, ibar = build_reduced_measurements(ms, v1_slack=1.0 + 0.5j)
    assert np.abs(vbar).max() == 0
    assert vbar.shape == (3, 2)


def test_build_reduced_shapes():
    net = random_admittances(complete_graph(32), np.random.default_rng(2))
    ms = synthesize(net, 31, seed=4)
    vbar, ibar = build_reduced_measurements(ms)
    assert vbar.shape == ibar.shape == (31, 31)


def test_build_reduced_consistency_with_truth():
    net = random_admittances(complete_graph(6), np.random.default_rng(3))
    ms = synthesize(net, 7, seed=5)
    vbar, ibar = build_reduced_measurements(ms)
    ybar = reduce_slack(matrix_from_vector(net))
    assert np.linalg.norm(ybar @ vbar - ibar) <= 1e-10 * np.linalg.norm(ibar)


def test_estimate_reduced_scalar_case():
    # two nodes, one measurement: V = (1, 0.5), slack voltage 1, admittance 4
    vbar = np.array([[0.5 - 1.0]])
    ibar = np.array([[-2.0]])
    assert np.allclose(estimate_reduced(vbar, ibar), [[4.0]])


def test_estimate_reduced_recovery_and_overdetermined():
    rng = np.random.default_rng(6)
    net = random_admittances(random_connected_graph(6, rng, 0.6), rng)
    truth = reduce_slack(matrix_from_vector(net))
    for tau in (5, 8):
        ms = synthesize(net, tau, seed=[7, tau])
        ybar = estimate_reduced(*build_reduced_measurements(ms))
        assert np.linalg.norm(ybar - truth) <= 1e-9 * np.linalg.norm(truth)
        assert symmetry_deviation(ybar) < 1e-9


def test_estimate_reduced_below_threshold():
    net = random_admittances(complete_graph(6), np.random.default_rng(8))
    ms = synthesize(net, 4, seed=9)
    with pytest.raises(NonUniqueError) as err:
        estimate_reduced(*build_reduced_measurements(ms))
    assert err.value.diagnostic.deficiency >= 1


def test_estimate_reduced_rank_deficient_columns():
    rng = np.random.default_rng(10)
    vbar = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    vbar[:, 4] = vbar[:, 0]  # duplicate operating point
    vbar[:, 3] = vbar[:, 1]
    vbar[:, 2] = vbar[:, 0] + vbar[:, 1]
    ibar = rng.standard_normal((4, 5)) + 0j
    with pytest.raises(NonUniqueError):
        estimate_reduced(vbar, ibar)


def test_vector_ls_tree_single_measurement():
    path = NetworkGraph(3, ((1, 2), (2, 3)))
    net = random_admittances(path, np.random.default_rng(11))
    ms = synthesize_independent(net, 1, seed=12)
    a, i = stack_coefficients(ms, incidence_matrix(path))
    y = estimate_vector_ls(a, i)
    assert np.allclose(y, net.y, rtol=1e-10)


def test_vector_ls_minus_one_threshold():
    n = 5
    prior = PriorTopology.minus_one(n, (1, 4))
    net = random_admittances(prior.graph, np.random.default_rng(13))
    ms = synthesize_independent(net, 3, seed=14)
    a, i = stack_coefficients(ms, incidence_matrix(prior.graph))
    assert np.allclose(estimate_vector_ls(a, i), net.y, rtol=1e-8)
    short = synthesize_independent(net, 2, seed=14)
    a2, _ = stack_coefficients(short, incidence_matrix(prior.graph))
    diag = uniqueness_diagnostic(a2, prior.graph.e)
    assert diag.deficiency == 2


def test_vector_ls_raises_with_diagnostic():
    net = random_admittances(complete_graph(6), np.random.default_rng(15))
    ms = synthesize_independent(net, 3, seed=16)
    a, i = stack_coefficients(ms, incidence_matrix(net.graph))
    with pytest.raises(NonUniqueError) as err:
        estimate_vector_ls(a, i)
    assert err.value.diagnostic.rank < net.graph.e


def test_uniqueness_empty_and_tree():
    assert uniqueness_diagnostic(np.zeros((0, 5)), 5).rank == 0
    tree = random_tree(9, np.random.default_rng(17))
    net = random_admittances(tree, np.random.default_rng(18))
    ms = synthesize_independent(net, 1, seed=19)
    a, _ = stack_coefficients(ms, incidence_matrix(tree))
    diag = uniqueness_diagnostic(a, tree.e)
    assert diag.rank == 8 and diag.unique


def test_rank_monotone_in_measurements():
    net = random_admittances(complete_graph(6), np.random.default_rng(20))
    h = incidence_matrix(net.graph)
    ms = synthesize_independent(net, 6, seed=21)
    ranks = []
    for tau in range(1, 7):
        a = np.vstack([voltage_coefficient(h, p.V) for p in ms.points[:tau]])
        ranks.append(uniqueness_diagnostic(a, net.graph.e).rank)
    assert all(b >= a for a, b in zip(ranks, ranks[1:]))


def test_reduced_and_vector_paths_agree():
    rng = np.random.default_rng(22)
    n = 7
    net = random_admittances(random_connected_graph(n, rng, 0.5), rng)
    prior = PriorTopology.complete(n)
    ms = synthesize_independent(net, n - 1, seed=23)
    ybar = estimate_reduced(*build_reduced_measurements(ms))
    full_from_reduced = reconstruct_full(ybar)
    a, i = stack_coefficients(ms, incidence_matrix(prior.graph))
    y = estimate_vector_ls(a, i)
    full_from_vector = matrix_from_vector(AdmittanceNetwork(prior.graph, y))
    diff = np.linalg.norm(full_from_reduced - full_from_vector)
    assert diff <= 1e-8 * np.linalg.norm(full_from_vector)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(4, 9), kind=st.sampled_from(("complete", "minus_one", "tree")),
       profile=st.sampled_from(("independent", "flat")), tau_frac=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**16))
def test_solve_rank_matches_numerical_rank(n, kind, profile, tau_frac, seed):
    """The rank the exact solve reports is numerical_rank's, deficient stacks included."""
    from gridident import least_squares, numerical_rank
    rng = np.random.default_rng(seed)
    prior = {"complete": lambda: PriorTopology.complete(n),
             "minus_one": lambda: PriorTopology.minus_one(n, (1, 2)),
             "tree": lambda: PriorTopology.tree(random_tree(n, rng))}[kind]()
    net = random_admittances(prior.graph, rng)
    tau = 1 + round(tau_frac * (n - 1))
    make = synthesize_independent if profile == "independent" else synthesize
    a, i = stack_coefficients(make(net, tau, seed=seed), incidence_matrix(prior.graph))
    _, diag = least_squares(a, i)
    assert diag.unknowns == prior.graph.e
    assert diag.rank == numerical_rank(a)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(4, 9), kind=st.sampled_from(("complete", "minus_one", "tree")),
       profile=st.sampled_from(("independent", "flat")), tau_frac=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**16))
def test_structured_solve_matches_stacked_lstsq(n, kind, profile, tau_frac, seed):
    """The Gram path reports lstsq's rank and, at full rank, lstsq's solution."""
    from gridident import least_squares, structured_least_squares
    rng = np.random.default_rng(seed)
    prior = {"complete": lambda: PriorTopology.complete(n),
             "minus_one": lambda: PriorTopology.minus_one(n, (1, 2)),
             "tree": lambda: PriorTopology.tree(random_tree(n, rng))}[kind]()
    net = random_admittances(prior.graph, rng)
    tau = 1 + round(tau_frac * (n - 1))
    make = synthesize_independent if profile == "independent" else synthesize
    ms = make(net, tau, seed=seed)
    h = incidence_matrix(prior.graph)
    y, diag = structured_least_squares(ms, h)
    y_ls, diag_ls = least_squares(*stack_coefficients(ms, h))
    assert (diag.rank, diag.unknowns) == (diag_ls.rank, diag_ls.unknowns)
    if diag.unique:
        np.testing.assert_allclose(y, y_ls, rtol=1e-9)


def test_structured_solve_never_builds_well_conditioned_stack(monkeypatch):
    from gridident import exact_estimate, structured_least_squares, synth

    def refuse(*args, **kwargs):
        raise AssertionError("the dense coefficient stack was built")

    # exact_estimate binds the name at import, so both references are replaced
    monkeypatch.setattr(synth, "stack_coefficients", refuse)
    monkeypatch.setattr(exact_estimate, "stack_coefficients", refuse)
    n = 8
    rng = np.random.default_rng(310)
    net = random_admittances(random_connected_graph(n, rng, 0.5), rng)
    ms = synthesize_independent(net, n - 1, seed=311)
    h = incidence_matrix(complete_graph(n))
    y, diag = structured_least_squares(ms, h)
    assert diag.unique and diag.gram_rcond >= 1e-10
    truth = dict(zip(net.graph.edges, net.y))
    expected = np.array([truth.get(edge, 0j) for edge in complete_graph(n).edges])
    assert np.allclose(y, expected, rtol=0, atol=1e-8)


def test_structured_solve_below_threshold_is_minimum_norm():
    from gridident import least_squares, structured_least_squares
    n = 6
    net = random_admittances(complete_graph(n), np.random.default_rng(312))
    ms = synthesize_independent(net, n - 3, seed=313)
    h = incidence_matrix(complete_graph(n))
    y, diag = structured_least_squares(ms, h)
    y_ls, diag_ls = least_squares(*stack_coefficients(ms, h))
    assert not diag.unique and diag.gram_rcond is None
    assert diag == diag_ls
    assert np.array_equal(y, y_ls)
