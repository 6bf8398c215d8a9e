import numpy as np
import pytest

from gridident import (Framework, NetworkGraph, complete_graph, incidence_matrix,
                       numerical_rank, random_connected_graph, random_tree,
                       remove_edge, rigidity_matrix, stack_to_rigidity_permutation,
                       voltage_coefficient)


def test_complete_graph_triangle():
    g = complete_graph(3)
    assert g.edges == ((1, 2), (1, 3), (2, 3))
    assert g.e == 3


def test_complete_graph_smallest():
    g = complete_graph(2)
    assert g.edges == ((1, 2),)
    assert g.e == 1


def test_complete_graph_32_unknown_count():
    assert complete_graph(32).e == 496


def test_complete_graph_rejects_single_node():
    with pytest.raises(ValueError):
        complete_graph(1)


def test_graph_validation():
    with pytest.raises(ValueError):
        NetworkGraph(3, ((1, 1),))
    with pytest.raises(ValueError):
        NetworkGraph(3, ((2, 1),))
    with pytest.raises(ValueError):
        NetworkGraph(3, ((1, 3), (1, 2)))  # not canonical order
    with pytest.raises(ValueError):
        NetworkGraph.from_edges(3, [(1, 2), (2, 1)])  # duplicate
    with pytest.raises(ValueError):
        NetworkGraph.from_edges(3, [(2, 2)])


def test_remove_edge_counts():
    g = remove_edge(complete_graph(4), (1, 4))
    assert g.e == 5
    # brute count of remaining pairs for n=14
    g14 = remove_edge(complete_graph(14), (3, 7))
    assert g14.e == len([(i, j) for i in range(1, 15) for j in range(i + 1, 15)
                         if (i, j) != (3, 7)])
    assert g14.e == 90


def test_remove_edge_twice_fails():
    g = remove_edge(complete_graph(4), (1, 2))
    with pytest.raises(KeyError):
        remove_edge(g, (1, 2))


def test_incidence_two_nodes():
    h = incidence_matrix(complete_graph(2))
    assert h.tolist() == [[1.0], [-1.0]]


def test_incidence_path_rank():
    path = NetworkGraph(3, ((1, 2), (2, 3)))
    assert np.linalg.matrix_rank(incidence_matrix(path)) == 2


def test_incidence_k4_rank():
    h = incidence_matrix(complete_graph(4))
    assert h.shape == (4, 6)
    assert numerical_rank(h) == np.linalg.matrix_rank(h) == 3


def test_incidence_column_structure():
    rng = np.random.default_rng(1)
    for n in (3, 6, 9):
        g = random_connected_graph(n, rng, 0.4)
        h = incidence_matrix(g)
        assert np.all(h.sum(axis=0) == 0)
        assert np.all(np.count_nonzero(h, axis=0) == 2)


@pytest.mark.parametrize("graph", [complete_graph(6), NetworkGraph(4, ()),
                                   random_connected_graph(9, np.random.default_rng(3), 0.3)])
def test_incidence_endpoints_apply_the_dense_matrix(graph):
    """diff, scatter and laplacian are H^T x, H x and H diag(y) H^T, in any orientation.

    scatter sums each node's terms in edge order, so flipping a column changes no bit.
    """
    from gridident import Incidence
    rng = np.random.default_rng(graph.e)
    inc, h = graph.incidence, incidence_matrix(graph)
    assert graph.incidence is inc and np.array_equal(inc.matrix(), h)
    x = rng.standard_normal((graph.n, 3)) + 1j * rng.standard_normal((graph.n, 3))
    z = rng.standard_normal((graph.e, 3)) + 1j * rng.standard_normal((graph.e, 3))
    y = z[:, 0]
    assert np.array_equal(inc.diff(x), h.T @ x)
    for arg in (z, z.real, y):
        np.testing.assert_allclose(inc.scatter(arg), h @ arg, rtol=0, atol=1e-14)
    np.testing.assert_allclose(inc.laplacian(y), (h * y) @ h.T, rtol=0, atol=1e-14)
    flip = rng.random(graph.e) < 0.5
    flipped = Incidence(graph.n, np.where(flip, inc.minus, inc.plus),
                        np.where(flip, inc.plus, inc.minus))
    assert np.array_equal(flipped.scatter(np.where(flip, -1, 1)[:, None] * z), inc.scatter(z))
    assert np.array_equal(flipped.laplacian(y), inc.laplacian(y))
    with pytest.raises(ValueError):
        Incidence(3, [0, 1], [1, 1])


def test_tree_incidence_rank_is_n_minus_1():
    rng = np.random.default_rng(2)
    for n in (2, 5, 17, 40):
        tree = random_tree(n, rng)
        assert np.linalg.matrix_rank(incidence_matrix(tree)) == n - 1


def test_rigidity_single_edge_one_dim():
    fw = Framework(complete_graph(2), np.array([[0.0], [5.0]]))
    assert rigidity_matrix(fw).tolist() == [[-5.0, 5.0]]


def test_rigidity_k4_generic_rank():
    rng = np.random.default_rng(3)
    fw = Framework(complete_graph(4), rng.standard_normal((4, 2)))
    r = rigidity_matrix(fw)
    assert numerical_rank(r) == np.linalg.matrix_rank(r) == 4 * 2 - 3


def test_rigidity_collinear_is_deficient():
    # all nodes on a line in two dimensions: a non-generic realization
    x = np.column_stack([np.arange(4.0), 2.0 * np.arange(4.0)])
    r = rigidity_matrix(Framework(complete_graph(4), x))
    assert numerical_rank(r) < 2 * 4 - 3


def test_framework_shape_validation():
    with pytest.raises(ValueError):
        Framework(complete_graph(3), np.zeros((2, 2)))


@pytest.mark.parametrize("tau,count", [(1, 1), (2, 3), (12, 78)])
def test_trivial_motion_count(tau, count):
    """A generic complete framework on n > tau nodes moves only rigidly: tau(tau+1)/2 ways."""
    rng = np.random.default_rng(tau)
    n = tau + 2
    x = rng.standard_normal((n, tau)) + 1j * rng.standard_normal((n, tau))
    assert n * tau - numerical_rank(rigidity_matrix(Framework(complete_graph(n), x))) == count


def test_predicted_rank_svd_cross_check():
    rng = np.random.default_rng(4)
    g = remove_edge(complete_graph(14), (2, 9))
    x = rng.standard_normal((14, 12)) + 1j * rng.standard_normal((14, 12))
    assert numerical_rank(rigidity_matrix(Framework(g, x))) == 90


def test_minus_one_rank_formula_regime():
    """The closed-form rank holds up to tau = n-2; beyond, the row count caps it."""
    rng = np.random.default_rng(5)
    for n in (4, 6, 8):
        g = remove_edge(complete_graph(n), (1, 2))
        for tau in range(1, n + 1):
            x = rng.standard_normal((n, tau)) + 1j * rng.standard_normal((n, tau))
            rank = numerical_rank(rigidity_matrix(Framework(g, x)))
            if tau <= n - 2:
                assert rank == n * tau - tau * (tau + 1) // 2
            else:
                assert rank == g.e


def test_numerical_rank_basics():
    assert numerical_rank(np.eye(3)) == 3
    rng = np.random.default_rng(6)
    u, v = rng.standard_normal(5), rng.standard_normal(7)
    assert numerical_rank(np.outer(u, v)) == 1
    assert numerical_rank(np.zeros((2, 2))) == 0
    with pytest.raises(ValueError):
        numerical_rank(np.zeros((0, 3)))


def test_numerical_rank_invariances():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 9)) @ rng.standard_normal((9, 9))
    base = numerical_rank(m)
    perm_r = rng.permutation(6)
    perm_c = rng.permutation(9)
    assert numerical_rank(m[perm_r][:, perm_c]) == base
    assert numerical_rank((1.7e-3 + 0.4j) * m) == base


def test_permutation_identity_small():
    assert stack_to_rigidity_permutation(1, 1).tolist() == [0]
    # positions (1,2,3,4) -> (1,3,2,4), derived by enumerating the index rule
    assert stack_to_rigidity_permutation(2, 2).tolist() == [0, 2, 1, 3]


def test_permutation_matches_rigidity_elementwise():
    rng = np.random.default_rng(8)
    n, tau = 4, 2
    g = remove_edge(complete_graph(n), (2, 4))
    x = rng.standard_normal((n, tau)) + 1j * rng.standard_normal((n, tau))
    h = incidence_matrix(g)
    a = np.vstack([voltage_coefficient(h, x[:, k]) for k in range(tau)])
    r = rigidity_matrix(Framework(g, x))
    perm = stack_to_rigidity_permutation(n, tau)
    assert np.abs(a.T[:, perm] - r).max() <= 1e-12
    assert numerical_rank(a.T) == numerical_rank(r)
