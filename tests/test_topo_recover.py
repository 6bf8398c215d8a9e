import numpy as np
import pytest

from gridident import (AdmittanceNetwork, AlignmentError, Branch, Bus, BusSpec,
                       Coupling, InsufficientMeasurementsError, NetworkGraph,
                       NoiseSpec, PriorTopology, add_noise, complete_graph,
                       identify_phases, identify_topology, random_admittances,
                       random_tree, score_topology, synthesize_independent,
                       threshold, topology_report)


def test_threshold_zero_alpha_identity():
    y = np.array([1e-9, 2 + 1j, -0.3j])
    assert np.array_equal(threshold(y, 0.0), y)


def test_threshold_example():
    out = threshold(np.array([1e-6, 2 + 0j]), 1e-5)
    assert out.tolist() == [0j, 2 + 0j]


def test_threshold_idempotent_and_monotone():
    rng = np.random.default_rng(100)
    y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    a = threshold(y, 0.7)
    assert np.array_equal(threshold(a, 0.7), a)
    small = set(np.flatnonzero(threshold(y, 0.3) == 0))
    large = set(np.flatnonzero(threshold(y, 1.1) == 0))
    assert small <= large
    with pytest.raises(ValueError):
        threshold(y, -1.0)


def _cycle_network(n, seed):
    edges = [(k, k + 1) for k in range(1, n)] + [(1, n)]
    return random_admittances(NetworkGraph.from_edges(n, edges),
                              np.random.default_rng(seed))


def test_identify_noiseless_cycle():
    net = _cycle_network(5, 101)
    ms = synthesize_independent(net, 4, seed=102)
    est = identify_topology(PriorTopology.complete(5), 5, 1e-5, ms)
    assert set(est.edges_hat) == set(net.graph.edges)
    assert est.method == "exact"


def test_identify_tree_single_measurement():
    tree = random_tree(9, np.random.default_rng(103))
    net = random_admittances(tree, np.random.default_rng(104))
    ms = synthesize_independent(net, 1, seed=105)
    est = identify_topology(PriorTopology.tree(tree), 9, 1e-5, ms)
    assert est.edges_hat == tree.edges


def test_identify_requires_enough_measurements():
    net = _cycle_network(6, 106)
    ms = synthesize_independent(net, 3, seed=107)
    with pytest.raises(InsufficientMeasurementsError):
        identify_topology(PriorTopology.complete(6), 6, 1e-5, ms)


def test_identify_noisy_relative_threshold():
    rng = np.random.default_rng(108)
    from gridident import random_connected_graph
    net = random_admittances(random_connected_graph(8, rng, 0.7), rng)
    ms = add_noise(synthesize_independent(net, 7, seed=109), NoiseSpec(0.001), seed=110)
    est = identify_topology(PriorTopology.complete(8), 8, 0.01, ms,
                            relative_threshold=True)
    assert est.method == "stls"
    score = score_topology(est, net)
    assert score.f1 >= 0.95


def test_score_exact_match():
    net = _cycle_network(5, 111)
    ms = synthesize_independent(net, 4, seed=112)
    est = identify_topology(PriorTopology.complete(5), 5, 1e-5, ms)
    score = score_topology(est, net)
    assert score.precision == score.recall == score.f1 == 1.0
    assert score.admittance_total_abs_error < 1e-10
    assert score.conductance_abs_error < 1e-10


def test_score_spurious_edge_counting():
    truth = _cycle_network(5, 113)
    hyp = complete_graph(5)
    y_hat = np.zeros(hyp.e, dtype=complex)
    idx = hyp.edge_index()
    for edge, y in zip(truth.graph.edges, truth.y):
        y_hat[idx[edge]] = y
    y_hat[idx[(1, 3)]] = 0.5 + 0.5j  # one invented edge
    from gridident import TopologyEstimate
    edges_hat = tuple(e for e, v in zip(hyp.edges, y_hat) if v != 0)
    est = TopologyEstimate(y_hat=y_hat, hypothesis=hyp, edges_hat=edges_hat,
                           graph_hat=NetworkGraph(5, edges_hat), alpha=0.0,
                           tau=4, prior_kind="none", method="exact")
    score = score_topology(est, truth)
    assert score.true_positives == 5 and score.false_positives == 1
    assert score.precision == pytest.approx(5 / 6)
    assert score.recall == 1.0
    assert score.admittance_total_abs_error == pytest.approx(abs(0.5 + 0.5j))


def test_score_node_mismatch():
    truth = _cycle_network(5, 114)
    other = _cycle_network(6, 115)
    ms = synthesize_independent(other, 5, seed=116)
    est = identify_topology(PriorTopology.complete(6), 6, 1e-5, ms)
    with pytest.raises(AlignmentError):
        score_topology(est, truth)


def test_error_zero_iff_equal_on_union():
    net = _cycle_network(6, 117)
    ms = synthesize_independent(net, 5, seed=118)
    est = identify_topology(PriorTopology.complete(6), 6, 1e-5, ms)
    score = score_topology(est, net)
    est_map = dict(zip(est.hypothesis.edges, est.y_hat))
    true_map = dict(zip(net.graph.edges, net.y))
    union = set(est_map) | set(true_map)
    exact_equal = all(est_map.get(e, 0j) == true_map.get(e, 0j) for e in union)
    assert (score.admittance_total_abs_error == 0) == exact_equal


def _lateral_spec(rng, bus3_phases):
    def y():
        return complex(rng.uniform(0.5, 2.0), rng.uniform(-2.0, -0.5))
    return BusSpec(
        (Bus("b1", "abc"), Bus("b2", "abc"), Bus("b3", bus3_phases)),
        (Branch("b1", "b2", tuple(Coupling(p, p, y()) for p in "abc")),
         Branch("b2", "b3", tuple(Coupling(p, p, y()) for p in bus3_phases))))


def _builder(sigma, seed):
    def build(true_net):
        ms = synthesize_independent(true_net, 6, seed=[seed, 0])
        if sigma > 0:
            ms = add_noise(ms, NoiseSpec(sigma), seed=[seed, 1])
        return ms
    return build


def test_identify_phases_two_phase_lateral():
    rng = np.random.default_rng(119)
    spec = _lateral_spec(rng, "bc")
    result = identify_phases(spec, "b3", _builder(0.001, 120))
    assert result.connected == frozenset({"b", "c"})
    assert result.incident_magnitude["a"] < result.estimate.alpha


def test_identify_phases_all_three():
    rng = np.random.default_rng(121)
    spec = _lateral_spec(rng, "abc")
    result = identify_phases(spec, "b3", _builder(0.001, 122))
    assert result.connected == frozenset({"a", "b", "c"})


def test_identify_phases_single_phase():
    rng = np.random.default_rng(123)
    spec = _lateral_spec(rng, "a")
    result = identify_phases(spec, "b3", _builder(0.0, 124))
    assert result.connected == frozenset({"a"})


def test_identify_phases_never_drops_strong_phase_noiseless():
    for seed in range(5):
        rng = np.random.default_rng([125, seed])
        spec = _lateral_spec(rng, "bc")
        result = identify_phases(spec, "b3", _builder(0.0, seed))
        alpha = result.estimate.alpha
        for p in "bc":
            assert result.incident_magnitude[p] > 10 * alpha
            assert p in result.connected


def test_identify_phases_validation():
    rng = np.random.default_rng(126)
    spec = _lateral_spec(rng, "bc")
    with pytest.raises(ValueError):
        identify_phases(spec, "nope", _builder(0.0, 1))
    lonely = BusSpec((Bus("b1", "a"), Bus("b2", "a")),
                     (Branch("b1", "b2", (Coupling("a", "a", 1 - 1j),)),))
    with pytest.raises(ValueError):
        identify_phases(lonely, "b2", _builder(0.0, 1))


def test_topology_report_shape():
    net = _cycle_network(5, 127)
    ms = synthesize_independent(net, 4, seed=128)
    est = identify_topology(PriorTopology.complete(5), 5, 1e-5, ms)
    report = topology_report(est, score_topology(est, net))
    assert {e["i"] for e in report["edges"]} <= set(range(1, 6))
    assert len(report["edges"]) == 5
    assert report["prior"] == "none" and report["tau"] == 4
    assert report["score"]["f1"] == 1.0


def test_choose_method_table():
    from gridident import choose_method
    clean = synthesize_independent(_cycle_network(5, 117), 4, seed=118)
    noisy = add_noise(clean, NoiseSpec(0.001), seed=119)
    small = PriorTopology.complete(5)
    edges = complete_graph(36).edges
    at_cap = PriorTopology.explicit(NetworkGraph(36, edges[:600]))
    over_cap = PriorTopology.explicit(NetworkGraph(36, edges[:601]))
    for method in ("exact", "stls", "plugin"):
        assert choose_method(method, noisy, over_cap) == method
        assert choose_method(method, clean, small) == method
    assert choose_method("auto", clean, small) == "exact"
    assert choose_method("auto", clean, over_cap) == "exact"
    assert choose_method("auto", noisy, small) == "stls"
    assert choose_method("auto", noisy, at_cap) == "stls"
    assert choose_method("auto", noisy, over_cap) == "plugin"
    with pytest.raises(ValueError):
        choose_method("fastest", noisy, small)
