import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridident import (AdmittanceNetwork, AlignmentError, Branch, Bus, BusSpec,
                       Coupling, InsufficientMeasurementsError,
                       MeasurementSet, NetworkGraph, NoiseSpec, NonUniqueError,
                       PriorTopology, add_noise, complete_graph,
                       estimate_topology, identify_phases, identify_topology,
                       load_network, random_admittances, random_connected_graph,
                       random_tree, score_topology, synthesize, synthesize_independent,
                       threshold, topology_report)
from gridident import topo_recover

CYCLE5 = pathlib.Path(__file__).resolve().parents[1] / "networks" / "cycle5.json"


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


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -1.0])
def test_threshold_rejects_non_finite_or_negative_alpha(alpha):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        threshold(np.array([1e-6, 2 + 0j]), alpha)


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
    est = TopologyEstimate(y_hat=y_hat, hypothesis=hyp, edges_hat=edges_hat, alpha=0.0,
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
    reference = [{"i": i, "j": j, "y": [float(val.real), float(val.imag)]}
                 for (i, j), val in zip(est.hypothesis.edges, est.y_hat) if val != 0]
    assert json.dumps(report["edges"]) == json.dumps(reference)
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


def test_solver_outcome_names_the_exact_solve():
    from gridident import estimate_topology
    from gridident.topo_recover import solver_outcome
    net = _cycle_network(5, 129)
    prior = PriorTopology.complete(5)
    well_posed = solver_outcome(estimate_topology(
        prior, 1e-5, synthesize_independent(net, 4, seed=130)))
    assert (well_posed["rank"], well_posed["unknowns"]) == (10, 10)
    assert 1e-10 <= well_posed["gram_rcond"] <= 1
    assert well_posed["steps"] is None and well_posed["damping"] is None
    assert well_posed["factorizations"] is None
    deficient = solver_outcome(estimate_topology(
        prior, 1e-5, synthesize_independent(net, 2, seed=131)))
    assert deficient["rank"] < deficient["unknowns"] == 10
    assert deficient["gram_rcond"] is None
    noisy = add_noise(synthesize_independent(net, 4, seed=132), NoiseSpec(0.001), seed=133)
    stls = solver_outcome(identify_topology(prior, 5, 0.01, noisy, relative_threshold=True))
    assert stls["method"] == "stls"
    assert stls["rank"] == stls["unknowns"] == 10
    assert stls["gram_rcond"] >= 1e-10


def test_solver_outcome_reports_newton_steps_and_damping():
    """Full rank: undamped steps. One noisy point under cycle5's own graph is rank-deficient.

    Either way every later step refines on the first step's factors.
    """
    from gridident import estimate_topology
    from gridident.topo_recover import solver_outcome
    net = _cycle_network(5, 134)
    prior = PriorTopology.explicit(net.graph)
    for tau, unique in ((4, True), (1, False)):
        noisy = add_noise(synthesize_independent(net, tau, seed=135), NoiseSpec(0.001), seed=136)
        est = estimate_topology(prior, 0.01, noisy, relative_threshold=True)
        outcome = solver_outcome(est)
        assert outcome["method"] == "stls" and outcome["converged"] is True
        assert (outcome["rank"] == outcome["unknowns"]) == unique
        assert outcome["steps"] == len(est.solver.trace) - 1 >= 1
        assert outcome["factorizations"] == est.solver.factorizations == 1
        assert outcome["damping"] == est.solver.damping
        assert (outcome["damping"] == 0.0) == unique


@pytest.mark.parametrize("name", ["tree123.json", "feeder13_expanded.json"])
def test_complete_prior_recovers_paper_scale_networks(monkeypatch, name):
    """The paper's headline case at 32 and 123 nodes: no prior, tau = n-1 clean points.

    Under the complete hypothesis the e-by-e Gram (e = 7503 for tree123, about
    0.9 GB) and the dense stack are both refused; one (n-1)-by-(n-1) solve does it.
    """
    from gridident import exact_estimate, synth

    def refuse(*args, **kwargs):
        raise AssertionError("the e-by-e Gram or the dense coefficient stack was built")

    monkeypatch.setattr(exact_estimate, "_gram_solve", refuse)
    monkeypatch.setattr(exact_estimate, "stack_coefficients", refuse)
    monkeypatch.setattr(synth, "stack_coefficients", refuse)
    net = load_network(CYCLE5.parent / name)
    n = net.graph.n
    est = identify_topology(PriorTopology.complete(n), n, None,
                            synthesize_independent(net, n - 1, seed=n))
    assert score_topology(est, net).f1 == 1
    assert est.uniqueness.rank == est.uniqueness.unknowns == n * (n - 1) // 2
    y_hat = dict(zip(est.hypothesis.edges, est.y_hat))
    assert max(abs(y_hat[edge] - y) / abs(y) for edge, y in zip(net.graph.edges, net.y)) <= 1e-8


@pytest.mark.parametrize("sigma, method", [(0.0, "exact"), (1e-3, "stls")])
def test_non_unique_estimate_is_rejected_on_both_paths(sigma, method):
    """One point, even twice over, cannot fix a cycle's five admittances, clean or noisy.

    One point fails the tau gate: 5 unknowns on 5 nodes need 2 points. The same
    point twice passes it, but H diag(H^T v) has rank n - 1 = 4 for that point,
    so the 5 unknowns of cycle5 under its own graph are not unique, and the
    same rank gate says so on the exact and the stls path.
    """
    net = load_network(CYCLE5)
    one = synthesize(net, 1, seed=0)
    if sigma:
        one = add_noise(one, NoiseSpec(sigma), seed=0)
    prior = PriorTopology.explicit(net.graph)
    with pytest.raises(InsufficientMeasurementsError, match="1 operating points supplied but 2"):
        identify_topology(prior, 5, None, one)
    ms = MeasurementSet(np.concatenate([one.points, one.points]), noisy=one.noisy)
    assert topo_recover.choose_method("auto", ms, prior) == method
    with pytest.raises(NonUniqueError) as info:
        identify_topology(prior, 5, None, ms)
    assert str(info.value) == "coefficient matrix rank 4 < 5 unknowns (deficiency 1)"
    assert (info.value.diagnostic.rank, info.value.diagnostic.unknowns) == (4, 5)
    # the ungated core still answers, and records the same diagnostic
    assert estimate_topology(prior, None, ms).uniqueness == info.value.diagnostic


def test_threshold_rule_is_relative_iff_noisy():
    """Unset, relative follows ms.noisy and alpha the matching default; set, both pass through."""
    net = _cycle_network(5, 134)
    prior = PriorTopology.complete(5)
    clean = synthesize_independent(net, 4, seed=135)
    noisy = add_noise(clean, NoiseSpec(0.001), seed=136)
    est = estimate_topology(prior, None, clean)
    assert not est.relative and est.alpha == topo_recover.DEFAULT_ALPHA
    est = estimate_topology(prior, None, noisy)
    median = float(np.median(np.abs(est.solver.y)))
    assert est.relative and est.alpha == topo_recover.DEFAULT_RELATIVE_ALPHA * median
    assert estimate_topology(prior, 0.5, noisy, relative_threshold=False).alpha == 0.5
    est = estimate_topology(prior, None, clean, relative_threshold=True)
    assert est.relative and est.alpha > topo_recover.DEFAULT_ALPHA
    assert topology_report(est)["relative"] is True


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -1.0])
def test_estimate_rejects_bad_alpha_before_the_solve(monkeypatch, alpha):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking alpha")
    monkeypatch.setattr(topo_recover, "structured_least_squares", no_solve)
    ms = synthesize_independent(_cycle_network(5, 137), 4, seed=138)
    with pytest.raises(ValueError, match="alpha must be finite and nonnegative"):
        estimate_topology(PriorTopology.complete(5), alpha, ms)


def test_estimate_rejects_node_count_mismatch():
    ms = synthesize_independent(_cycle_network(5, 139), 4, seed=140)
    with pytest.raises(AlignmentError, match="prior over 6 nodes, measurements over 5"):
        estimate_topology(PriorTopology.complete(6), None, ms)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(4, 8), sigma=st.sampled_from((0.0, 1e-3)), seed=st.integers(0, 2**16))
def test_identify_is_node_permutation_equivariant(n, sigma, seed):
    """Relabelling the nodes relabels y and the edges, on the exact and the STLS path."""
    rng = np.random.default_rng([141, seed])
    net = random_admittances(random_connected_graph(n, rng, 0.6), rng)
    ms = synthesize_independent(net, n - 1, seed=[142, seed])
    if sigma:
        ms = add_noise(ms, NoiseSpec(sigma), seed=[143, seed])
    perm = rng.permutation(n)  # node k + 1 becomes node perm[k] + 1
    inverse = np.argsort(perm)
    relabelled = MeasurementSet(ms.points[:, :, inverse], noisy=ms.noisy)
    prior = PriorTopology.complete(n)
    est = identify_topology(prior, n, None, ms)
    est_p = identify_topology(prior, n, None, relabelled)
    assert est.method == est_p.method == ("stls" if sigma else "exact")

    def move(edge):
        i, j = sorted((perm[edge[0] - 1] + 1, perm[edge[1] - 1] + 1))
        return int(i), int(j)

    idx = prior.graph.edge_index()
    moved = np.array([est_p.y_hat[idx[move(edge)]] for edge in prior.graph.edges])
    np.testing.assert_allclose(moved, est.y_hat, rtol=1e-9, atol=0)
    assert {move(edge) for edge in est.edges_hat} == set(est_p.edges_hat)


def _score_reference(est, truth):
    """score_topology's counts and summed errors, over dicts keyed by edge."""
    est_map = dict(zip(est.hypothesis.edges, est.y_hat))
    true_map = dict(zip(truth.graph.edges, truth.y))
    predicted, actual = set(est.edges_hat), set(truth.graph.edges)
    errors = [est_map.get(edge, 0j) - true_map.get(edge, 0j) for edge in set(est_map) | actual]
    return ((len(predicted & actual), len(predicted - actual), len(actual - predicted)),
            [sum(abs(d) for d in errors), sum(abs(d.real) for d in errors),
             sum(abs(d.imag) for d in errors)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 12), hyp_density=st.floats(0.0, 1.0), true_density=st.floats(0.0, 1.0),
       keep=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
def test_score_matches_an_edge_dict_reference(n, hyp_density, true_density, keep, seed):
    """Hypotheses and truths that each hold edges the other lacks, and any kept subset."""
    from gridident import TopologyEstimate
    rng = np.random.default_rng(seed)

    def graph(density):
        pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)
                 if rng.random() < density]
        return NetworkGraph(n, tuple(pairs))

    hyp = graph(hyp_density)
    truth = random_admittances(graph(true_density), rng)
    y_hat = (rng.standard_normal(hyp.e) + 1j * rng.standard_normal(hyp.e)) \
        * (rng.random(hyp.e) < keep)
    est = TopologyEstimate(y_hat=y_hat, hypothesis=hyp,
                           edges_hat=tuple(e for e, v in zip(hyp.edges, y_hat) if v != 0),
                           alpha=0.0, tau=1, prior_kind="explicit_graph", method="exact")
    score = score_topology(est, truth)
    counts, errors = _score_reference(est, truth)
    assert (score.true_positives, score.false_positives, score.false_negatives) == counts
    got = [score.admittance_total_abs_error, score.conductance_abs_error,
           score.susceptance_abs_error]
    np.testing.assert_allclose(got, errors, rtol=1e-12, atol=0)


PAPER_SCALE = """
import resource, sys
import numpy as np
import gridident as gi
from gridident import graph_core

def refuse(*args, **kwargs):
    raise AssertionError("a dense incidence matrix or coefficient stack was built")

for module in [m for name, m in sys.modules.items() if name.startswith("gridident")]:
    for name in ("incidence_matrix", "stack_coefficients"):
        if hasattr(module, name):
            setattr(module, name, refuse)
graph_core.Incidence.matrix = refuse

n = 1000
rng = np.random.default_rng(1000)
net = gi.random_admittances(gi.random_tree(n, rng), rng)
prior = gi.PriorTopology.complete(n)
ms = gi.synthesize_independent(net, n - 1, seed=1001)
est = gi.identify_topology(prior, n, None, ms)
assert est.method == "exact" and gi.score_topology(est, net).f1 == 1
# the complete graph's edge (i, j) sits at (i-1)*n - (i-1)*i/2 + j - i - 1
inc = net.graph.incidence
where = inc.plus * n - inc.plus * (inc.plus + 1) // 2 + inc.minus - inc.plus - 1
expected = np.zeros(prior.graph.e, dtype=complex)
expected[where] = net.y
assert np.abs(est.y_hat - expected).max() <= 1e-8 * np.abs(net.y).max()

noisy = gi.add_noise(ms, gi.NoiseSpec(1e-3), seed=1002)
est = gi.estimate_topology(prior, 0.0, noisy)
assert est.method == "plugin"
present = np.zeros(prior.graph.e, dtype=bool)
present[where] = True
magnitude = np.abs(est.y_hat)
assert magnitude[present].min() > magnitude[~present].max()
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def test_complete_prior_on_a_1000_node_tree_reads_only_endpoints():
    """The paper's threshold at n = 1000, tau = n - 1: the dense H alone would be 4 GB.

    Noiseless, the estimate is exact; at sigma 1e-3 every true edge's |y| stands above
    every absent pair's, so a cut in that gap would recover the tree.
    """
    import os
    import subprocess
    import sys
    env = dict(os.environ, PYTHONPATH=str(CYCLE5.parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", PAPER_SCALE], env=env, check=True,
                          capture_output=True, text=True, timeout=300)
    assert float(done.stdout.split()[-1]) < 500  # peak RSS in MB
