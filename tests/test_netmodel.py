import json

import numpy as np
import pytest

from gridident import (AdmittanceNetwork, Branch, Bus, BusSpec,
                       ConsistencyError, Coupling, NetworkFormatError,
                       NetworkGraph, complete_graph, load_bus_spec, load_network,
                       matrix_from_vector, phase_expand, random_admittances,
                       reconstruct_full, reduce_slack, save_bus_spec,
                       save_network, vector_from_matrix)


def test_matrix_from_vector_two_nodes():
    net = AdmittanceNetwork(complete_graph(2), np.array([2 + 1j]))
    y = matrix_from_vector(net)
    assert np.array_equal(y, np.array([[2 + 1j, -2 - 1j], [-2 - 1j, 2 + 1j]]))


def test_matrix_from_vector_triangle_diagonal():
    y12, y13, y23 = 1 + 2j, 3 - 1j, 0.5 + 0.5j
    net = AdmittanceNetwork(complete_graph(3), np.array([y12, y13, y23]))
    y = matrix_from_vector(net)
    assert y[0, 0] == y12 + y13


def test_matrix_contract_random():
    rng = np.random.default_rng(10)
    net = random_admittances(complete_graph(5), rng)
    y = matrix_from_vector(net)
    assert np.abs(y.sum(axis=1)).max() < 1e-12
    assert np.array_equal(y, y.T)


def test_vector_matrix_round_trip():
    rng = np.random.default_rng(11)
    net = random_admittances(complete_graph(6), rng)
    assert np.allclose(vector_from_matrix(matrix_from_vector(net), net.graph), net.y,
                       rtol=1e-12)


def test_vector_from_matrix_sign():
    net = AdmittanceNetwork(complete_graph(3), np.array([1 + 0j, 1 + 0j, 4j]))
    y = vector_from_matrix(matrix_from_vector(net), net.graph)
    assert y[2] == 4j


def test_vector_from_matrix_rejects_bad_input():
    bad = np.array([[1.0, 0.5], [-1.0, 1.0]])
    with pytest.raises(ConsistencyError):
        vector_from_matrix(bad, complete_graph(2))
    nonzero_rows = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ConsistencyError):
        vector_from_matrix(nonzero_rows, complete_graph(2))


def test_reduce_slack_two_nodes():
    y = np.array([[2.0, -2.0], [-2.0, 2.0]])
    assert reduce_slack(y).tolist() == [[2.0]]


def test_reduce_reconstruct_round_trip():
    rng = np.random.default_rng(12)
    for n in (2, 4, 5):
        y = matrix_from_vector(random_admittances(complete_graph(n), rng))
        assert np.allclose(reconstruct_full(reduce_slack(y)), y, atol=1e-12)


def test_reconstruct_simple_and_zero():
    assert reconstruct_full(np.array([[2.0]])).tolist() == [[2.0, -2.0], [-2.0, 2.0]]
    assert np.array_equal(reconstruct_full(np.zeros((3, 3))), np.zeros((4, 4)))


def test_reconstruct_rejects_asymmetric():
    with pytest.raises(ConsistencyError):
        reconstruct_full(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_reduce_is_bottom_right_block():
    rng = np.random.default_rng(13)
    y = matrix_from_vector(random_admittances(complete_graph(4), rng))
    assert np.array_equal(reduce_slack(y), y[1:, 1:])


def _diag_branch(a: str, b: str, phases: str, y=1 - 1j) -> Branch:
    return Branch(a, b, tuple(Coupling(p, p, y) for p in phases))


def test_phase_expand_diagonal():
    spec = BusSpec((Bus("s", "abc"), Bus("t", "abc")),
                   (_diag_branch("s", "t", "abc"),))
    net, node_map = phase_expand(spec)
    assert net.graph.n == 6
    assert net.graph.e == 3
    assert node_map[("s", "a")] == 1 and node_map[("t", "c")] == 6


def test_phase_expand_cross_coupled():
    couplings = tuple(Coupling(p, q, 1 + 1j) for p in "abc" for q in "bc")
    spec = BusSpec((Bus("s", "abc"), Bus("t", "bc")),
                   (Branch("s", "t", couplings),))
    net, _ = phase_expand(spec)
    assert net.graph.n == 5
    assert net.graph.e == 6  # every declared (phase, phase) pair


def test_phase_expand_thirteen_bus_lateral_structure():
    # three-phase mains and laterals, two-phase and single-phase laterals:
    # 8 three-phase + 3 two-phase + 2 single-phase buses -> 32 phase nodes
    buses = tuple(
        Bus(name, phases) for name, phases in [
            ("n1", "abc"), ("n2", "abc"), ("n3", "bc"), ("n4", "bc"),
            ("n5", "abc"), ("n6", "abc"), ("n7", "abc"), ("n8", "bc"),
            ("n9", "b"), ("n10", "abc"), ("n11", "abc"), ("n12", "abc"),
            ("n13", "c"),
        ])
    branches = (
        _diag_branch("n1", "n2", "abc"), _diag_branch("n2", "n7", "abc"),
        _diag_branch("n7", "n12", "abc"), _diag_branch("n2", "n5", "abc"),
        _diag_branch("n5", "n6", "abc"), _diag_branch("n7", "n10", "abc"),
        _diag_branch("n10", "n11", "abc"), _diag_branch("n2", "n3", "bc"),
        _diag_branch("n3", "n4", "bc"), _diag_branch("n7", "n8", "bc"),
        _diag_branch("n8", "n9", "b"), _diag_branch("n8", "n13", "c"),
    )
    net, node_map = phase_expand(BusSpec(buses, branches))
    assert net.graph.n == 32
    assert len(node_map) == 32
    assert net.graph.e == 7 * 3 + 3 * 2 + 2 * 1


def test_phase_expand_rejects_undeclared_phase():
    with pytest.raises(NetworkFormatError):
        BusSpec((Bus("s", "ab"), Bus("t", "abc")),
                (Branch("s", "t", (Coupling("c", "c", 1.0),)),))


def test_phase_expand_rejects_duplicate_coupling():
    spec = BusSpec((Bus("s", "a"), Bus("t", "a")),
                   (Branch("s", "t", (Coupling("a", "a", 1.0),
                                      Coupling("a", "a", 2.0))),))
    with pytest.raises(NetworkFormatError):
        phase_expand(spec)


def test_network_file_minimal(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({
        "version": 1, "n": 2, "edges": [{"i": 1, "j": 2, "y": [1.5, -0.25]}],
    }))
    net = load_network(path)
    assert net.graph.edges == ((1, 2),)
    assert net.y[0] == 1.5 - 0.25j


def test_network_file_duplicate_edge(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({
        "version": 1, "n": 3,
        "edges": [{"i": 1, "j": 2, "y": [1, 0]}, {"i": 2, "j": 1, "y": [1, 0]}],
    }))
    with pytest.raises(NetworkFormatError, match=r"duplicate edge \(1, 2\)"):
        load_network(path)


def test_network_file_version_and_parse_errors(tmp_path):
    bad_version = tmp_path / "v9.json"
    bad_version.write_text(json.dumps({"version": 9, "n": 2, "edges": []}))
    with pytest.raises(NetworkFormatError, match="version"):
        load_network(bad_version)
    garbage = tmp_path / "bad.json"
    garbage.write_text("{not json")
    with pytest.raises(NetworkFormatError, match="line 1"):
        load_network(garbage)


def test_network_file_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    net = random_admittances(complete_graph(10), rng)
    path = tmp_path / "net.json"
    save_network(net, path)
    loaded = load_network(path)
    assert loaded.graph == net.graph
    assert np.array_equal(loaded.y, net.y)
    # saving the loaded network reproduces the file byte for byte
    again = tmp_path / "net2.json"
    save_network(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_bus_spec_file_round_trip(tmp_path):
    spec = BusSpec((Bus("s", "abc"), Bus("t", "bc")),
                   (_diag_branch("s", "t", "bc", 0.5 - 1.5j),))
    path = tmp_path / "spec.json"
    save_bus_spec(spec, path)
    assert load_bus_spec(path) == spec


def test_bus_spec_inside_network_file(tmp_path):
    rng = np.random.default_rng(15)
    spec = BusSpec((Bus("s", "ab"), Bus("t", "ab")), (_diag_branch("s", "t", "ab"),))
    net = random_admittances(NetworkGraph.from_edges(4, [(1, 3), (2, 4)]), rng)
    path = tmp_path / "combo.json"
    save_network(net, path, labels=["s.a", "s.b", "t.a", "t.b"], bus_spec=spec)
    assert load_bus_spec(path) == spec
    assert load_network(path).graph == net.graph


_TWO_BUSES = [{"name": "b1", "phases": "abc"}, {"name": "b2", "phases": "abc"}]


@pytest.mark.parametrize("payload", [
    {"buses": _TWO_BUSES, "branches": [{"from": "b1", "to": "b2", "couplings": [
        {"to_phase": "b", "y": [1, -1]}]}]},
    {"buses": _TWO_BUSES, "branches": [{"from": "b1", "to": "b2", "couplings": [
        {"from_phase": 1, "to_phase": "a", "y": [1, -1]}]}]},
    {"buses": _TWO_BUSES, "branches": [{"from": "b1", "to": "b2", "couplings": [
        {"from_phase": "a", "to_phase": "a", "y": ["x", 1]}]}]},
    {"buses": _TWO_BUSES, "branches": [{"from": "b1", "to": "b2", "couplings": [
        {"from_phase": "a", "to_phase": "a", "y": [1, 2, 3]}]}]},
    {"buses": _TWO_BUSES, "branches": [{"from": "b1", "to": "b2", "couplings": [
        {"from_phase": "ab", "to_phase": "a", "y": [1, 2]}]}]},
    {"buses": _TWO_BUSES, "branches": [{"from": ["b1"], "to": "b2", "couplings": []}]},
    {"buses": [{"name": 7, "phases": "abc"}], "branches": []},
    {"buses": {"name": "b1"}, "branches": []},
])
def test_bus_spec_parser_rejects_malformed_entries(tmp_path, payload):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(NetworkFormatError):
        load_bus_spec(path)


_NON_FINITE_OR_BOOL = ["[NaN, 0]", "[0, -Infinity]", "[1e999, 0]", "[1" + "0" * 400 + ", 0]",
                       "[true, 0]", "[1, false]"]


@pytest.mark.parametrize("y", _NON_FINITE_OR_BOOL)
def test_network_file_rejects_non_finite_or_bool_admittance(tmp_path, y):
    path = tmp_path / "net.json"
    path.write_text('{"version": 1, "n": 2, "edges": [{"i": 1, "j": 2, "y": %s}]}' % y)
    with pytest.raises(NetworkFormatError, match=r"net\.json: edge #1: field 'y'"):
        load_network(path)


@pytest.mark.parametrize("y", _NON_FINITE_OR_BOOL)
def test_bus_spec_file_rejects_non_finite_or_bool_admittance(tmp_path, y):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"buses": _TWO_BUSES, "branches": [
        {"from": "b1", "to": "b2", "couplings": [
            {"from_phase": "a", "to_phase": "a", "y": "Y"}]}]}).replace('"Y"', y))
    with pytest.raises(NetworkFormatError, match=r"spec\.json: bad coupling entry"):
        load_bus_spec(path)
