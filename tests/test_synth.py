import dataclasses
import functools
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridident import (AdmittanceNetwork, AlignmentError, MeasurementSet,
                       NetworkFormatError, NetworkGraph, NoiseSpec, add_noise,
                       average_snapshots, complete_graph, currents_from_voltages,
                       incidence_matrix, load_measurements, matrix_from_vector,
                       random_admittances, save_measurements, stack_coefficients,
                       synthesize, synthesize_independent, voltage_coefficient)
from gridident.synth import perturb_voltages


def _net(n, seed, prob=0.5):
    rng = np.random.default_rng(seed)
    from gridident import random_connected_graph
    return random_admittances(random_connected_graph(n, rng, prob), rng)


def test_currents_constant_voltage_is_zero():
    net = _net(5, 20)
    i = currents_from_voltages(net, (0.7 - 0.2j) * np.ones(5))
    assert np.abs(i).max() < 1e-12


def test_currents_triangle_kcl():
    y12, y13, y23 = 2 + 1j, 1 - 1j, 0.5j
    net = AdmittanceNetwork(complete_graph(3), np.array([y12, y13, y23]))
    v = np.array([1.0, 0.9 - 0.1j, 1.1 + 0.05j])
    i = currents_from_voltages(net, v)
    assert abs(i[0] - (y12 * (v[0] - v[1]) + y13 * (v[0] - v[2]))) < 1e-12


def test_currents_match_dense_matvec():
    net = _net(6, 21)
    rng = np.random.default_rng(22)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert np.allclose(currents_from_voltages(net, v),
                       matrix_from_vector(net) @ v, rtol=1e-12)


def test_perturb_count_zero():
    assert perturb_voltages(np.ones(3, dtype=complex), 0, seed=0) == []


def test_perturb_zero_entry_fixed():
    v1 = np.array([1.0 + 0j, 0.0 + 0j, 2.0 + 0j])
    for out in perturb_voltages(v1, 5, seed=1):
        assert out[1] == 0


def test_perturb_envelope_bound():
    rng = np.random.default_rng(23)
    v1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    bound = 0.05 * np.sqrt(2) * np.abs(v1)
    for out in perturb_voltages(v1, 1000, seed=2):
        assert np.all(np.abs(out - v1) <= bound + 1e-15)


def test_perturb_deterministic_and_nested():
    v1 = np.ones(3, dtype=complex)
    a = perturb_voltages(v1, 4, seed=9)
    b = perturb_voltages(v1, 4, seed=9)
    c = perturb_voltages(v1, 2, seed=9)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert all(np.array_equal(x, y) for x, y in zip(a[:2], c))


def test_synthesize_conservation():
    net = _net(7, 24)
    ms = synthesize(net, 5, seed=3)
    for cur in ms.points[:, 1]:
        assert abs(cur.sum()) <= 1e-10 * max(np.linalg.norm(cur), 1e-30)
    assert not ms.noisy and ms.tau == 5 and ms.n == 7


def test_synthesize_distinct_across_seeds():
    net = _net(5, 25)
    a = synthesize(net, 4, seed=1)
    b = synthesize(net, 4, seed=2)
    for k in range(1, 4):
        assert np.all(a.points[k, 0] != b.points[k, 0])


def test_synthesize_bit_identical_and_prefix():
    net = _net(5, 26)
    a = synthesize(net, 6, seed=5)
    b = synthesize(net, 6, seed=5)
    short = synthesize(net, 3, seed=5)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.points[:3, 0], short.points[:, 0])


def test_synthesize_independent_prefix():
    net = _net(5, 27)
    long = synthesize_independent(net, 6, seed=8)
    short = synthesize_independent(net, 2, seed=8)
    assert np.array_equal(long.points[:2, 0], short.points[:, 0])


def test_independent_synthesis_memory_is_twice_the_points():
    """A 400-node tree at tau = 399: the points and the set's own copy of them, little more.

    The nodal matrix (2.6 MB) goes before that copy, and the incidence
    cross-check runs over chunks of points.
    """
    import tracemalloc
    from gridident import random_tree
    rng = np.random.default_rng([400, 1])
    net = random_admittances(random_tree(400, rng), rng)
    net.graph.incidence  # built and cached before the measurement
    tracemalloc.start()
    try:
        ms = synthesize_independent(net, 399, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * ms.points.nbytes


def _noisy(make):
    return lambda net, tau, seed: add_noise(make(net, tau, seed), NoiseSpec(1e-3), [seed, 1])


def _saved(make):
    def saved_and_loaded(net, tau, seed):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "ms.csv"
            save_measurements(make(net, tau, seed), path)
            return load_measurements(path)
    return saved_and_loaded


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(3, 8), tau=st.integers(1, 5), extra=st.integers(1, 4),
       seed=st.integers(0, 2**16))
def test_tau_prefix_is_bit_exact(n, tau, extra, seed):
    """The first tau points of a longer set equal a tau-point set, V and I, bit for bit."""
    net = _net(n, [29, seed])
    for make in (synthesize, synthesize_independent, _noisy(synthesize),
                 _noisy(synthesize_independent), _saved(_noisy(synthesize))):
        long, short = make(net, tau + extra, seed), make(net, tau, seed)
        assert np.array_equal(long.voltage_matrix()[:, :tau], short.voltage_matrix())
        assert np.array_equal(long.current_matrix()[:, :tau], short.current_matrix())
        assert MeasurementSet(long.points[:tau]).points.tobytes() == short.points.tobytes()


def test_add_noise_zero_scale_identity():
    net = _net(4, 28)
    ms = synthesize(net, 3, seed=1)
    out = add_noise(ms, NoiseSpec(0.0), seed=2)
    assert np.array_equal(ms.points, out.points)
    assert not out.noisy


def test_add_noise_statistics():
    n, draws = 4, 10_000
    net = _net(n, 29)
    ms = synthesize(net, 1, seed=1)
    sigma = 0.001 * np.abs(ms.points[0, 0])
    samples = np.array([add_noise(ms, NoiseSpec(0.001), seed=s).points[0, 0].real
                        - ms.points[0, 0].real for s in range(draws)])
    assert np.all(np.abs(samples.mean(axis=0)) < 3 * sigma / np.sqrt(draws))
    assert np.all(np.abs(samples.std(axis=0) - sigma) < 0.05 * sigma)


def test_add_noise_leaves_input_untouched():
    net = _net(4, 30)
    ms = synthesize(net, 2, seed=1)
    before = ms.points.copy()
    noisy = add_noise(ms, NoiseSpec(0.01), seed=3)
    assert np.array_equal(ms.points, before)
    assert noisy.noisy
    with pytest.raises(ValueError):
        add_noise(noisy, NoiseSpec(0.01), seed=4)


def test_average_identity_cases():
    net = _net(5, 31)
    ms = synthesize(net, 3, seed=1)
    avg = average_snapshots([ms, ms, ms, ms])  # power of two: the mean is exact
    assert np.array_equal(ms.points, avg.points)
    assert avg.surrogate
    odd = average_snapshots([ms, ms, ms])
    assert np.allclose(odd.voltage_matrix(), ms.voltage_matrix(), rtol=1e-15)
    single = average_snapshots([ms])
    assert np.array_equal(single.points, ms.points)


def test_average_error_scaling():
    net = _net(6, 32)
    ms = synthesize(net, 4, seed=1)
    spec = NoiseSpec(0.001)
    reps = [add_noise(ms, spec, seed=[9, r]) for r in range(64)]
    truth = ms.voltage_matrix()

    def err(m):
        return float(np.linalg.norm(average_snapshots(reps[:m]).voltage_matrix() - truth))

    errors = {m: err(m) for m in (1, 4, 16, 64)}
    for m in (4, 16, 64):
        expected = errors[1] / np.sqrt(m)
        assert expected / 2 <= errors[m] <= expected * 2


def test_average_shape_mismatch():
    a = synthesize(_net(4, 33), 2, seed=1)
    b = synthesize(_net(5, 34), 2, seed=1)
    with pytest.raises(AlignmentError):
        average_snapshots([a, b])


def test_voltage_coefficient_two_nodes():
    h = incidence_matrix(complete_graph(2))
    col = voltage_coefficient(h, np.array([1.0 + 0j, 0j]))
    assert col.ravel().tolist() == [1 + 0j, -1 + 0j]


def test_voltage_coefficient_product_matches_currents():
    net = _net(6, 35)
    rng = np.random.default_rng(36)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    h = incidence_matrix(net.graph)
    assert np.allclose(voltage_coefficient(h, v) @ net.y,
                       currents_from_voltages(net, v), rtol=1e-12)


def test_voltage_coefficient_orientation_invariance():
    net = _net(5, 37)
    rng = np.random.default_rng(38)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    h = incidence_matrix(net.graph)
    flips = np.diag(rng.choice([-1.0, 1.0], net.graph.e))
    assert np.allclose(voltage_coefficient(h @ flips, v) @ net.y,
                       voltage_coefficient(h, v) @ net.y, rtol=1e-12)


def test_stack_coefficients():
    net = _net(5, 39)
    h = incidence_matrix(net.graph)
    one = synthesize(net, 1, seed=2)
    a1, i1 = stack_coefficients(one, h)
    assert np.array_equal(a1, voltage_coefficient(h, one.points[0, 0]))
    ms = synthesize(net, 4, seed=2)
    a, i = stack_coefficients(ms, h)
    assert a.shape == (20, net.graph.e)
    resid = np.linalg.norm(a @ net.y - i) / np.linalg.norm(i)
    assert resid <= 1e-10


def test_measurement_file_round_trip(tmp_path):
    net = _net(5, 40)
    ms = add_noise(synthesize(net, 3, seed=7), NoiseSpec(0.001), seed=8)
    path = tmp_path / "ms.csv"
    save_measurements(ms, path)
    loaded = load_measurements(path)
    assert loaded.noisy and loaded.seed == 7 and loaded.noise_seed == 8
    assert loaded.noise_spec.sigma_scale == 0.001
    assert np.array_equal(ms.points, loaded.points)


def test_measurement_file_errors(tmp_path):
    from gridident import NetworkFormatError
    bad = tmp_path / "bad.csv"
    bad.write_text("k,node,V_re\n1,1,0.5\n")
    with pytest.raises(NetworkFormatError):
        load_measurements(bad)
    missing = tmp_path / "gap.csv"
    missing.write_text("k,node,V_re,V_im,I_re,I_im\n1,1,1,0,0,0\n1,3,1,0,0,0\n")
    with pytest.raises(NetworkFormatError):
        load_measurements(missing)
    hole = tmp_path / "hole.csv"  # k and node each cover 1..2, but (2, 2) has no row
    hole.write_text("k,node,V_re,V_im,I_re,I_im\n1,1,1,0,0,0\n1,2,1,0,0,0\n2,1,1,0,0,0\n")
    with pytest.raises(NetworkFormatError, match=r"\(k, node\) = \(2, 2\)"):
        load_measurements(hole)
    undecodable = tmp_path / "latin1.csv"  # a byte that is not UTF-8
    undecodable.write_bytes(b"# note=\xe9\nk,node,V_re,V_im,I_re,I_im\n1,1,1,0,0,0\n")
    with pytest.raises(NetworkFormatError, match=r"latin1\.csv: not UTF-8 text"):
        load_measurements(undecodable)


def test_operating_point_validation():
    """points must be a tau x 2 x n array with at least one point and one node."""
    for shape in ((2, 3), (1, 3, 4), (0, 2, 4), (2, 2, 0)):
        with pytest.raises(ValueError):
            MeasurementSet(np.ones(shape, dtype=complex))


@pytest.mark.parametrize("tau", [1, 3])
def test_measurement_set_is_a_read_only_copy(tau):
    """Writes to the input array or to voltage_matrix()'s result leave the set unchanged."""
    rng = np.random.default_rng([44, tau])
    raw = rng.standard_normal((tau, 2, 4)) + 1j * rng.standard_normal((tau, 2, 4))
    ms = MeasurementSet(raw)
    before = raw.copy()
    raw[...] = 0
    ms.voltage_matrix()[...] = 0
    ms.current_matrix()[...] = 0
    assert ms.points.tobytes() == before.tobytes()
    with pytest.raises(ValueError):
        ms.points[0, 0, 0] = 1


@pytest.mark.parametrize("edit, where", [
    (lambda lines: lines[:5] + ["1,2,nan,0,0,0"] + lines[6:], "line 6"),
    (lambda lines: lines[:5] + ["1,2,1,0,inf,0"] + lines[6:], "line 6"),
    (lambda lines: ["# sigma_scale=abc"] + lines, "sigma_scale"),
    (lambda lines: ["# sigma_scale=-1"] + lines, "sigma_scale"),
    (lambda lines: [line.replace("# seed=7", "# seed=x") for line in lines], "seed"),
    (lambda lines: ["# noise_seed=1,,2"] + lines, "noise_seed"),
    (lambda lines: [line.replace("# noisy=false", "# noisy=yes") for line in lines], "noisy"),
    (lambda lines: lines + ["# surrogate=1"], "surrogate"),
    (lambda lines: ["# gridident-measurements v9"] + lines[1:], "line 1: .*version 9"),
    (lambda lines: ["# gridident-measurements 1"] + lines[1:], "line 1: .*version '1'"),
    (lambda lines: ["# gridident-measurements v" + "1" * 5000] + lines[1:], "line 1: "),
])
def test_measurement_file_rejects_bad_values_and_metadata(tmp_path, edit, where):
    from gridident import NetworkFormatError
    path = tmp_path / "ms.csv"
    save_measurements(synthesize(_net(3, 41), 2, seed=7), path)
    lines = path.read_text().splitlines()
    assert lines[3] == "k,node,V_re,V_im,I_re,I_im"
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(NetworkFormatError, match=where):
        load_measurements(path)


def _edited(lines, edits):
    lines = list(lines)
    for kind, where, at, text in edits:
        i = where % len(lines)
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            pos = at % (len(lines[i]) + 1)
            lines[i] = lines[i][:pos] + text + lines[i][pos + len(text):]
    return lines


@functools.cache
def _saved_lines() -> tuple:
    """Lines of a saved noisy 3-node, 2-point file, with every metadata key."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "ms.csv"
        ms = add_noise(synthesize(_net(3, 42), 2, seed=(7, 8)), NoiseSpec(1e-3), seed=9)
        save_measurements(dataclasses.replace(ms, surrogate=True), path)
        return tuple(path.read_text().splitlines())


_GARBLE = st.text(st.sampled_from("0123456789,.-+eE#= \"truefalsninfkV_I") | st.characters(),
                  max_size=8)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(edits=st.lists(st.tuples(st.sampled_from(("delete", "duplicate", "garble")),
                                st.integers(0, 99), st.integers(0, 99), _GARBLE),
                      min_size=1, max_size=2))
def test_edited_measurement_file_loads_or_raises_format_error(edits):
    """Deleting, duplicating or garbling one or two lines never escapes NetworkFormatError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "ms.csv"
        path.write_text("\n".join(_edited(_saved_lines(), edits)) + "\n", encoding="utf-8")
        try:
            ms = load_measurements(path)
        except NetworkFormatError:
            return
    assert isinstance(ms, MeasurementSet)


_SEEDS = st.integers(0, 2**32) | st.tuples(st.integers(0, 2**16), st.integers(0, 2**16))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 8), tau=st.integers(1, 6), noisy=st.booleans(), seed=_SEEDS,
       noise_seed=_SEEDS, surrogate=st.booleans())
def test_measurement_file_round_trip_is_bit_exact(n, tau, noisy, seed, noise_seed, surrogate):
    """save_measurements then load_measurements returns V and I bit for bit, and the metadata."""
    ms = synthesize(_net(n, [43, n]), tau, seed)
    if noisy:
        ms = add_noise(ms, NoiseSpec(1e-3), noise_seed)
    ms = dataclasses.replace(ms, surrogate=surrogate)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "ms.csv"
        save_measurements(ms, path)
        back = load_measurements(path)
    assert back.voltage_matrix().tobytes() == ms.voltage_matrix().tobytes()
    assert back.current_matrix().tobytes() == ms.current_matrix().tobytes()
    fields = ("noisy", "noise_spec", "seed", "noise_seed", "surrogate")
    assert [getattr(back, f) for f in fields] == [getattr(ms, f) for f in fields]
