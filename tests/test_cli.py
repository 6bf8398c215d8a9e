import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from gridident import (MeasurementSet, NetworkGraph, complete_graph, incidence_matrix,
                       load_measurements, random_admittances, random_connected_graph,
                       random_tree, random_voltage_matrix, remove_edge, save_measurements,
                       save_network, uniqueness_diagnostic, voltage_coefficient)
from gridident.cli import main, parse_prior, parse_tau_list

LATERAL3 = pathlib.Path(__file__).resolve().parents[1] / "networks" / "lateral3_busspec.json"
CYCLE5 = LATERAL3.with_name("cycle5.json")
SRC = LATERAL3.parents[1] / "src"


@pytest.fixture()
def cycle5(tmp_path):
    g = NetworkGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    net = random_admittances(g, np.random.default_rng(200))
    path = tmp_path / "cycle5.json"
    save_network(net, path)
    return path


def test_parse_tau_list():
    assert parse_tau_list("29,30,31") == [29, 30, 31]
    assert parse_tau_list("6:9") == [6, 7, 8, 9]


def test_parse_prior_forms(cycle5):
    assert parse_prior("complete", 5).kind == "none"
    assert parse_prior("minus-one:1-3", 5).graph.e == 9
    assert parse_prior(f"file:{cycle5}", 5).kind == "explicit_graph"
    with pytest.raises(ValueError):
        parse_prior("nonsense", 5)


def test_ranktable_output(capsys):
    assert main(["ranktable", "--n", "8", "--prior", "complete",
                 "--tau", "5,6,7", "--seed", "1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [(int(r[0]), int(r[1]), r[3]) for r in rows] == [
        (5, 25, "no"), (6, 27, "no"), (7, 28, "yes")]


def test_ranktable_prints_the_rank_of_the_stack(tmp_path, capsys):
    """Every prior kind, n 4-8 and tau 1..n: the estimator's rank is the stack's."""
    for n in range(4, 9):
        rng = np.random.default_rng([212, n])
        graphs = {"tree": random_tree(n, rng), "file": random_connected_graph(n, rng, 0.5),
                  "empty": NetworkGraph(n, ())}
        for name, g in graphs.items():
            save_network(random_admittances(g, rng), tmp_path / f"{name}{n}.json")
        priors = {"complete": complete_graph(n),
                  f"minus-one:1-{n}": remove_edge(complete_graph(n), (1, n)),
                  f"tree:{tmp_path}/tree{n}.json": graphs["tree"],
                  f"file:{tmp_path}/file{n}.json": graphs["file"],
                  f"file:{tmp_path}/empty{n}.json": graphs["empty"]}
        for spec, g in priors.items():
            capsys.readouterr()
            assert main(["ranktable", "--n", str(n), "--prior", spec, "--tau", f"1:{n}",
                         "--seed", "5"]) == 0
            rows = [line.split() for line in capsys.readouterr().out.strip().splitlines()[1:]]
            h = incidence_matrix(g)
            expected = []
            for tau in range(1, n + 1):
                v = random_voltage_matrix(n, tau, np.random.default_rng([5, 2, tau]))
                d = uniqueness_diagnostic(
                    np.vstack([voltage_coefficient(h, v[:, k]) for k in range(tau)]), g.e)
                expected.append([str(tau), str(d.rank), str(g.e), "yes" if d.unique else "no"])
            assert rows == expected, spec


def test_synth_identify_pipeline(tmp_path, cycle5):
    ms_path = tmp_path / "ms.csv"
    out_path = tmp_path / "report.json"
    assert main(["synth", "--network", str(cycle5), "--tau", "4",
                 "--seed", "3", "--out", str(ms_path)]) == 0
    assert main(["identify", "--measurements", str(ms_path), "--prior", "complete",
                 "--truth", str(cycle5), "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert len(report["edges"]) == 5
    assert report["score"]["f1"] == 1.0
    # deterministic rerun produces the identical file
    first = out_path.read_bytes()
    assert main(["identify", "--measurements", str(ms_path), "--prior", "complete",
                 "--truth", str(cycle5), "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == first


def test_identify_insufficient_measurements_exit_2(tmp_path, cycle5):
    ms_path = tmp_path / "short.csv"
    assert main(["synth", "--network", str(cycle5), "--tau", "2",
                 "--seed", "3", "--out", str(ms_path)]) == 0
    assert main(["identify", "--measurements", str(ms_path),
                 "--prior", "complete"]) == 2


def test_identify_non_unique_noisy_estimate_exit_2(tmp_path, capsys):
    """One point under cycle5's own graph fails the tau gate; the same point twice, the rank gate.

    A noisy file fails each gate as its clean original does.
    """
    clean, noisy, out = tmp_path / "ms.csv", tmp_path / "noisy.csv", tmp_path / "report.json"
    twice = tmp_path / "twice.csv"
    assert main(["synth", "--network", str(CYCLE5), "--tau", "1", "--out", str(clean)]) == 0
    assert main(["noise", "--in", str(clean), "--out", str(noisy)]) == 0
    for path in (clean, noisy):
        one = load_measurements(path)
        save_measurements(MeasurementSet(np.concatenate([one.points, one.points]),
                                         noisy=one.noisy, noise_spec=one.noise_spec), twice)
        for ms_path, line in [
                (path, "error: 1 operating points supplied but 2 required: 5 unknown "
                       "admittances on 5 nodes need n*tau - tau*(tau+1)/2 >= 5"),
                (twice, "error: coefficient matrix rank 4 < 5 unknowns (deficiency 1)")]:
            capsys.readouterr()
            assert main(["identify", "--measurements", str(ms_path), "--prior", f"file:{CYCLE5}",
                         "--out", str(out)]) == 2
            assert capsys.readouterr().err.splitlines() == [line]
            assert not out.exists()


def test_identify_stops_at_the_tau_gate_before_any_solve(tmp_path, capsys, monkeypatch):
    """An explicit complete graph on 10 nodes needs 9 points; 5 never reach a solve."""
    from gridident import exact_estimate, synth

    def refuse(*args, **kwargs):
        raise AssertionError("the coefficient stack was built")

    monkeypatch.setattr(exact_estimate, "stack_coefficients", refuse)
    monkeypatch.setattr(synth, "stack_coefficients", refuse)
    net_path, ms_path = tmp_path / "k10.json", tmp_path / "ms.csv"
    save_network(random_admittances(complete_graph(10), np.random.default_rng(210)), net_path)
    assert main(["synth", "--network", str(net_path), "--tau", "5", "--out", str(ms_path)]) == 0
    capsys.readouterr()
    assert main(["identify", "--measurements", str(ms_path), "--prior", f"file:{net_path}"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: 5 operating points supplied but 9 required: 45 unknown admittances on 10 nodes "
        "need n*tau - tau*(tau+1)/2 >= 45"]


def test_identify_parse_error_exit_3(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,measurement\n")
    assert main(["identify", "--measurements", str(bad), "--prior", "complete"]) == 3


def test_noise_roundtrip(tmp_path, cycle5):
    ms_path = tmp_path / "ms.csv"
    noisy_path = tmp_path / "noisy.csv"
    main(["synth", "--network", str(cycle5), "--tau", "4", "--seed", "3",
          "--out", str(ms_path)])
    assert main(["noise", "--in", str(ms_path), "--sigma", "0.001",
                 "--seed", "5", "--out", str(noisy_path)]) == 0
    noisy = load_measurements(noisy_path)
    clean = load_measurements(ms_path)
    assert noisy.noisy and not clean.noisy
    assert not np.array_equal(noisy.points[0, 0], clean.points[0, 0])


def test_sweep_outputs(tmp_path, cycle5):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--network", str(cycle5), "--prior", "complete",
                 "--tau", "4:6", "--sigma", "0", "--seeds", "2",
                 "--profile", "independent", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "# min_measurements=4"
    header = lines[2].split(",")
    assert header == ["tau", "seed", "total_abs_error_conductance",
                      "total_abs_error_susceptance", "f1", "runtime_s"]
    rows = [line.split(",") for line in lines[3:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [
        (4, 0), (4, 1), (5, 0), (5, 1), (6, 0), (6, 1)]
    for r in rows:
        assert float(r[2]) < 1e-8 and float(r[3]) < 1e-8  # noiseless, above threshold
        assert float(r[4]) == 1.0


def test_sweep_three_nodes_minus_one(tmp_path):
    """At n = 3 the minus-one hypothesis is a path, which one point identifies."""
    net, out = tmp_path / "path3.json", tmp_path / "sweep.csv"
    save_network(random_admittances(NetworkGraph.from_edges(3, [(1, 3), (2, 3)]),
                                    np.random.default_rng(211)), net)
    assert main(["sweep", "--network", str(net), "--prior", "minus-one:1-2", "--tau", "1:2",
                 "--seeds", "1", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "# min_measurements=1"
    assert [float(line.split(",")[4]) for line in lines[3:]] == [1.0, 1.0]


def test_sweep_below_threshold_has_large_error(tmp_path, cycle5):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--network", str(cycle5), "--prior", "complete",
                 "--tau", "2:4", "--sigma", "0", "--seeds", "1",
                 "--profile", "independent", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[3:]]
    errors = {int(r[0]): float(r[2]) + float(r[3]) for r in rows}
    assert errors[2] > 1e-3 and errors[3] > 1e-3
    assert errors[4] < 1e-8


def test_phases_command(tmp_path):
    from gridident import Branch, Bus, BusSpec, Coupling, save_bus_spec
    rng = np.random.default_rng(201)

    def y():
        return complex(rng.uniform(0.5, 2.0), rng.uniform(-2.0, -0.5))

    spec = BusSpec(
        (Bus("b1", "abc"), Bus("b2", "abc"), Bus("b3", "bc")),
        (Branch("b1", "b2", tuple(Coupling(p, p, y()) for p in "abc")),
         Branch("b2", "b3", tuple(Coupling(p, p, y()) for p in "bc"))))
    spec_path = tmp_path / "spec.json"
    save_bus_spec(spec, spec_path)
    out = tmp_path / "phases.json"
    assert main(["phases", "--spec", str(spec_path), "--bus", "b3", "--tau", "6",
                 "--sigma", "0.001", "--seed", "4", "--profile", "independent",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["connected_phases"] == ["b", "c"]
    assert payload["incident_magnitude"]["a"] < payload["alpha"]
    assert payload["method"] == "stls" and payload["steps"] >= 1
    assert 1 <= payload["factorizations"] <= payload["steps"]
    assert payload["damping"] == 0.0


def test_missing_network_exit_2(tmp_path):
    assert main(["synth", "--network", str(tmp_path / "nope.json"),
                 "--tau", "3", "--seed", "1", "--out", str(tmp_path / "x.csv")]) == 2


def test_phases_malformed_coupling_exit_3(tmp_path, capsys):
    spec = {"buses": [{"name": "b1", "phases": "abc"}, {"name": "b2", "phases": "abc"}],
            "branches": [{"from": "b1", "to": "b2", "couplings": []}]}
    for coupling in ({"to_phase": "b", "y": [1, -1]},
                     {"from_phase": "a", "to_phase": "a", "y": ["x", 1]},
                     {"from_phase": "a", "to_phase": "a", "y": [1, -1], "note": "\udcff"}):
        spec["branches"][0]["couplings"] = [coupling]
        path = tmp_path / "spec.json"
        # a lone surrogate is written as the byte 0xff, which is not UTF-8
        path.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8",
                        errors="surrogateescape")
        assert main(["phases", "--spec", str(path), "--bus", "b2", "--tau", "3"]) == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"input error: {path}:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("edit", [
    lambda text: re.sub(r"\n1,2,[^,]*,", "\n1,2,nan,", text, count=1),
    lambda text: "# sigma_scale=abc\n" + text,
    lambda text: "# note=\udce9\n" + text,  # written as the byte 0xe9, which is not UTF-8
])
def test_identify_bad_value_or_metadata_exit_3(tmp_path, cycle5, capsys, edit):
    ms_path = tmp_path / "ms.csv"
    assert main(["synth", "--network", str(cycle5), "--tau", "4",
                 "--seed", "3", "--out", str(ms_path)]) == 0
    ms_path.write_text(edit(ms_path.read_text()), encoding="utf-8", errors="surrogateescape")
    capsys.readouterr()
    assert main(["identify", "--measurements", str(ms_path), "--prior", "complete"]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"input error: {ms_path}:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("edit", [
    lambda text: text.replace('"i": 1', '"i": true', 1),
    lambda text: text.replace('"n": 5', '"n": 5, "note": "\udcff"', 1),  # the byte 0xff
])
def test_sweep_malformed_network_exit_3(tmp_path, cycle5, capsys, edit):
    cycle5.write_text(edit(cycle5.read_text()), encoding="utf-8", errors="surrogateescape")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--network", str(cycle5), "--tau", "4", "--seeds", "1",
                 "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = captured.err.strip()
    assert err.startswith(f"input error: {cycle5}:") and len(err.splitlines()) == 1


def test_identify_report_names_solver_outcome(tmp_path, cycle5):
    clean, noisy = tmp_path / "ms.csv", tmp_path / "noisy.csv"
    out = tmp_path / "report.json"
    main(["synth", "--network", str(cycle5), "--tau", "4", "--seed", "3", "--out", str(clean)])
    main(["noise", "--in", str(clean), "--sigma", "0.001", "--seed", "5", "--out", str(noisy)])
    assert main(["identify", "--measurements", str(clean), "--prior", "complete",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["method"], report["converged"], report["kkt_residual"]) == ("exact", None, None)
    assert report["steps"] is None and report["damping"] is None
    assert report["factorizations"] is None
    assert main(["identify", "--measurements", str(noisy), "--prior", "complete",
                 "--relative", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["method"] == "stls" and report["converged"] is True
    assert 0 <= report["kkt_residual"] <= 1e-5
    assert report["steps"] >= 1 and report["damping"] == 0.0
    assert 1 <= report["factorizations"] <= report["steps"]
    assert main(["identify", "--measurements", str(noisy), "--prior", "complete",
                 "--relative", "--method", "plugin", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["method"] == "plugin" and report["steps"] is None


def test_identify_reports_plugin_where_auto_picks_it(tmp_path):
    """A noisy set under the complete prior on 36 nodes has 630 > 600 unknowns."""
    net_path, clean, noisy = tmp_path / "tree36.json", tmp_path / "ms.csv", tmp_path / "noisy.csv"
    out = tmp_path / "report.json"
    rng = np.random.default_rng(215)
    save_network(random_admittances(random_tree(36, rng), rng), net_path)
    assert main(["synth", "--network", str(net_path), "--tau", "35", "--profile", "independent",
                 "--out", str(clean)]) == 0
    assert main(["noise", "--in", str(clean), "--out", str(noisy)]) == 0
    assert main(["identify", "--measurements", str(noisy), "--prior", "complete",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["method"], report["unknowns"], report["converged"]) == ("plugin", 630, None)


@pytest.mark.parametrize("sigma, method", [("0", "exact"), ("0.001", "stls")])
def test_sweep_row_matches_identify(tmp_path, cycle5, sigma, method):
    """A sweep cell and identify on the same measurements score the same estimate."""
    from gridident import (NoiseSpec, PriorTopology, add_noise, identify_topology,
                           load_network, score_topology, synthesize_independent)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--network", str(cycle5), "--prior", "complete", "--tau", "5",
                 "--sigma", sigma, "--seeds", "2", "--profile", "independent",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[3:]]
    net = load_network(cycle5)
    prior = PriorTopology.complete(5)
    for row in rows:
        seed = int(row[1])
        ms = synthesize_independent(net, 5, seed)
        if float(sigma) > 0:
            ms = add_noise(ms, NoiseSpec(float(sigma)), seed)
        alpha = 0.01 if float(sigma) > 0 else 1e-5
        est = identify_topology(prior, 5, alpha, ms, relative_threshold=float(sigma) > 0)
        assert est.method == method
        score = score_topology(est, net)
        assert float(row[2]) == score.conductance_abs_error
        assert float(row[3]) == score.susceptance_abs_error
        assert float(row[4]) == score.f1


@pytest.mark.parametrize("argv, flag", [
    (["ranktable", "--n", "4", "--tau", "0"], "--tau"),
    (["ranktable", "--n", "4", "--tau", "3:2"], "--tau"),
    (["ranktable", "--n", "4", "--tau", "3,x"], "--tau"),
    (["sweep", "--tau", "4", "--seeds", "0"], "--seeds"),
    (["sweep", "--tau", "4", "--seeds", "-1"], "--seeds"),
    (["sweep", "--tau", "4", "--sigma", "1e-3", "--method", "plugin",
      "--replicates", "0"], "--replicates"),
    (["sweep", "--tau", "0,4"], "--tau"),
    (["synth", "--tau", "0"], "--tau"),
    (["sweep", "--tau", "4", "--sigma", "-1"], "--sigma"),
    (["sweep", "--tau", "4", "--sigma", "nan"], "--sigma"),
    (["phases", "--spec", "unread.json", "--bus", "b1", "--tau", "3", "--sigma", "-0.5"], "--sigma"),
    (["phases", "--spec", "unread.json", "--bus", "b1", "--tau", "3", "--sigma", "inf"], "--sigma"),
    (["ranktable", "--n", "4", "--tau", "3", "--seed", "-1"], "--seed"),
    (["synth", "--tau", "3", "--seed", "-1"], "--seed"),
    (["noise", "--in", "unread.csv", "--seed", "-1"], "--seed"),
    (["phases", "--spec", "unread.json", "--bus", "b1", "--tau", "3", "--seed", "-1"], "--seed"),
])
def test_count_flags_below_one_exit_2_before_output(tmp_path, cycle5, capsys, argv, flag):
    out = tmp_path / "out.csv"
    if argv[0] in ("sweep", "synth"):
        argv = argv + ["--network", str(cycle5)]
    if argv[0] != "ranktable":
        argv = argv + ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error:") and flag in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("spec", ["minus-one:1", "minus-one:a-b", "minus-one:",
                                  "minus-one:1-1", "minus-one:1-9"])
def test_malformed_minus_one_prior(capsys, spec):
    with pytest.raises(ValueError, match=r"minus-one:I-J") as err:
        parse_prior(spec, 5)
    assert repr(spec) in str(err.value)
    assert main(["ranktable", "--n", "5", "--prior", spec, "--tau", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "minus-one:I-J" in captured.err


def test_ranktable_prior_over_other_node_count_exit_2_before_output(capsys, cycle5):
    assert main(["ranktable", "--n", "4", "--prior", f"file:{cycle5}", "--tau", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "5 nodes" in captured.err and "--n 4" in captured.err


@pytest.mark.parametrize("alpha", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["identify", "sweep", "phases"])
def test_bad_alpha_exit_2_before_output(tmp_path, cycle5, capsys, command, alpha):
    out = tmp_path / "out"
    if command == "identify":
        ms_path = tmp_path / "ms.csv"
        main(["synth", "--network", str(cycle5), "--tau", "4", "--out", str(ms_path)])
        argv = ["identify", "--measurements", str(ms_path)]
    elif command == "sweep":
        argv = ["sweep", "--network", str(cycle5), "--tau", "4", "--seeds", "1"]
    else:
        argv = ["phases", "--spec", str(LATERAL3), "--bus", "b3", "--tau", "6"]
    capsys.readouterr()
    assert main(argv + [f"--alpha={alpha}", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: alpha must be finite and nonnegative")
    assert len(captured.err.strip().splitlines()) == 1


def test_sweep_node_count_mismatch_exit_2(tmp_path, cycle5, capsys):
    six = tmp_path / "six.json"
    save_network(random_admittances(NetworkGraph.from_edges(6, [(k, k + 1) for k in range(1, 6)]),
                                    np.random.default_rng(202)), six)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--network", str(cycle5), "--prior", f"tree:{six}", "--tau", "2",
                 "--seeds", "1", "--sigma", "1e-3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: node counts disagree")
    assert "6 nodes" in captured.err and "over 5" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_identify_threshold_rule_follows_the_data(tmp_path, cycle5):
    """Unset, the cut is relative iff the file is noisy; --relative/--no-relative override."""
    clean, noisy = tmp_path / "ms.csv", tmp_path / "noisy.csv"
    out = tmp_path / "report.json"
    main(["synth", "--network", str(cycle5), "--tau", "4", "--seed", "3",
          "--profile", "independent", "--out", str(clean)])
    main(["noise", "--in", str(clean), "--sigma", "0.001", "--seed", "5", "--out", str(noisy)])

    def run(path, *flags):
        assert main(["identify", "--measurements", str(path), "--truth", str(cycle5),
                     "--out", str(out), *flags]) == 0
        return json.loads(out.read_text())

    default_noisy = run(noisy)
    assert default_noisy["relative"] is True
    assert default_noisy == run(noisy, "--relative", "--alpha", "0.01")
    assert default_noisy["score"]["f1"] == 1.0
    absolute = run(noisy, "--no-relative")
    assert absolute["relative"] is False and absolute["alpha"] == 1e-5
    assert absolute["score"]["f1"] < 1.0  # 1e-5 keeps every noisy hypothesis edge
    default_clean = run(clean)
    assert default_clean["relative"] is False and default_clean["alpha"] == 1e-5
    assert run(clean, "--relative")["relative"] is True


@pytest.mark.parametrize("sigma, flags, relative, phases", [
    ("0.001", [], True, "bc"), ("0", [], False, "bc"), ("0", ["--relative"], True, "bc"),
    ("0.001", ["--no-relative"], False, "abc")])  # 1e-5 keeps the noise on phase a
def test_phases_threshold_rule_follows_the_data(tmp_path, sigma, flags, relative, phases):
    out = tmp_path / "phases.json"
    assert main(["phases", "--spec", str(LATERAL3), "--bus", "b3", "--tau", "6",
                 "--sigma", sigma, "--profile", "independent", "--out", str(out), *flags]) == 0
    payload = json.loads(out.read_text())
    assert payload["relative"] is relative
    assert payload["connected_phases"] == list(phases)
    if not relative:
        assert payload["alpha"] == 1e-5


COLD_PATH = """
import sys
from gridident.cli import main

network, work = sys.argv[1:]
clean, zero, noisy = (f"{work}/{name}.csv" for name in ("clean", "zero", "noisy"))
assert main(["synth", "--network", network, "--tau", "4", "--out", clean]) == 0
assert main(["noise", "--in", clean, "--sigma", "0", "--out", zero]) == 0
assert main(["identify", "--measurements", zero, "--prior", "complete",
             "--out", f"{work}/zero.json"]) == 0
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not loaded, loaded
# the noisy path imports scipy in its first Newton step
assert main(["noise", "--in", clean, "--out", noisy]) == 0
assert main(["identify", "--measurements", noisy, "--prior", "complete",
             "--out", f"{work}/noisy.json"]) == 0
assert "scipy.sparse" in sys.modules
"""


def test_noiseless_complete_path_never_imports_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", COLD_PATH, str(CYCLE5), str(tmp_path)],
                   env=env, check=True, timeout=120)
