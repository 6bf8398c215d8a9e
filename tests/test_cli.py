import json
import re

import numpy as np
import pytest

from gridident import (NetworkGraph, load_measurements, random_admittances,
                       save_network)
from gridident.cli import main, parse_prior, parse_tau_list


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
    assert not np.array_equal(noisy.points[0].V, clean.points[0].V)


def test_sweep_outputs(tmp_path, cycle5, monkeypatch):
    monkeypatch.setenv("GRIDIDENT_THREADS", "2")
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


def test_missing_network_exit_2(tmp_path):
    assert main(["synth", "--network", str(tmp_path / "nope.json"),
                 "--tau", "3", "--seed", "1", "--out", str(tmp_path / "x.csv")]) == 2


def test_phases_malformed_coupling_exit_3(tmp_path, capsys):
    spec = {"buses": [{"name": "b1", "phases": "abc"}, {"name": "b2", "phases": "abc"}],
            "branches": [{"from": "b1", "to": "b2", "couplings": []}]}
    for coupling in ({"to_phase": "b", "y": [1, -1]},
                     {"from_phase": "a", "to_phase": "a", "y": ["x", 1]}):
        spec["branches"][0]["couplings"] = [coupling]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["phases", "--spec", str(path), "--bus", "b2", "--tau", "3"]) == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("input error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("edit", [
    lambda text: re.sub(r"\n1,2,[^,]*,", "\n1,2,nan,", text, count=1),
    lambda text: "# sigma_scale=abc\n" + text,
])
def test_identify_bad_value_or_metadata_exit_3(tmp_path, cycle5, capsys, edit):
    ms_path = tmp_path / "ms.csv"
    assert main(["synth", "--network", str(cycle5), "--tau", "4",
                 "--seed", "3", "--out", str(ms_path)]) == 0
    ms_path.write_text(edit(ms_path.read_text()))
    capsys.readouterr()
    assert main(["identify", "--measurements", str(ms_path), "--prior", "complete"]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("input error:") and len(err.splitlines()) == 1


def test_identify_report_names_solver_outcome(tmp_path, cycle5):
    clean, noisy = tmp_path / "ms.csv", tmp_path / "noisy.csv"
    out = tmp_path / "report.json"
    main(["synth", "--network", str(cycle5), "--tau", "4", "--seed", "3", "--out", str(clean)])
    main(["noise", "--in", str(clean), "--sigma", "0.001", "--seed", "5", "--out", str(noisy)])
    assert main(["identify", "--measurements", str(clean), "--prior", "complete",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["method"], report["converged"], report["kkt_residual"]) == ("exact", None, None)
    assert main(["identify", "--measurements", str(noisy), "--prior", "complete",
                 "--relative", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["method"] == "stls" and report["converged"] is True
    assert 0 <= report["kkt_residual"] <= 1e-5
    assert main(["identify", "--measurements", str(noisy), "--prior", "complete",
                 "--relative", "--method", "plugin", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["method"] == "exact"


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
])
def test_count_flags_below_one_exit_2_before_output(tmp_path, cycle5, capsys, argv, flag):
    out = tmp_path / "out.csv"
    if argv[0] in ("sweep", "synth"):
        argv = argv + ["--network", str(cycle5), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error:") and flag in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("spec", ["minus-one:1", "minus-one:a-b", "minus-one:"])
def test_malformed_minus_one_prior(capsys, spec):
    with pytest.raises(ValueError, match=r"minus-one:I-J") as err:
        parse_prior(spec, 5)
    assert repr(spec) in str(err.value)
    assert main(["ranktable", "--n", "5", "--prior", spec, "--tau", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "minus-one:I-J" in captured.err
