"""Smoke test of the benchmark: every workload at a tiny size, traced and untraced.

Run from the root of a checkout with
`PYTHONPATH=src python -m pytest -q benchmark/test_bench_smoke.py`.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from specs import DEFAULT_SEED, END_TO_END, HELD_OUT_SEED, PER_LAYER  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(pathlib.Path(cwd) / "benchmark" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in WORKLOADS:
        for seed, trace in ((DEFAULT_SEED, 0), (HELD_OUT_SEED, 0), (DEFAULT_SEED, 1)):
            proc = _run(workload, seed, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines()
            report = json.loads(next(ln[len("REPORT "):] for ln in lines if ln.startswith("REPORT ")))
            out[workload, seed, trace] = report, json.loads(lines[-1])
    return out


def test_benchmark_json_matches_specs():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    gated = {k: unit for k, (unit, _, g) in END_TO_END.items() if g}
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == gated
    assert all(m["better"] == END_TO_END[m["name"]][1] for m in BENCH["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (k, unit, better) for k, (unit, better, _) in PER_LAYER.items()]


def test_every_metric_emitted_with_unit_and_direction(runs):
    for (workload, seed, trace), (report, result) in runs.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, workload
        listed = BENCH["per_layer"] if trace else BENCH["end_to_end"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in listed}
        specs = PER_LAYER if trace else END_TO_END
        assert {k: (m["unit"], m["better"]) for k, m in report["metrics"].items()} == {
            k: spec[:2] for k, spec in specs.items()}
        assert all(isinstance(m["value"], (int, float)) for m in report["metrics"].values())


def test_seed_changes_inputs_but_not_metric_names(runs):
    for workload in WORKLOADS:
        default, _ = runs[workload, DEFAULT_SEED, 0]
        held_out, _ = runs[workload, HELD_OUT_SEED, 0]
        assert default["inputs_sha256"] != held_out["inputs_sha256"]
        assert list(default["metrics"]) == list(held_out["metrics"])


def test_default_seed_reproduces_committed_tree():
    sys.path.insert(0, str(ROOT / "src"))
    import gridident as gi
    from workloads import tree_network
    drawn = tree_network(DEFAULT_SEED)
    committed = gi.load_network(ROOT / "networks" / "tree123.json")
    assert drawn.graph == committed.graph
    assert np.array_equal(drawn.y, committed.y)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], DEFAULT_SEED, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
