"""The benchmark's workloads: inputs drawn from the workload seed, the CLI
calls that run on them, and the correctness check of every job's output.

A job is one `identify` call, or one (tau, seed) cell of a `sweep` call.
Every workload writes all the files the program reads into its own work
directory, so the program only ever receives generated files.
"""

from __future__ import annotations

import csv
import json
import math
import pathlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gridident as gi
from specs import NOISELESS_REL_TOL

NETWORKS = pathlib.Path(__file__).resolve().parents[1] / "networks"
SIGMA = 1e-3
MESH_EXTRA_EDGE_PROB = 0.12  # as tools/make_example_networks.py draws mesh14
SWEEP_COLUMNS = ("total_abs_error_conductance", "total_abs_error_susceptance", "f1", "runtime_s")


@dataclass
class JobOutcome:
    name: str
    ok: bool
    reason: str = ""
    f1: float = 0.0
    abs_err: float = 0.0


@dataclass
class Call:
    """One `gridident.cli.main(argv)` call, the jobs it runs and their check.

    check() is called only when main returned 0; it reads `out` and returns
    one outcome per job. `sweep` marks a call whose jobs are its sweep cells.
    """

    name: str
    argv: list
    out: pathlib.Path
    jobs: list
    check: Callable[[], list]
    sweep: bool = False


@dataclass
class Plan:
    warmup: Call
    rounds: list  # list of lists of Call; the timed loop runs whole rounds


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[pathlib.Path, int, bool], Plan]
    tail_pct: int  # fixed so that the seed code leaves >= 10 calls beyond it
    heavy: tuple  # span names of the layer expected to dominate job time


def edge_f1(predicted: set, actual: set) -> float:
    """Edge-set F1 with the conventions of gridident.score_topology."""
    tp = len(predicted & actual)
    precision = tp / len(predicted) if predicted else (1.0 if not actual else 0.0)
    recall = tp / len(actual) if actual else 1.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def check_identify(name: str, out: pathlib.Path, truth: gi.AdmittanceNetwork,
                   hypothesis: set, noiseless: bool) -> list:
    """Check one identify report against the truth network, independently of its score."""
    def fail(reason):
        return [JobOutcome(name, False, reason)]

    try:
        report = json.loads(out.read_text(encoding="utf-8"))
        est = {(int(e["i"]), int(e["j"])): complex(float(e["y"][0]), float(e["y"][1]))
               for e in report["edges"]}
        reported_f1 = float(report["score"]["f1"])
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return fail(f"missing or unparsable output: {exc!r}")
    outside = sorted(set(est) - hypothesis)
    if outside:
        return fail(f"edges outside the hypothesis: {outside[:3]}")
    if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in est.values()):
        return fail("non-finite admittance")
    true = dict(zip(truth.graph.edges, truth.y))
    f1 = edge_f1(set(est), set(true))
    diffs = [abs(est.get(p, 0j) - true.get(p, 0j)) for p in set(est) | set(true)]
    if abs(f1 - reported_f1) > 1e-9:
        return fail(f"reported F1 {reported_f1} but the edges give {f1}")
    if noiseless:
        rel = max(diffs) / max(abs(v) for v in true.values())
        if f1 != 1.0 or rel > NOISELESS_REL_TOL:
            return fail(f"noiseless recovery off: F1 {f1}, max relative error {rel:.3g}")
    return [JobOutcome(name, True, f1=f1, abs_err=float(sum(diffs)))]


def check_sweep(jobs: dict, out: pathlib.Path) -> list:
    """Check that a sweep CSV has exactly one finite row per expected (tau, seed)."""
    try:
        lines = [ln for ln in out.read_text(encoding="utf-8").splitlines()
                 if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        return [JobOutcome(name, False, f"missing output: {exc!r}") for name in jobs.values()]
    rows: dict = {}
    for row in csv.DictReader(lines):
        try:
            key = (int(row["tau"]), int(row["seed"]))
            values = {c: float(row[c]) for c in SWEEP_COLUMNS}
        except (KeyError, ValueError, TypeError):
            continue
        rows.setdefault(key, []).append(values)
    outcomes = []
    for key, name in jobs.items():
        found = rows.get(key, [])
        if len(found) != 1:
            outcomes.append(JobOutcome(name, False, f"{len(found)} parsable rows for tau, seed = {key}"))
            continue
        v = found[0]
        if not all(math.isfinite(x) for x in v.values()) or not 0.0 <= v["f1"] <= 1.0:
            outcomes.append(JobOutcome(name, False, f"bad values {v}"))
            continue
        outcomes.append(JobOutcome(
            name, True, f1=v["f1"],
            abs_err=v["total_abs_error_conductance"] + v["total_abs_error_susceptance"]))
    return outcomes


def _identify_call(name, measurements, prior, truth_path, truth, hypothesis, noiseless,
                   out, relative) -> Call:
    argv = ["identify", "--measurements", str(measurements), "--prior", prior,
            "--truth", str(truth_path), "--out", str(out)]
    if relative:
        argv.append("--relative")
    return Call(name, argv, out, [name],
                lambda: check_identify(name, out, truth, hypothesis, noiseless))


def _sweep_call(name, network, taus, out) -> Call:
    jobs = {(tau, 0): f"{name}/tau{tau}/seed0" for tau in taus}
    argv = ["sweep", "--network", str(network), "--prior", f"tree:{network}",
            "--tau", ",".join(str(t) for t in taus), "--sigma", repr(SIGMA),
            "--seeds", "1", "--out", str(out)]
    return Call(name, argv, out, list(jobs.values()), lambda: check_sweep(jobs, out), sweep=True)


def tree_network(seed: int, k: int = 0, n: int = 123) -> gi.AdmittanceNetwork:
    """Radial tree drawn as tools/make_example_networks.py draws tree123.

    Tree 0 of seed 12301 is networks/tree123.json.
    """
    rng = np.random.default_rng(seed if k == 0 else [seed, k])
    return gi.random_admittances(gi.random_tree(n, rng), rng)


def build_stls_mesh14(work: pathlib.Path, seed: int, tiny: bool) -> Plan:
    """Noisy identify --relative on mesh14 under the minus-one:1-8 prior, tau 12..20."""
    net = gi.load_network(NETWORKS / "mesh14.json")
    truth = work / "mesh14.json"
    gi.save_network(net, truth)
    hypothesis = set(gi.PriorTopology.minus_one(net.graph.n, (1, 8)).graph.edges)
    out = work / "identify.json"
    # 16 rounds of fresh noise keep a 30 s run from reusing a draw on the seed code
    rounds = []
    for r in range(1 if tiny else 16):
        calls = []
        for tau in (12, 13) if tiny else range(12, 21):
            ms = gi.synthesize_independent(net, tau, [seed, r, tau])
            path = work / f"m{r}_tau{tau}.csv"
            gi.save_measurements(gi.add_noise(ms, gi.NoiseSpec(SIGMA), [seed, r, tau]), path)
            calls.append(_identify_call(f"r{r}/tau{tau}", path, "minus-one:1-8", truth, net,
                                        hypothesis, False, out, relative=True))
        rounds.append(calls)
    return Plan(warmup=rounds[0][0], rounds=rounds)


def build_exact_complete(work: pathlib.Path, seed: int, tiny: bool) -> Plan:
    """Noiseless identify under the complete prior at tau = n-1."""
    nets = [] if tiny else [("feeder13", gi.load_network(NETWORKS / "feeder13_expanded.json"))]
    for n in (8, 10) if tiny else (40, 48):
        rng = np.random.default_rng([seed, n])
        graph = gi.random_connected_graph(n, rng, MESH_EXTRA_EDGE_PROB)
        nets.append((f"mesh{n}", gi.random_admittances(graph, rng)))
    out = work / "identify.json"
    calls = []
    for label, net in nets:
        n = net.graph.n
        truth = work / f"{label}.json"
        gi.save_network(net, truth)
        path = work / f"{label}.csv"
        gi.save_measurements(gi.synthesize_independent(net, n - 1, [seed, n]), path)
        calls.append(_identify_call(label, path, "complete", truth, net,
                                    set(gi.complete_graph(n).edges), True, out, relative=False))
    return Plan(warmup=calls[0], rounds=[calls])


def build_sweep_tree123(work: pathlib.Path, seed: int, tiny: bool) -> Plan:
    """sweep with a tree prior on radial trees, sigma 1e-3, tau in {1, 5, 10, 20}."""
    out = work / "sweep.csv"
    taus = (1, 5) if tiny else (1, 5, 10, 20)
    # Trees differ by up to 1.5x in sweep time through their LU fill, so every
    # call sweeps a fresh tree and a run averages over as many trees as calls.
    rounds = []
    for k in range(2 if tiny else 32):
        path = work / f"tree{k}.json"
        gi.save_network(tree_network(seed, k, 20 if tiny else 123), path)
        rounds.append([_sweep_call(f"tree{k}", path, taus, out)])
    return Plan(warmup=_sweep_call("warmup", work / "tree0.json", (1,), out), rounds=rounds)


WORKLOADS = {
    w.name: w for w in (
        Workload("stls-mesh14", build_stls_mesh14, 90, ("stls.solve",)),
        Workload("exact-complete", build_exact_complete, 50,
                 ("graph_core.numerical_rank", "exact_estimate.minimum_norm_vector")),
        Workload("sweep-tree123", build_sweep_tree123, 50, ("stls.solve",)),
    )
}
