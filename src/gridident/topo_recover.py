"""End-to-end topology recovery.

Estimate admittances under a hypothesis graph, zero out entries below a
threshold, read the surviving edges off as the recovered topology, identify
which phases of a multi-phase lateral are actually connected, and score
recovered topologies against a known truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, InsufficientMeasurementsError
from .exact_estimate import (PriorTopology, UniquenessDiagnostic, min_measurements,
                             require_unique, structured_least_squares)
from .graph_core import Edge, NetworkGraph, incidence_matrix
from .netmodel import AdmittanceNetwork, Bus, BusSpec, phase_expand, phase_node_map, PHASES
from .stls import SolverConfig, StlsSolution, solve_stls
from .synth import MeasurementSet

DEFAULT_ALPHA = 1e-5
DEFAULT_RELATIVE_ALPHA = 0.01
METHODS = ("auto", "exact", "stls", "plugin")

_STLS_UNKNOWN_CAP = 600  # beyond this the structured solve is impractical; fall back to plug-in

_THRESHOLD_RULES = {
    "none": "with no prior topology information a unique solution needs tau >= n-1",
    "tree": "a known tree topology needs tau >= 1",
    "minus_one_edge": "a known missing edge needs tau >= n-2 (n >= 4)",
    "explicit_graph": "heuristic lower bound ceil(e/n) for an explicit hypothesis",
}


def threshold(y: np.ndarray, alpha: float) -> np.ndarray:
    """Zero out entries with magnitude below alpha; idempotent, monotone in alpha."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    y = np.array(y, dtype=complex, copy=True)
    y[np.abs(y) < alpha] = 0
    return y


@dataclass(frozen=True, eq=False)
class TopologyEstimate:
    """Thresholded admittance estimate and the edge set it implies.

    y_hat is aligned with the hypothesis graph's canonical edge order;
    edges_hat are exactly the edges whose entry survived thresholding.
    method is "exact" (with the solve's rank diagnostic) or "stls" (with its solution).
    """

    y_hat: np.ndarray
    hypothesis: NetworkGraph
    edges_hat: tuple[Edge, ...]
    graph_hat: NetworkGraph
    alpha: float
    tau: int
    prior_kind: str
    method: str
    solver: StlsSolution | None = None
    uniqueness: UniquenessDiagnostic | None = None


@dataclass(frozen=True)
class TopologyScore:
    """Edge-set comparison plus admittance error against a ground-truth network."""

    true_positives: int
    false_positives: int
    false_negatives: int
    precision: float
    recall: float
    f1: float
    admittance_total_abs_error: float
    conductance_abs_error: float
    susceptance_abs_error: float


def choose_method(method: str, ms: MeasurementSet, prior: PriorTopology) -> str:
    """The one method-selection policy; an explicit method passes through.

    auto picks exact for noiseless sets, stls for noisy sets with at most 600
    unknowns, and plugin beyond.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method != "auto":
        return method
    if not ms.noisy:
        return "exact"
    return "stls" if prior.graph.e <= _STLS_UNKNOWN_CAP else "plugin"


def _effective_alpha(y: np.ndarray, alpha: float, relative: bool) -> float:
    if not relative:
        return alpha
    return alpha * float(np.median(np.abs(y))) if y.size else 0.0


def estimate_topology(beta: PriorTopology, alpha: float, ms: MeasurementSet,
                      cfg: SolverConfig | None = None, relative_threshold: bool = False,
                      method: str = "auto") -> TopologyEstimate:
    """identify_topology without its input gates.

    Below the identifiability threshold the exact path returns the
    minimum-norm answer. plugin solves the given set exactly; averaging
    replicates is the caller's job.
    """
    method = choose_method(method, ms, beta)
    solver = uniqueness = None
    if method == "stls":
        solver = solve_stls(ms, beta, cfg)
        y = solver.y
    else:
        y, uniqueness = structured_least_squares(ms, incidence_matrix(beta.graph))
    eff_alpha = _effective_alpha(y, alpha, relative_threshold)
    y_hat = threshold(y, eff_alpha)
    edges_hat = tuple(edge for edge, val in zip(beta.graph.edges, y_hat) if val != 0)
    return TopologyEstimate(
        y_hat=y_hat, hypothesis=beta.graph, edges_hat=edges_hat,
        graph_hat=NetworkGraph(beta.graph.n, edges_hat), alpha=eff_alpha, tau=ms.tau,
        prior_kind=beta.kind, method="stls" if method == "stls" else "exact", solver=solver,
        uniqueness=uniqueness)


def identify_topology(beta: PriorTopology, n: int, alpha: float, ms: MeasurementSet,
                      cfg: SolverConfig | None = None, relative_threshold: bool = False,
                      method: str = "auto") -> TopologyEstimate:
    """Estimate, threshold, and extract the recovered edge set.

    The method comes from choose_method. Gates: node counts must agree, tau
    must reach the prior's threshold, and the exact path raises NonUniqueError
    unless its stack determines every unknown. With relative_threshold the
    cutoff is alpha times the median estimated magnitude, which tracks the
    per-unit scale of the data.
    """
    if beta.graph.n != n or ms.n != n:
        raise AlignmentError(
            f"node counts disagree: prior {beta.graph.n}, measurements {ms.n}, requested {n}")
    needed = min_measurements(beta, n)
    if ms.tau < needed:
        raise InsufficientMeasurementsError(
            f"{ms.tau} operating points supplied but {needed} required: "
            f"{_THRESHOLD_RULES[beta.kind]}")
    est = estimate_topology(beta, alpha, ms, cfg, relative_threshold, method)
    require_unique(est.uniqueness)
    return est


def score_topology(est: TopologyEstimate, truth: AdmittanceNetwork) -> TopologyScore:
    """Set comparison of recovered vs true edges, plus total absolute admittance error.

    The error is accumulated over the union of hypothesis and true edges,
    with absent edges counted as zero admittance on either side.
    """
    if est.hypothesis.n != truth.graph.n:
        raise AlignmentError(
            f"estimate is over {est.hypothesis.n} nodes, truth over {truth.graph.n}")
    est_map = dict(zip(est.hypothesis.edges, est.y_hat))
    true_map = dict(zip(truth.graph.edges, truth.y))
    predicted = set(est.edges_hat)
    actual = set(truth.graph.edges)
    tp = len(predicted & actual)
    fp = len(predicted - actual)
    fn = len(actual - predicted)
    precision = tp / (tp + fp) if tp + fp else (1.0 if fn == 0 else 0.0)
    recall = tp / (tp + fn) if tp + fn else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    total = cond = susc = 0.0
    for edge in set(est_map) | actual:
        diff = est_map.get(edge, 0j) - true_map.get(edge, 0j)
        total += abs(diff)
        cond += abs(diff.real)
        susc += abs(diff.imag)
    return TopologyScore(
        true_positives=tp, false_positives=fp, false_negatives=fn,
        precision=precision, recall=recall, f1=f1,
        admittance_total_abs_error=total, conductance_abs_error=cond,
        susceptance_abs_error=susc)


@dataclass(frozen=True, eq=False)
class PhaseIdentification:
    """Which phases of a candidate bus carry a surviving admittance estimate."""

    bus: str
    connected: frozenset[str]
    incident_magnitude: dict
    estimate: TopologyEstimate


def identify_phases(spec: BusSpec, candidate_bus: str, ms_builder,
                    cfg: SolverConfig | None = None, alpha: float = DEFAULT_RELATIVE_ALPHA,
                    relative_threshold: bool = True) -> PhaseIdentification:
    """Decide which phases of a lateral are electrically connected.

    The candidate bus is hypothesized to carry all three phases; same-phase
    connections to each neighboring bus are added to the hypothesis wherever
    the neighbor declares the phase. Measurements are produced by ms_builder
    from the true expanded network, in which the hypothesized-but-absent
    phase nodes exist but carry no edges (their injected current is zero).
    A phase is reported connected when any incident admittance estimate
    survives thresholding.
    """
    buses = spec.bus_map()
    if candidate_bus not in buses:
        raise ValueError(f"unknown bus {candidate_bus!r}")
    touching = [br for br in spec.branches
                if candidate_bus in (br.from_bus, br.to_bus)]
    if not touching:
        raise ValueError(f"bus {candidate_bus!r} has no branches")
    if max(len(buses[br.to_bus if br.from_bus == candidate_bus else br.from_bus].phases)
           for br in touching) < 2:
        raise ValueError(f"bus {candidate_bus!r} is not adjacent to any multi-phase bus")

    aug_buses = tuple(Bus(b.name, PHASES) if b.name == candidate_bus else b
                      for b in spec.buses)
    aug_spec = BusSpec(aug_buses, spec.branches)
    true_net, node_map = phase_expand(aug_spec)
    n = len(phase_node_map(aug_spec))

    hyp_edges = set(true_net.graph.edges)
    for br in touching:
        other = br.to_bus if br.from_bus == candidate_bus else br.from_bus
        for p in PHASES:
            if p in buses[other].phases:
                a, b = node_map[(candidate_bus, p)], node_map[(other, p)]
                hyp_edges.add((a, b) if a < b else (b, a))
    prior = PriorTopology.explicit(NetworkGraph.from_edges(n, hyp_edges))

    ms = ms_builder(true_net)
    est = identify_topology(prior, n, alpha, ms, cfg, relative_threshold=relative_threshold)

    est_map = dict(zip(est.hypothesis.edges, est.y_hat))
    incident_magnitude = {}
    connected = set()
    for p in PHASES:
        node = node_map[(candidate_bus, p)]
        incident = [abs(val) for (i, j), val in est_map.items() if node in (i, j)]
        incident_magnitude[p] = max(incident, default=0.0)
        if any(val > 0 for val in incident):
            connected.add(p)
    return PhaseIdentification(bus=candidate_bus, connected=frozenset(connected),
                               incident_magnitude=incident_magnitude, estimate=est)


def solver_outcome(est: TopologyEstimate) -> dict:
    """The estimator that ran and how its solve went.

    The STLS path reports convergence and KKT residual; the exact path reports
    rank and unknowns, plus gram_rcond when the Cholesky path (not the lstsq
    fallback) produced the answer. Fields of the other path are None.
    """
    sol, diag = est.solver, est.uniqueness
    return {"method": est.method, "converged": None if sol is None else sol.converged,
            "kkt_residual": None if sol is None else float(sol.kkt_residual),
            "rank": None if diag is None else diag.rank,
            "unknowns": None if diag is None else diag.unknowns,
            "gram_rcond": None if diag is None else diag.gram_rcond}


def topology_report(est: TopologyEstimate, score: TopologyScore | None = None) -> dict:
    """JSON-ready report of a recovered topology."""
    report = {
        **solver_outcome(est),
        "edges": [
            {"i": i, "j": j, "y": [float(val.real), float(val.imag)]}
            for (i, j), val in zip(est.hypothesis.edges, est.y_hat)
            if val != 0
        ],
        "alpha": float(est.alpha),
        "tau": est.tau,
        "prior": est.prior_kind,
        "score": None,
    }
    if score is not None:
        report["score"] = {
            "precision": score.precision,
            "recall": score.recall,
            "f1": score.f1,
            "total_abs_error": score.admittance_total_abs_error,
        }
    return report
