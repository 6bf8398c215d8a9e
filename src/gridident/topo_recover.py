"""End-to-end topology recovery.

Estimate admittances under a hypothesis graph, zero out entries below a
threshold, read the surviving edges off as the recovered topology, identify
which phases of a multi-phase lateral are actually connected, and score
recovered topologies against a known truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError
from .exact_estimate import (PriorTopology, UniquenessDiagnostic, require_measurements,
                             require_unique, structured_least_squares)
from .graph_core import Edge, NetworkGraph
from .netmodel import AdmittanceNetwork, Bus, BusSpec, phase_expand, phase_node_map, PHASES
from .stls import StlsSolution, solve_stls
from .synth import MeasurementSet

DEFAULT_ALPHA = 1e-5
DEFAULT_RELATIVE_ALPHA = 0.01
METHODS = ("auto", "exact", "stls", "plugin")

_STLS_UNKNOWN_CAP = 600  # beyond this the structured solve is impractical; fall back to plug-in


def _require_alpha(alpha: float) -> None:
    if not 0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and nonnegative, got {alpha!r}")


def threshold(y: np.ndarray, alpha: float) -> np.ndarray:
    """Zero out entries with magnitude below alpha; idempotent, monotone in alpha."""
    _require_alpha(alpha)
    y = np.array(y, dtype=complex, copy=True)
    y[np.abs(y) < alpha] = 0
    return y


@dataclass(frozen=True, eq=False)
class TopologyEstimate:
    """Thresholded admittance estimate and the edge set it implies.

    y_hat is aligned with the hypothesis graph's canonical edge order;
    edges_hat are exactly the edges whose entry survived thresholding.
    method is the solver that ran, "exact", "plugin" or "stls" (with its
    solution); uniqueness is its rank diagnostic.
    """

    y_hat: np.ndarray
    hypothesis: NetworkGraph
    edges_hat: tuple[Edge, ...]
    alpha: float
    tau: int
    prior_kind: str
    method: str
    solver: StlsSolution | None = None
    uniqueness: UniquenessDiagnostic | None = None
    relative: bool = False


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


def estimate_topology(beta: PriorTopology, alpha: float | None, ms: MeasurementSet,
                      relative_threshold: bool | None = None,
                      method: str = "auto") -> TopologyEstimate:
    """identify_topology without its tau and uniqueness gates.

    The one threshold rule: unless relative_threshold says otherwise, the cut
    is relative (alpha times the median estimated magnitude) iff ms.noisy,
    and alpha defaults to DEFAULT_RELATIVE_ALPHA or DEFAULT_ALPHA to match.
    Below the identifiability threshold the exact path returns the
    minimum-norm answer. plugin solves the given set as exact does, and is
    reported as plugin; averaging replicates is the caller's job.
    """
    if beta.graph.n != ms.n:
        raise AlignmentError(
            f"node counts disagree: prior over {beta.graph.n} nodes, measurements over {ms.n}")
    relative = ms.noisy if relative_threshold is None else relative_threshold
    if alpha is None:
        alpha = DEFAULT_RELATIVE_ALPHA if relative else DEFAULT_ALPHA
    _require_alpha(alpha)
    method = choose_method(method, ms, beta)
    solver = None
    if method == "stls":
        solver = solve_stls(ms, beta)
        y, uniqueness = solver.y, solver.uniqueness
    else:
        y, uniqueness = structured_least_squares(ms, beta.graph.incidence)
    eff_alpha = _effective_alpha(y, alpha, relative)
    y_hat = threshold(y, eff_alpha)
    edges = beta.graph.edges
    edges_hat = tuple(edges[k] for k in np.flatnonzero(y_hat).tolist())
    return TopologyEstimate(
        y_hat=y_hat, hypothesis=beta.graph, edges_hat=edges_hat, alpha=eff_alpha, tau=ms.tau,
        prior_kind=beta.kind, method=method, solver=solver, uniqueness=uniqueness,
        relative=relative)


def identify_topology(beta: PriorTopology, n: int, alpha: float | None, ms: MeasurementSet,
                      relative_threshold: bool | None = None,
                      method: str = "auto") -> TopologyEstimate:
    """Estimate, threshold, and extract the recovered edge set.

    The method comes from choose_method and the cut from estimate_topology's
    threshold rule. Gates: the prior must be over n nodes and tau must reach
    its threshold (require_measurements), the measurements must be over the
    prior's nodes (estimate_topology), and require_unique rejects an exact or
    stls estimate whose least-squares stack leaves an unknown undetermined.
    """
    require_measurements(beta, n, ms.tau)
    est = estimate_topology(beta, alpha, ms, relative_threshold, method)
    require_unique(est.uniqueness)
    return est


def _edge_keys(graph: NetworkGraph) -> np.ndarray:
    # (i-1)*n + (j-1) per canonical edge (i, j): ascending, since the edge list is sorted
    inc = graph.incidence
    return inc.plus * graph.n + inc.minus


def score_topology(est: TopologyEstimate, truth: AdmittanceNetwork) -> TopologyScore:
    """Set comparison of recovered vs true edges, plus total absolute admittance error.

    The error is accumulated over the union of hypothesis and true edges,
    with absent edges counted as zero admittance on either side.
    """
    if est.hypothesis.n != truth.graph.n:
        raise AlignmentError(
            f"estimate is over {est.hypothesis.n} nodes, truth over {truth.graph.n}")
    hyp_keys, true_keys = _edge_keys(est.hypothesis), _edge_keys(truth.graph)
    # hypothesis positions of the true edges it holds, and where those sit in the truth
    _, in_hyp, in_truth = np.intersect1d(hyp_keys, true_keys, assume_unique=True,
                                         return_indices=True)
    kept = est.y_hat != 0
    tp = int(np.count_nonzero(kept[in_hyp]))
    fp = int(np.count_nonzero(kept)) - tp
    fn = truth.graph.e - tp
    precision = tp / (tp + fp) if tp + fp else (1.0 if fn == 0 else 0.0)
    recall = tp / (tp + fn) if tp + fn else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    # every hypothesis edge less its true value, then the true edges outside the hypothesis
    diff = est.y_hat.astype(complex)
    diff[in_hyp] -= truth.y[in_truth]
    missed = np.ones(truth.graph.e, dtype=bool)
    missed[in_truth] = False
    diff = np.concatenate([diff, -truth.y[missed]])
    return TopologyScore(
        true_positives=tp, false_positives=fp, false_negatives=fn,
        precision=precision, recall=recall, f1=f1,
        admittance_total_abs_error=float(np.abs(diff).sum()),
        conductance_abs_error=float(np.abs(diff.real).sum()),
        susceptance_abs_error=float(np.abs(diff.imag).sum()))


@dataclass(frozen=True, eq=False)
class PhaseIdentification:
    """Which phases of a candidate bus carry a surviving admittance estimate."""

    bus: str
    connected: frozenset[str]
    incident_magnitude: dict
    estimate: TopologyEstimate


def identify_phases(spec: BusSpec, candidate_bus: str, ms_builder, alpha: float | None = None,
                    relative_threshold: bool | None = None) -> PhaseIdentification:
    """Decide which phases of a lateral are electrically connected.

    The candidate bus is hypothesized to carry all three phases; same-phase
    connections to each neighboring bus are added to the hypothesis wherever
    the neighbor declares the phase. Measurements are produced by ms_builder
    from the true expanded network, in which the hypothesized-but-absent
    phase nodes exist but carry no edges (their injected current is zero).
    A phase is reported connected when any incident admittance estimate
    survives thresholding under estimate_topology's threshold rule.
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
    est = identify_topology(prior, n, alpha, ms, relative_threshold=relative_threshold)

    inc = est.hypothesis.incidence
    incident_magnitude = {}
    connected = set()
    for p in PHASES:
        node = node_map[(candidate_bus, p)] - 1
        incident = np.abs(est.y_hat[(inc.plus == node) | (inc.minus == node)])
        incident_magnitude[p] = float(incident.max(initial=0.0))
        if np.any(incident > 0):
            connected.add(p)
    return PhaseIdentification(bus=candidate_bus, connected=frozenset(connected),
                               incident_magnitude=incident_magnitude, estimate=est)


def solver_outcome(est: TopologyEstimate) -> dict:
    """The estimator that ran, "exact", "plugin" or "stls", and how its solve went.

    Every method reports rank and unknowns, plus gram_rcond when a fast path of
    structured_least_squares (not the lstsq fallback) made the least-squares
    solve (stls: its warm start): the Gram's Cholesky condition estimate, or
    lambda_min/lambda_max of the whitened voltage Gram under a hypothesis that
    holds every node pair. Convergence, KKT residual, Newton steps taken,
    SuperLU factorizations of the step system (one when every later step
    refined on the first step's factors; the first step's are complex
    Hermitian, a later step's refactorization real) and the damping of the
    last step are stls's, None on the exact and plugin paths.
    """
    sol, diag = est.solver, est.uniqueness
    return {"method": est.method, "converged": None if sol is None else sol.converged,
            "kkt_residual": None if sol is None else float(sol.kkt_residual),
            "steps": None if sol is None else len(sol.trace) - 1,
            "factorizations": None if sol is None else sol.factorizations,
            "damping": None if sol is None else float(sol.damping),
            "rank": diag.rank, "unknowns": diag.unknowns, "gram_rcond": diag.gram_rcond}


def topology_report(est: TopologyEstimate, score: TopologyScore | None = None) -> dict:
    """JSON-ready report of a recovered topology."""
    kept = np.flatnonzero(est.y_hat)
    inc, y = est.hypothesis.incidence, est.y_hat[kept]
    report = {
        **solver_outcome(est),
        "edges": [{"i": i, "j": j, "y": [re, im]} for i, j, re, im in zip(
            (inc.plus[kept] + 1).tolist(), (inc.minus[kept] + 1).tolist(),
            y.real.tolist(), y.imag.tolist())],
        "alpha": float(est.alpha),
        "relative": est.relative,
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
