"""Admittance network data model.

Edge-vector and matrix views of a network, slack-bus reduction and
reconstruction, multi-phase bus specs expanded to single-phase node networks,
and the JSON file encoding.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, NetworkFormatError
from .graph_core import Edge, NetworkGraph

FILE_VERSION = 1
PHASES = "abc"


@dataclass(frozen=True, eq=False)
class AdmittanceNetwork:
    """A graph plus one complex admittance per edge, in canonical edge order."""

    graph: NetworkGraph
    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=complex)
        if y.shape != (self.graph.e,):
            raise ValueError(
                f"admittance vector has length {y.shape}, graph has {self.graph.e} edges")
        if not np.all(np.isfinite(y)):
            raise ValueError("admittance entries must be finite")
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.graph.n


def random_admittances(graph: NetworkGraph, rng: np.random.Generator,
                       conductance=(0.5, 2.0), susceptance=(-2.0, -0.5)) -> AdmittanceNetwork:
    """Random per-unit line admittances: positive conductance, inductive susceptance."""
    g = rng.uniform(*conductance, graph.e)
    b = rng.uniform(*susceptance, graph.e)
    return AdmittanceNetwork(graph, g + 1j * b)


def matrix_from_vector(net: AdmittanceNetwork) -> np.ndarray:
    """Nodal admittance matrix: off-diagonal (i, j) = -y_ij, diagonals close row sums to zero."""
    n = net.graph.n
    y_mat = np.zeros((n, n), dtype=complex)
    for pos, (i, j) in enumerate(net.graph.edges):
        y_mat[i - 1, j - 1] = -net.y[pos]
        y_mat[j - 1, i - 1] = -net.y[pos]
    np.fill_diagonal(y_mat, -y_mat.sum(axis=1))
    return y_mat


def _check_matrix_contract(y_mat: np.ndarray, rtol: float = 1e-9) -> None:
    scale = max(float(np.abs(y_mat).max(initial=0.0)), 1e-30)
    asym = float(np.abs(y_mat - y_mat.T).max(initial=0.0))
    if asym > rtol * scale:
        raise ConsistencyError(f"matrix is not symmetric (deviation {asym:.3e})")
    rowsum = float(np.abs(y_mat.sum(axis=1)).max(initial=0.0))
    if rowsum > rtol * scale:
        raise ConsistencyError(f"matrix row sums are not zero (deviation {rowsum:.3e})")


def vector_from_matrix(y_mat: np.ndarray, g: NetworkGraph) -> np.ndarray:
    """Extract the per-edge admittance vector from a valid nodal matrix."""
    y_mat = np.asarray(y_mat, dtype=complex)
    if y_mat.shape != (g.n, g.n):
        raise ConsistencyError(f"matrix shape {y_mat.shape} does not match n={g.n}")
    _check_matrix_contract(y_mat)
    return np.array([-y_mat[i - 1, j - 1] for i, j in g.edges])


def reduce_slack(y_mat: np.ndarray) -> np.ndarray:
    """Drop the slack node (node 1) row and column."""
    y_mat = np.asarray(y_mat)
    if y_mat.shape[0] < 2:
        raise ValueError("need at least two nodes to reduce")
    return y_mat[1:, 1:].copy()


def reconstruct_full(ybar: np.ndarray) -> np.ndarray:
    """Rebuild the full nodal matrix from its slack-reduced block.

    The first row/column is the unique completion that restores symmetry and
    zero row sums, which pins the off-diagonal block at minus the reduced
    row sums.
    """
    ybar = np.asarray(ybar, dtype=complex)
    scale = max(float(np.abs(ybar).max(initial=0.0)), 1e-30)
    if float(np.abs(ybar - ybar.T).max(initial=0.0)) > 1e-9 * scale:
        raise ConsistencyError("reduced matrix must be symmetric to admit a completion")
    m = ybar.shape[0]
    first = -ybar.sum(axis=1)
    full = np.zeros((m + 1, m + 1), dtype=complex)
    full[1:, 1:] = ybar
    full[1:, 0] = first
    full[0, 1:] = first
    full[0, 0] = -first.sum()
    return full


# -- multi-phase bus specs ---------------------------------------------------

@dataclass(frozen=True)
class Bus:
    name: str
    phases: str  # subset of "abc" in canonical order


@dataclass(frozen=True)
class Coupling:
    from_phase: str
    to_phase: str
    y: complex


@dataclass(frozen=True)
class Branch:
    from_bus: str
    to_bus: str
    couplings: tuple[Coupling, ...]


@dataclass(frozen=True)
class BusSpec:
    """Buses with per-bus phase sets and branches with per-phase-pair admittances."""

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]

    def __post_init__(self):
        names = [b.name for b in self.buses]
        if len(set(names)) != len(names):
            raise NetworkFormatError("duplicate bus names in spec")
        for bus in self.buses:
            if not bus.phases or any(p not in PHASES for p in bus.phases):
                raise NetworkFormatError(f"bus {bus.name}: phases must be a subset of 'abc'")
            if list(bus.phases) != sorted(set(bus.phases)):
                raise NetworkFormatError(f"bus {bus.name}: phases must be unique and in 'abc' order")
        byname = self.bus_map()
        for br in self.branches:
            for end in (br.from_bus, br.to_bus):
                if end not in byname:
                    raise NetworkFormatError(f"branch references unknown bus {end}")
            if br.from_bus == br.to_bus:
                raise NetworkFormatError(f"branch connects bus {br.from_bus} to itself")
            for c in br.couplings:
                if c.from_phase not in tuple(byname[br.from_bus].phases):
                    raise NetworkFormatError(
                        f"branch {br.from_bus}-{br.to_bus}: phase {c.from_phase} "
                        f"not declared at bus {br.from_bus}")
                if c.to_phase not in tuple(byname[br.to_bus].phases):
                    raise NetworkFormatError(
                        f"branch {br.from_bus}-{br.to_bus}: phase {c.to_phase} "
                        f"not declared at bus {br.to_bus}")

    def bus_map(self) -> dict[str, Bus]:
        return {b.name: b for b in self.buses}


def phase_node_map(spec: BusSpec) -> dict[tuple[str, str], int]:
    """1-based node index for every (bus, phase) pair, buses in declared order."""
    mapping = {}
    idx = 1
    for bus in spec.buses:
        for p in bus.phases:
            mapping[(bus.name, p)] = idx
            idx += 1
    return mapping


def phase_expand(spec: BusSpec):
    """Expand a multi-phase bus spec into a single-phase-node admittance network.

    Returns (network, node_map) where node_map sends (bus, phase) to the
    1-based node index. Every declared coupling becomes one edge between the
    corresponding phase nodes; duplicate couplings onto the same node pair are
    rejected.
    """
    node_map = phase_node_map(spec)
    n = len(node_map)
    edge_y: dict[Edge, complex] = {}
    for br in spec.branches:
        for c in br.couplings:
            a = node_map[(br.from_bus, c.from_phase)]
            b = node_map[(br.to_bus, c.to_phase)]
            pair = (a, b) if a < b else (b, a)
            if pair in edge_y:
                raise NetworkFormatError(
                    f"branch {br.from_bus}-{br.to_bus}: duplicate coupling onto nodes {pair}")
            edge_y[pair] = complex(c.y)
    graph = NetworkGraph.from_edges(n, edge_y.keys())
    y = np.array([edge_y[edge] for edge in graph.edges], dtype=complex)
    return AdmittanceNetwork(graph, y), node_map


# -- file encoding -----------------------------------------------------------

def _complex_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def network_payload(net: AdmittanceNetwork, labels=None, bus_spec: BusSpec | None = None) -> dict:
    payload = {
        "version": FILE_VERSION,
        "n": net.graph.n,
        "edges": [
            {"i": i, "j": j, "y": _complex_pair(y)}
            for (i, j), y in zip(net.graph.edges, net.y)
        ],
    }
    if labels is not None:
        payload["labels"] = list(labels)
    if bus_spec is not None:
        payload["bus_spec"] = bus_spec_payload(bus_spec)
    return payload


def save_network(net: AdmittanceNetwork, path, labels=None, bus_spec=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_payload(net, labels, bus_spec), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _require(condition, message: str):
    if not condition:
        raise NetworkFormatError(message)


def _is_pair(y) -> bool:  # json reads NaN, Infinity and huge ints; bools are ints
    return isinstance(y, list) and len(y) == 2 and all(
        type(v) in (int, float) and abs(v) <= sys.float_info.max for v in y)


def network_from_payload(payload: dict) -> AdmittanceNetwork:
    _require(isinstance(payload, dict), "top level must be an object")
    _require(payload.get("version") == FILE_VERSION,
             f"unsupported file version {payload.get('version')!r} (expected {FILE_VERSION})")
    n = payload.get("n")
    _require(isinstance(n, int) and n >= 1, f"field 'n' must be a positive integer, got {n!r}")
    raw_edges = payload.get("edges")
    _require(isinstance(raw_edges, list), "field 'edges' must be a list")
    pairs = []
    ys = {}
    for pos, item in enumerate(raw_edges):
        where = f"edge #{pos + 1}"
        _require(isinstance(item, dict), f"{where}: must be an object")
        i, j = item.get("i"), item.get("j")
        _require(isinstance(i, int) and isinstance(j, int),
                 f"{where}: fields 'i' and 'j' must be integers")
        y = item.get("y")
        _require(_is_pair(y), f"{where}: field 'y' must be a [real, imag] pair")
        pair = (i, j) if i < j else (j, i)
        pairs.append(pair)
        ys[pair] = complex(y[0], y[1])
    try:
        graph = NetworkGraph.from_edges(n, pairs)
    except ValueError as exc:
        raise NetworkFormatError(str(exc)) from exc
    return AdmittanceNetwork(graph, np.array([ys[e] for e in graph.edges], dtype=complex))


def load_network(path) -> AdmittanceNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise NetworkFormatError(
                f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    try:
        return network_from_payload(payload)
    except NetworkFormatError as exc:
        raise NetworkFormatError(f"{path}: {exc}") from exc


def bus_spec_payload(spec: BusSpec) -> dict:
    return {
        "buses": [{"name": b.name, "phases": b.phases} for b in spec.buses],
        "branches": [
            {
                "from": br.from_bus,
                "to": br.to_bus,
                "couplings": [
                    {"from_phase": c.from_phase, "to_phase": c.to_phase,
                     "y": _complex_pair(c.y)}
                    for c in br.couplings
                ],
            }
            for br in spec.branches
        ],
    }


def bus_spec_from_payload(payload: dict) -> BusSpec:
    _require(isinstance(payload, dict), "bus spec must be an object")
    _require(isinstance(payload.get("buses", []), list)
             and isinstance(payload.get("branches", []), list),
             "fields 'buses' and 'branches' must be lists")
    buses = []
    for item in payload.get("buses", []):
        _require(isinstance(item, dict) and isinstance(item.get("name"), str)
                 and isinstance(item.get("phases"), str),
                 f"bad bus entry {item!r}")
        buses.append(Bus(item["name"], item["phases"]))
    branches = []
    for item in payload.get("branches", []):
        _require(isinstance(item, dict) and isinstance(item.get("from"), str)
                 and isinstance(item.get("to"), str)
                 and isinstance(item.get("couplings", []), list),
                 f"bad branch entry {item!r}")
        couplings = []
        for c in item.get("couplings", []):
            _require(isinstance(c, dict) and isinstance(c.get("from_phase"), str)
                     and isinstance(c.get("to_phase"), str) and _is_pair(c.get("y")),
                     f"bad coupling entry {c!r}")
            couplings.append(Coupling(c["from_phase"], c["to_phase"],
                                      complex(c["y"][0], c["y"][1])))
        branches.append(Branch(item["from"], item["to"], tuple(couplings)))
    return BusSpec(tuple(buses), tuple(branches))


def save_bus_spec(spec: BusSpec, path) -> None:
    payload = {"version": FILE_VERSION, **bus_spec_payload(spec)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_bus_spec(path) -> BusSpec:
    """Read a standalone bus-spec file or the bus_spec block of a network file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise NetworkFormatError(
                f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if isinstance(payload, dict) and "bus_spec" in payload:
        payload = payload["bus_spec"]
    try:
        return bus_spec_from_payload(payload)
    except NetworkFormatError as exc:
        raise NetworkFormatError(f"{path}: {exc}") from exc
