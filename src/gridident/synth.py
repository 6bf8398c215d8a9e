"""Synthetic synchrophasor measurement generation.

Base voltage profiles, perturbed operating points with Kirchhoff-consistent
currents, Gaussian measurement noise, snapshot averaging, and assembly of the
coefficient matrix that maps edge admittances to nodal current injections.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ConsistencyError, NetworkFormatError
from .graph_core import NetworkGraph, incidence_matrix
from .netmodel import AdmittanceNetwork, matrix_from_vector, read_text

PERTURB_FRACTION = 0.05

# RNG streams are derived per operating point as [seed..., tag, k] so a
# measurement set with a larger tau extends a smaller one bit-for-bit.
_TAG_SYNTH = 0
_TAG_NOISE = 1
_TAG_INDEPENDENT = 2


def _seed_list(seed) -> list[int]:
    if seed is None:
        raise ValueError("a seed is required for reproducible generation")
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    return [int(s) for s in seed]


def _stream(seed, tag: int, k: int) -> np.random.Generator:
    return np.random.default_rng(_seed_list(seed) + [tag, k])


@dataclass(frozen=True)
class NoiseSpec:
    """Zero-mean Gaussian noise; per-entry standard deviation scales with |V| at the base point."""

    sigma_scale: float = 0.001

    def __post_init__(self):
        if not 0 <= self.sigma_scale < math.inf:
            raise ValueError("sigma_scale must be finite and nonnegative")


@dataclass(frozen=True, eq=False)
class OperatingPoint:
    """One synchronized snapshot of nodal voltages and injected currents."""

    V: np.ndarray
    I: np.ndarray
    k: int

    def __post_init__(self):
        v = np.asarray(self.V, dtype=complex)
        i = np.asarray(self.I, dtype=complex)
        if v.shape != i.shape or v.ndim != 1:
            raise ValueError("voltage and current vectors must be 1-d and equal length")
        object.__setattr__(self, "V", v)
        object.__setattr__(self, "I", i)

    @property
    def n(self) -> int:
        return self.V.shape[0]


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """A stack of operating points indexed 1..tau, plus generation metadata."""

    points: tuple[OperatingPoint, ...]
    noisy: bool = False
    noise_spec: NoiseSpec | None = None
    seed: object = None
    noise_seed: object = None
    surrogate: bool = False

    def __post_init__(self):
        if not self.points:
            raise ValueError("a measurement set needs at least one operating point")
        n = self.points[0].n
        for pos, p in enumerate(self.points, start=1):
            if p.n != n:
                raise AlignmentError("operating points disagree on node count")
            if p.k != pos:
                raise ValueError(f"operating point {pos} carries index {p.k}")

    @property
    def n(self) -> int:
        return self.points[0].n

    @property
    def tau(self) -> int:
        return len(self.points)

    def voltage_matrix(self) -> np.ndarray:
        """n-by-tau matrix with one column per operating point."""
        return np.column_stack([p.V for p in self.points])

    def current_matrix(self) -> np.ndarray:
        return np.column_stack([p.I for p in self.points])


def default_base_voltage(n: int, rng: np.random.Generator) -> np.ndarray:
    """Near-flat per-unit profile: unit magnitude, phase uniform in +-0.5 degrees."""
    phase = np.deg2rad(rng.uniform(-0.5, 0.5, n))
    return np.exp(1j * phase)


def random_voltage_matrix(n: int, tau: int, rng: np.random.Generator) -> np.ndarray:
    """Generic complex voltages (standard complex normal), one column per measurement."""
    return rng.standard_normal((n, tau)) + 1j * rng.standard_normal((n, tau))


def currents_from_voltages(net: AdmittanceNetwork, v: np.ndarray) -> np.ndarray:
    """Injected currents for a voltage profile, via the nodal matrix.

    Cross-checked against the incidence-matrix route; the two must agree to
    1e-12 relative or the network model itself is inconsistent.
    """
    v = np.asarray(v, dtype=complex)
    i_matrix = matrix_from_vector(net) @ v
    h = incidence_matrix(net.graph)
    i_edges = voltage_coefficient(h, v) @ net.y
    scale = max(1.0, float(np.linalg.norm(i_matrix)))
    if float(np.linalg.norm(i_matrix - i_edges)) > 1e-12 * scale:
        raise ConsistencyError("nodal-matrix and incidence current paths disagree")
    return i_matrix


def perturb_voltages(v1: np.ndarray, count: int, seed) -> list[np.ndarray]:
    """Base profile plus entrywise uniform perturbations within +-5% of |V| at the base point.

    Real and imaginary parts are perturbed independently; entries with zero
    base magnitude stay fixed. Output j depends only on (seed, j), so longer
    sequences extend shorter ones.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    v1 = np.asarray(v1, dtype=complex)
    envelope = PERTURB_FRACTION * np.abs(v1)
    out = []
    for j in range(1, count + 1):
        rng = _stream(seed, _TAG_SYNTH, j)
        delta = rng.uniform(-1.0, 1.0, v1.shape[0]) * envelope
        delta = delta + 1j * (rng.uniform(-1.0, 1.0, v1.shape[0]) * envelope)
        out.append(v1 + delta)
    return out


def synthesize(net: AdmittanceNetwork, tau: int, seed) -> MeasurementSet:
    """Noise-free measurement set: a near-flat base point plus tau-1 perturbed points.

    The base profile is default_base_voltage and each later point perturbs it
    as perturb_voltages does, both drawn from seed's synthesis streams, so a
    larger tau extends a smaller one bit for bit. Currents are always computed
    from the network model, so every point satisfies current conservation
    exactly.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    v1 = default_base_voltage(net.graph.n, _stream(seed, _TAG_SYNTH, 0))
    voltages = [v1] + perturb_voltages(v1, tau - 1, seed)
    points = tuple(
        OperatingPoint(v, currents_from_voltages(net, v), k)
        for k, v in enumerate(voltages, start=1)
    )
    return MeasurementSet(points, noisy=False, seed=seed)


def synthesize_independent(net: AdmittanceNetwork, tau: int, seed) -> MeasurementSet:
    """Noise-free measurement set with an independent generic voltage profile per point.

    Unlike the perturbed profile, successive operating points share no common
    base, so the stacked coefficient matrix is well conditioned right at the
    identifiability threshold. Point k depends only on (seed, k), so longer
    sets extend shorter ones.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    points = []
    for k in range(1, tau + 1):
        v = random_voltage_matrix(net.graph.n, 1, _stream(seed, _TAG_INDEPENDENT, k)).ravel()
        points.append(OperatingPoint(v, currents_from_voltages(net, v), k))
    return MeasurementSet(tuple(points), noisy=False, seed=seed)


def add_noise(ms: MeasurementSet, spec: NoiseSpec, seed) -> MeasurementSet:
    """Additive Gaussian noise on all four real components of every point.

    The per-entry standard deviation is sigma_scale * |V| of the base point,
    applied to voltage and current alike. The input set is left unmodified.
    """
    if ms.noisy:
        raise ValueError("measurement set is already noisy")
    sigma = spec.sigma_scale * np.abs(ms.points[0].V)
    points = []
    for p in ms.points:
        rng = _stream(seed, _TAG_NOISE, p.k)
        dv = rng.normal(0.0, sigma) + 1j * rng.normal(0.0, sigma)
        di = rng.normal(0.0, sigma) + 1j * rng.normal(0.0, sigma)
        points.append(OperatingPoint(p.V + dv, p.I + di, p.k))
    return MeasurementSet(tuple(points), noisy=spec.sigma_scale > 0, noise_spec=spec,
                          seed=ms.seed, noise_seed=seed)


def average_snapshots(sets) -> MeasurementSet:
    """Entrywise mean of aligned measurement sets, flagged as surrogate data."""
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one measurement set")
    first = sets[0]
    for ms in sets[1:]:
        if ms.n != first.n or ms.tau != first.tau:
            raise AlignmentError(
                f"cannot average sets of shape ({ms.n}, {ms.tau}) and ({first.n}, {first.tau})")
    points = []
    for k in range(first.tau):
        v = np.mean([ms.points[k].V for ms in sets], axis=0)
        i = np.mean([ms.points[k].I for ms in sets], axis=0)
        points.append(OperatingPoint(v, i, k + 1))
    return MeasurementSet(tuple(points), noisy=any(ms.noisy for ms in sets),
                          noise_spec=first.noise_spec, seed=first.seed, surrogate=True)


def voltage_coefficient(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coefficient matrix mapping edge admittances to nodal current injections.

    Column for edge (i, j) carries V_i - V_j at row i and the negation at
    row j; flipping an edge orientation in h leaves the product with any
    admittance vector unchanged. An n-by-tau v gives one n-by-e matrix per
    operating point, stacked along a trailing axis.
    """
    h = np.asarray(h)
    v = np.asarray(v)
    if h.shape[0] != v.shape[0]:
        raise AlignmentError("incidence matrix and voltage vector disagree on node count")
    return h.reshape(h.shape + (1,) * (v.ndim - 1)) * (h.T @ v)


def stack_coefficients(ms: MeasurementSet, h: np.ndarray):
    """Row-stack of per-point coefficient matrices and the matching current stack."""
    a = np.vstack([voltage_coefficient(h, p.V) for p in ms.points])
    i = np.concatenate([p.I for p in ms.points])
    return a, i


# -- measurement file encoding -----------------------------------------------

_HEADER = ["k", "node", "V_re", "V_im", "I_re", "I_im"]


def _format_seed(seed) -> str:
    if isinstance(seed, (int, np.integer)):
        return str(int(seed))
    return ",".join(str(int(s)) for s in seed)


def _parse_seed(text: str):
    parts = [int(p) for p in text.split(",")]
    return parts[0] if len(parts) == 1 else tuple(parts)


def _parse_flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError("expected true or false")
    return text == "true"


def save_measurements(ms: MeasurementSet, path) -> None:
    """Write one CSV row per (measurement index, node); floats keep full precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# gridident-measurements v1\n")
        fh.write(f"# noisy={'true' if ms.noisy else 'false'}\n")
        if ms.noise_spec is not None:
            fh.write(f"# sigma_scale={ms.noise_spec.sigma_scale!r}\n")
        if ms.seed is not None:
            fh.write(f"# seed={_format_seed(ms.seed)}\n")
        if ms.noise_seed is not None:
            fh.write(f"# noise_seed={_format_seed(ms.noise_seed)}\n")
        if ms.surrogate:
            fh.write("# surrogate=true\n")
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for p in ms.points:
            for node in range(1, p.n + 1):
                v, i = complex(p.V[node - 1]), complex(p.I[node - 1])
                writer.writerow([p.k, node, repr(v.real), repr(v.imag),
                                 repr(i.real), repr(i.imag)])


def load_measurements(path) -> MeasurementSet:
    meta: dict[str, str] = {}
    rows = []
    header_seen = False
    # read_text translates \r\n and \r, so every line ends at \n
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            body = text.lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        fields = text.split(",")  # save_measurements never quotes a field
        if not header_seen:
            if fields != _HEADER:
                raise NetworkFormatError(
                    f"{path}: line {lineno}: expected header {','.join(_HEADER)}")
            header_seen = True
            continue
        if len(fields) != len(_HEADER):
            raise NetworkFormatError(f"{path}: line {lineno}: expected 6 fields")
        try:
            row = (int(fields[0]), int(fields[1]), *(float(f) for f in fields[2:]))
        except ValueError as exc:
            raise NetworkFormatError(f"{path}: line {lineno}: {exc}") from exc
        if not all(math.isfinite(x) for x in row[2:]):
            raise NetworkFormatError(f"{path}: line {lineno}: V and I values must be finite")
        rows.append(row)
    if not header_seen or not rows:
        raise NetworkFormatError(f"{path}: no measurement rows found")
    ks = sorted({r[0] for r in rows})
    nodes = sorted({r[1] for r in rows})
    n, tau = len(nodes), len(ks)
    if ks != list(range(1, tau + 1)) or nodes != list(range(1, n + 1)):
        raise NetworkFormatError(f"{path}: measurement indices must cover 1..tau and nodes 1..n")
    by_key = {(r[0], r[1]): r[2:] for r in rows}
    if len(by_key) != len(rows):
        raise NetworkFormatError(f"{path}: duplicate (k, node) row")
    if len(by_key) != n * tau:
        missing = next((k, node) for k in ks for node in nodes if (k, node) not in by_key)
        raise NetworkFormatError(f"{path}: no row for (k, node) = {missing}")
    # each row's two (re, im) pairs, read as complex: V and I of point k at node
    vi = np.array([by_key[key] for key in sorted(by_key)]).view(complex).reshape(tau, n, 2)
    points = tuple(OperatingPoint(vi[t, :, 0], vi[t, :, 1], t + 1) for t in range(tau))

    def parsed(key, parse):
        if key not in meta:
            return None
        try:
            return parse(meta[key])
        except ValueError as exc:
            raise NetworkFormatError(f"{path}: # {key}={meta[key]}: {exc}") from exc

    return MeasurementSet(
        points,
        noisy=bool(parsed("noisy", _parse_flag)),
        noise_spec=parsed("sigma_scale", lambda text: NoiseSpec(float(text))),
        seed=parsed("seed", _parse_seed),
        noise_seed=parsed("noise_seed", _parse_seed),
        surrogate=bool(parsed("surrogate", _parse_flag)),
    )
