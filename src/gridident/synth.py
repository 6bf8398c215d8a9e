"""Synthetic synchrophasor measurement generation.

Base voltage profiles, perturbed operating points with Kirchhoff-consistent
currents, Gaussian measurement noise, snapshot averaging, and assembly of the
coefficient matrix that maps edge admittances to nodal current injections.

A MeasurementSet stores its tau operating points as one read-only complex
tau x 2 x n array: points[t, 0] holds the voltages of point t+1 and
points[t, 1] its currents. Slicing the leading axis selects points, so
MeasurementSet(ms.points[:k]) is the set of ms's first k points.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ConsistencyError, NetworkFormatError
from .netmodel import (FILE_VERSION, AdmittanceNetwork, check_version, matrix_from_vector,
                       read_text)

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
class MeasurementSet:
    """tau operating points as one complex tau x 2 x n array, plus generation metadata.

    points[t] stacks the nodal voltages of point t+1 over its injected
    currents. The constructor stores a read-only copy of any array-like of
    that shape, so MeasurementSet(ms.points[:k], ...) holds ms's first k
    points and no later write to the input reaches the set.
    """

    points: np.ndarray
    noisy: bool = False
    noise_spec: NoiseSpec | None = None
    seed: object = None
    noise_seed: object = None
    surrogate: bool = False

    def __post_init__(self):
        points = np.array(self.points, dtype=complex)
        if points.ndim != 3 or points.shape[1] != 2 or 0 in points.shape:
            raise ValueError(
                f"points must be a tau x 2 x n array with tau, n >= 1, got shape {points.shape}")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    @property
    def n(self) -> int:
        return self.points.shape[2]

    @property
    def tau(self) -> int:
        return self.points.shape[0]

    def voltage_matrix(self) -> np.ndarray:
        """New n-by-tau array with one column per operating point."""
        return self.points[:, 0].T.copy()

    def current_matrix(self) -> np.ndarray:
        return self.points[:, 1].T.copy()


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
    profiles = v.reshape(v.shape[0], -1).T  # one row per profile, also for an n-by-k v
    return _checked_points(net, profiles, profiles.shape[0])[:, 1].T.reshape(v.shape)


# the incidence cross-check reads this many entries of (e or n)-by-columns at a time
_CHECK_CHUNK = 1 << 15


def _checked_points(net: AdmittanceNetwork, voltages, tau: int) -> np.ndarray:
    """The tau x 2 x n points of tau voltage profiles (any iterable), with their currents.

    One nodal matrix and one matvec per profile, each written into its point,
    so a point's currents do not depend on tau; then one cross-check of them
    all against the incidence route, run over chunks of points so that its
    e-by-chunk temporaries stay small.
    """
    y_mat = matrix_from_vector(net)
    points = np.empty((tau, 2, net.graph.n), dtype=complex)
    for point, v in zip(points, voltages, strict=True):
        point[0] = v
        point[1] = y_mat @ point[0]
    del y_mat
    inc = net.graph.incidence
    step = max(1, _CHECK_CHUNK // max(inc.n, inc.e))
    misfit = total = 0.0
    for start in range(0, points.shape[0], step):
        chunk = points[start:start + step]
        v, i_matrix = chunk[:, 0].T, chunk[:, 1].T
        i_edges = inc.scatter(inc.diff(v) * net.y[:, np.newaxis])
        misfit += float(np.linalg.norm(i_matrix - i_edges)) ** 2
        total += float(np.linalg.norm(i_matrix)) ** 2
    if math.sqrt(misfit) > 1e-12 * max(1.0, math.sqrt(total)):
        raise ConsistencyError("nodal-matrix and incidence current paths disagree")
    return points


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
    return MeasurementSet(_checked_points(net, [v1] + perturb_voltages(v1, tau - 1, seed), tau),
                          seed=seed)


def synthesize_independent(net: AdmittanceNetwork, tau: int, seed) -> MeasurementSet:
    """Noise-free measurement set with an independent generic voltage profile per point.

    Unlike the perturbed profile, successive operating points share no common
    base, so the stacked coefficient matrix is well conditioned right at the
    identifiability threshold. Point k depends only on (seed, k), so longer
    sets extend shorter ones.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    voltages = (random_voltage_matrix(net.graph.n, 1, _stream(seed, _TAG_INDEPENDENT, k)).ravel()
                for k in range(1, tau + 1))
    return MeasurementSet(_checked_points(net, voltages, tau), seed=seed)


def add_noise(ms: MeasurementSet, spec: NoiseSpec, seed) -> MeasurementSet:
    """Additive Gaussian noise on all four real components of every point.

    The per-entry standard deviation is sigma_scale * |V| of the base point,
    applied to voltage and current alike. The input set is left unmodified.
    """
    if ms.noisy:
        raise ValueError("measurement set is already noisy")
    sigma = spec.sigma_scale * np.abs(ms.points[0, 0])
    # point k's stream draws Re dV, Im dV, Re dI, Im dI in turn
    draws = np.array([_stream(seed, _TAG_NOISE, k).normal(0.0, sigma, (4, ms.n))
                      for k in range(1, ms.tau + 1)])
    return MeasurementSet(ms.points + (draws[:, 0::2] + 1j * draws[:, 1::2]),
                          noisy=spec.sigma_scale > 0, noise_spec=spec,
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
    return MeasurementSet(np.mean([ms.points for ms in sets], axis=0),
                          noisy=any(ms.noisy for ms in sets),
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
    a = voltage_coefficient(h, ms.voltage_matrix())  # n x e x tau
    # explicit row count: an edgeless h leaves nothing to infer -1 from
    return a.transpose(2, 0, 1).reshape(ms.tau * ms.n, a.shape[1]), ms.points[:, 1].flatten()


# -- measurement file encoding -----------------------------------------------

_MAGIC = "gridident-measurements"
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
        fh.write(f"# {_MAGIC} v{FILE_VERSION}\n")
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
        # tau x n x 4 Python floats: V_re, V_im, I_re, I_im of point k at node
        rows = ms.points.transpose(0, 2, 1).copy().view(float).tolist()
        for k, point in enumerate(rows, start=1):
            for node, values in enumerate(point, start=1):
                writer.writerow([k, node, *map(repr, values)])


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
            elif body.startswith(_MAGIC):  # "# gridident-measurements v1"; optional
                declared = body[len(_MAGIC):].strip()
                number = re.fullmatch(r"v([0-9]+)", declared)
                try:
                    check_version(int(number[1]) if number else declared)
                except (NetworkFormatError, ValueError) as exc:  # or past int's digit limit
                    raise NetworkFormatError(f"{path}: line {lineno}: {exc}") from exc
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

    def parsed(key, parse):
        if key not in meta:
            return None
        try:
            return parse(meta[key])
        except ValueError as exc:
            raise NetworkFormatError(f"{path}: # {key}={meta[key]}: {exc}") from exc

    return MeasurementSet(
        vi.transpose(0, 2, 1),
        noisy=bool(parsed("noisy", _parse_flag)),
        noise_spec=parsed("sigma_scale", lambda text: NoiseSpec(float(text))),
        seed=parsed("seed", _parse_seed),
        noise_seed=parsed("noise_seed", _parse_seed),
        surrogate=bool(parsed("surrogate", _parse_flag)),
    )
