"""Command-line experiment runner.

Subcommands: ranktable (measurement-count vs rank tables), synth (generate
noise-free measurements), noise (corrupt a measurement file), sweep
(error-vs-measurement-count experiments over seeds), identify (recover a
topology from a measurement file), phases (phase connectivity of a lateral).
synth, sweep and phases draw voltages with --profile flat or independent.

Subcommands only parse arguments and format output. identify and phases
estimate with topo_recover.identify_topology; sweep cells with its ungated
core, estimate_topology, to record errors below the identifiability threshold.

Data goes to standard output or files: identify and phases write one JSON
object with sorted keys on one line, sweep a CSV with '#' header lines.
sweep's runtime_s is each cell's wall time; in a fresh process, the first
cell that runs STLS also loads scipy, which stls defers to its first Newton
step, so that cell reads about 0.3 s more than the rest.
Progress and timing go to standard error. Exit codes: 0 success, 2
precondition violation, 3 malformed input (a network, bus-spec or measurement
file that does not parse or is not UTF-8), 4 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from .errors import AlignmentError, GridIdentError, NetworkFormatError, SolverFailureError
from .exact_estimate import PriorTopology, min_measurements, structured_least_squares
from .netmodel import load_bus_spec, load_network
from .synth import (MeasurementSet, NoiseSpec, add_noise, average_snapshots,
                    load_measurements, random_voltage_matrix, save_measurements,
                    synthesize, synthesize_independent)
from .topo_recover import (METHODS, choose_method, estimate_topology, identify_phases,
                           identify_topology, score_topology, solver_outcome,
                           topology_report)

PROFILES = ("flat", "independent")
METHOD_HELP = ("auto: exact if noiseless, else stls up to 600 unknowns and plugin beyond; "
               "plugin is least squares on the average of --replicates noisy copies "
               "(sweep), which on one measurement file is exact")


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def parse_prior(text: str, n: int) -> PriorTopology:
    """Prior spec: complete | minus-one:I-J | tree:PATH | file:PATH."""
    if text == "complete":
        return PriorTopology.complete(n)
    if text.startswith("minus-one:"):
        try:
            i, j = map(int, text[len("minus-one:"):].split("-"))
        except ValueError:
            i = j = 0
        if not 1 <= min(i, j) < max(i, j) <= n:
            raise ValueError(f"prior spec {text!r} is not of the form minus-one:I-J "
                             f"with distinct nodes I, J in 1..{n}")
        return PriorTopology.minus_one(n, (i, j))
    if text.startswith("tree:"):
        return PriorTopology.tree(load_network(text[len("tree:"):]).graph)
    if text.startswith("file:"):
        return PriorTopology.explicit(load_network(text[len("file:"):]).graph)
    raise ValueError(f"unknown prior spec {text!r}")


def parse_tau_list(text: str) -> list[int]:
    """Comma list '29,30,31' or inclusive range '6:20'; every value must be at least 1."""
    try:
        if ":" in text:
            lo, _, hi = text.partition(":")
            taus = list(range(int(lo), int(hi) + 1))
        else:
            taus = [int(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"--tau {text!r} is not a comma list or lo:hi range of integers") from None
    if not taus:
        raise ValueError(f"--tau {text!r} names no operating-point count")
    _require_positive("--tau", *taus)
    return taus


def _require_positive(flag: str, *values: int) -> None:
    """Reject a count flag below 1 before any work or output."""
    for value in values:
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")


def _require_seed(seed: int) -> None:
    """Reject a negative --seed before any work or output: numpy's seed streams take none."""
    if seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {seed}")


def _require_sigma(sigma: float) -> None:
    """Reject a negative or non-finite --sigma before any work or output."""
    if not 0 <= sigma < math.inf:
        raise ValueError(f"--sigma must be finite and nonnegative, got {sigma!r}")


def _make_measurements(net, tau: int, seed, profile: str) -> MeasurementSet:
    """Noise-free measurements with the requested voltage profile (one of PROFILES).

    flat, the default: synthesize's near-flat per-unit base point plus small
    perturbations of it. independent: synthesize_independent's fresh generic
    profile per operating point, which keeps the problem well conditioned
    right at the identifiability threshold.
    """
    if profile == "independent":
        return synthesize_independent(net, tau, seed)
    return synthesize(net, tau, seed)


# -- subcommands ---------------------------------------------------------------

def cmd_ranktable(args) -> int:
    _require_seed(args.seed)
    prior = parse_prior(args.prior, args.n)
    if prior.graph.n != args.n:
        raise AlignmentError(
            f"node counts disagree: prior over {prior.graph.n} nodes, --n {args.n}")
    taus = parse_tau_list(args.tau)
    inc = prior.graph.incidence
    print(f"{'tau':>5} {'rank':>7} {'unknowns':>9} {'unique':>7}")
    for tau in taus:
        t0 = time.perf_counter()
        v = random_voltage_matrix(args.n, tau, np.random.default_rng([args.seed, 2, tau]))
        # the estimator's own rank verdict; zero currents leave it unchanged
        ms = MeasurementSet(np.stack([v.T, np.zeros_like(v.T)], axis=1))
        d = structured_least_squares(ms, inc)[1]
        print(f"{tau:>5} {d.rank:>7} {d.unknowns:>9} {'yes' if d.unique else 'no':>7}")
        _progress(f"ranktable tau={tau}: {time.perf_counter() - t0:.2f}s")
    return 0


def cmd_synth(args) -> int:
    _require_positive("--tau", args.tau)
    _require_seed(args.seed)
    net = load_network(args.network)
    ms = _make_measurements(net, args.tau, args.seed, args.profile)
    save_measurements(ms, args.out)
    _progress(f"wrote {args.tau} operating points for {net.graph.n} nodes to {args.out}")
    return 0


def cmd_noise(args) -> int:
    _require_seed(args.seed)
    ms = load_measurements(getattr(args, "in"))
    noisy = add_noise(ms, NoiseSpec(args.sigma), args.seed)
    save_measurements(noisy, args.out)
    _progress(f"wrote noisy copy (sigma_scale={args.sigma}) to {args.out}")
    return 0


def _sweep_cell(net, prior, tau, seed, args):
    t0 = time.perf_counter()
    ms = _make_measurements(net, tau, seed, args.profile)
    noisy = add_noise(ms, NoiseSpec(args.sigma), seed) if args.sigma > 0 else ms
    method = choose_method(args.method, noisy, prior)
    if method == "plugin" and args.sigma > 0:
        noisy = average_snapshots(add_noise(ms, NoiseSpec(args.sigma), [seed, r])
                                  for r in range(args.replicates))
    est = estimate_topology(prior, args.alpha, noisy, relative_threshold=args.relative,
                            method=method)
    score = score_topology(est, net)
    return {
        "tau": tau,
        "seed": seed,
        "total_abs_error_conductance": score.conductance_abs_error,
        "total_abs_error_susceptance": score.susceptance_abs_error,
        "f1": score.f1,
        "runtime_s": time.perf_counter() - t0,
    }


def cmd_sweep(args) -> int:
    _require_sigma(args.sigma)
    _require_positive("--seeds", args.seeds)
    _require_positive("--replicates", args.replicates)
    taus = parse_tau_list(args.tau)
    net = load_network(args.network)
    prior = parse_prior(args.prior, net.graph.n)
    seeds = range(args.seeds)
    t0 = time.perf_counter()
    rows = [_sweep_cell(net, prior, tau, seed, args) for tau in taus for seed in seeds]
    rows.sort(key=lambda r: (r["tau"], r["seed"]))
    columns = ["tau", "seed", "total_abs_error_conductance",
               "total_abs_error_susceptance", "f1", "runtime_s"]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# min_measurements={min_measurements(prior, net.graph.n)}\n")
        fh.write(f"# sigma_scale={args.sigma!r}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(
                str(row[c]) if c in ("tau", "seed") else repr(float(row[c]))
                for c in columns) + "\n")
    _progress(f"sweep: {len(rows)} cells in {time.perf_counter() - t0:.1f}s -> {args.out}")
    return 0


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True) + "\n"  # no indent: keeps json's C encoder
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_identify(args) -> int:
    ms = load_measurements(args.measurements)
    prior = parse_prior(args.prior, ms.n)
    t0 = time.perf_counter()
    est = identify_topology(prior, ms.n, args.alpha, ms, relative_threshold=args.relative,
                            method=args.method)
    score = score_topology(est, load_network(args.truth)) if args.truth else None
    _write_json(topology_report(est, score), args.out)
    _progress(f"identify: {len(est.edges_hat)} edges in {time.perf_counter() - t0:.2f}s")
    return 0


def cmd_phases(args) -> int:
    _require_sigma(args.sigma)
    _require_positive("--tau", args.tau)
    _require_seed(args.seed)
    spec = load_bus_spec(args.spec)

    def builder(true_net):
        ms = _make_measurements(true_net, args.tau, args.seed, args.profile)
        if args.sigma > 0:
            ms = add_noise(ms, NoiseSpec(args.sigma), args.seed)
        return ms

    result = identify_phases(spec, args.bus, builder, alpha=args.alpha,
                             relative_threshold=args.relative)
    _write_json({
        "bus": result.bus,
        "connected_phases": sorted(result.connected),
        "incident_magnitude": {p: result.incident_magnitude[p] for p in sorted(result.incident_magnitude)},
        "alpha": float(result.estimate.alpha),
        "relative": result.estimate.relative,
        "tau": result.estimate.tau,
        **solver_outcome(result.estimate),
    }, args.out)
    return 0


# -- parser --------------------------------------------------------------------

def _add_threshold_flags(p) -> None:
    """Passed on unchanged: estimate_topology resolves an unset flag."""
    p.add_argument("--alpha", type=float, help="threshold cutoff, times the median |y| if relative")
    p.add_argument("--relative", action=argparse.BooleanOptionalAction,
                   help="cut relative to the median |y| (default: iff the data are noisy)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="gridident",
        description="Identify electric-network topology and admittances from phasor snapshots.",
        epilog="With more than one BLAS thread, the first eigh or Cholesky factorization of a "
               "fresh process can take about 1 s; OPENBLAS_NUM_THREADS=1 avoids that stall "
               "for one-off runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ranktable", help="rank of the coefficient matrix vs measurement count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prior", default="complete")
    p.add_argument("--tau", required=True, help="comma list or lo:hi range")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ranktable)

    p = sub.add_parser("synth", help="generate noise-free measurements for a network file")
    p.add_argument("--network", required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=PROFILES, default="flat")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("noise", help="add measurement noise to a measurement file")
    p.add_argument("--in", dest="in", required=True)
    p.add_argument("--sigma", type=float, default=0.001)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("sweep", help="error vs measurement count over seeds")
    p.add_argument("--network", required=True)
    p.add_argument("--prior", default="complete")
    p.add_argument("--tau", required=True, help="comma list or lo:hi range")
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--method", choices=METHODS, default="auto", help=METHOD_HELP)
    p.add_argument("--replicates", type=int, default=8)
    _add_threshold_flags(p)
    p.add_argument("--profile", choices=PROFILES, default="flat")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("identify", help="recover a topology from a measurement file")
    p.add_argument("--measurements", required=True)
    p.add_argument("--prior", default="complete")
    _add_threshold_flags(p)
    p.add_argument("--method", choices=METHODS, default="auto", help=METHOD_HELP)
    p.add_argument("--truth", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("phases", help="identify connected phases of a lateral")
    p.add_argument("--spec", required=True, help="bus-spec JSON file")
    p.add_argument("--bus", required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--sigma", type=float, default=0.001)
    p.add_argument("--seed", type=int, default=0)
    _add_threshold_flags(p)
    p.add_argument("--profile", choices=PROFILES, default="flat")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_phases)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NetworkFormatError as exc:
        _progress(f"input error: {exc}")
        return 3
    except SolverFailureError as exc:
        _progress(f"solver failure: {exc}")
        return 4
    except (GridIdentError, ValueError, KeyError, OSError) as exc:
        _progress(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
