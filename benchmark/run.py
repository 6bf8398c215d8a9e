#!/usr/bin/env python3
"""Benchmark of `gridident identify` and `gridident sweep`.

Run one workload, from the root of a checkout:

    python3 benchmark/run.py --workload stls-mesh14 --seed 12301 --seconds 30 --trace 0

Each run sets up (imports gridident, writes the workload's inputs drawn from
--seed and runs one warm-up job) several times and reports the median, then
calls `gridident.cli.main([...])` in-process for --seconds, in whole rounds
of the workload's calls, and checks the output of every job. With --trace 0
the last line of standard output is a JSON object whose metrics are the
end-to-end metrics gated in BENCHMARK.json. With --trace 1 the first half of
the time runs untraced and the second half records spans around the calls
into each gridident module, and the metrics are the per-layer metrics.
The lines before it are a readable table and a `REPORT {...}` line with
every metric, its unit and better-direction, the machine and the failed jobs.

Every workload, each in its own process, with a table of all of them:

    python3 benchmark/run.py --workload all --seconds 30 [--reference]

--reference adds an informational single-threaded run of each workload
(BLAS and the sweep pool at one thread). --tiny shrinks every workload for
the smoke test, benchmark/test_bench_smoke.py.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# named here too: workloads.py imports gridident, which a bare checkout lacks
WORKLOAD_NAMES = ("stls-mesh14", "exact-complete", "sweep-tree123")
SETUP_REPEATS = 3

sys.path.insert(0, str(SRC))

from specs import (ABS_ERR_FLOOR, DEFAULT_SEED, END_TO_END,  # noqa: E402
                   MIN_TRACE_COVERAGE, PER_LAYER)


def _import_seconds() -> float:
    """Wall time of a fresh interpreter that imports gridident.cli and exits."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gridident.cli"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def _blas_info() -> tuple:
    """OpenBLAS thread count and configuration of the library numpy loaded."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "")):
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return threads(), config().decode()
    return None, None


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas_threads, blas_config = _blas_info()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": blas_threads,
        "openblas": blas_config,
        "sweep_threads": int(os.environ["GRIDIDENT_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_call(cli, call, tracer=None):
    """Run one CLI call; return its wall time and one outcome per job."""
    from workloads import JobOutcome
    call.out.unlink(missing_ok=True)
    err = io.StringIO()
    if tracer is None:
        span = contextlib.nullcontext()
    else:
        tracer.call_index += 1
        span = tracer.span("cli.main", is_job=not call.sweep, job=call.name)
    t0 = time.perf_counter()
    try:
        with span, contextlib.redirect_stderr(err):
            rc = cli.main(call.argv)
    except (Exception, SystemExit) as exc:  # a failed job is counted, not fatal
        rc = exc
    wall = time.perf_counter() - t0
    if rc == 0:
        return wall, call.check()
    last = (err.getvalue().strip().splitlines() or [""])[-1]
    reason = f"exit code {rc}" if isinstance(rc, int) else f"raised {rc!r}"
    return wall, [JobOutcome(job, False, f"{reason}: {last}") for job in call.jobs]


def timed_loop(cli, plan, seconds, first_round=0, tracer=None):
    """Run whole rounds of calls until `seconds` have passed; at least one round."""
    walls, outcomes = [], []
    r = first_round
    t0 = time.perf_counter()
    while True:
        for call in plan.rounds[r % len(plan.rounds)]:
            wall, outs = run_call(cli, call, tracer)
            walls.append(wall)
            outcomes.extend(outs)
        r += 1
        if time.perf_counter() - t0 >= seconds:
            return walls, outcomes, r


def nearest_rank(values, pct):
    """Value at the pct-th percentile (nearest rank) and the count of values beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def jobs_per_s(walls, outcomes):
    return sum(o.ok for o in outcomes) / sum(walls)


def end_to_end(walls, outcomes, setup_s, tail_pct) -> tuple:
    ok = [o for o in outcomes if o.ok]
    tail, beyond = nearest_rank(walls, tail_pct)
    values = {
        "setup_s": setup_s,
        "jobs_per_s": jobs_per_s(walls, outcomes),
        "call_p50_s": statistics.median(walls),
        "call_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": (len(outcomes) - len(ok)) / len(outcomes),
        "f1_median": statistics.median(o.f1 for o in ok) if ok else 0.0,
        "abs_err_median":
            statistics.median(max(o.abs_err, ABS_ERR_FLOOR) for o in ok) if ok else 0.0,
    }
    details = {"calls": len(walls), "tail_percentile": tail_pct, "calls_beyond_tail": beyond,
               "jobs": len(outcomes), "call_walls_s": walls}
    return values, details


def run_workload(args) -> int:
    if not (SRC / "gridident" / "cli.py").is_file() or not (ROOT / "networks").is_dir():
        print(f"error: no gridident sources under {ROOT}", file=sys.stderr)
        return 2
    # the sweep pool never runs more threads than this process may use
    cores = len(os.sched_getaffinity(0))
    cap = os.environ.get("GRIDIDENT_THREADS")
    os.environ["GRIDIDENT_THREADS"] = str(min(cores, int(cap)) if cap else cores)

    import workloads
    from gridident import cli
    from spans import Tracer, per_layer

    workload = workloads.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        for _ in range(1 if args.tiny else SETUP_REPEATS):
            t_import = _import_seconds()
            t0 = time.perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            plan = workload.build(work, args.seed, args.tiny)
            run_call(cli, plan.warmup)
            setups.append(t_import + time.perf_counter() - t0)
        digest = hashlib.sha256()
        for path in sorted(work.iterdir()):
            digest.update(path.name.encode() + path.read_bytes())

        checks = {}
        if args.trace:
            walls_a, outs_a, r = timed_loop(cli, plan, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                walls_b, outs_b, _ = timed_loop(cli, plan, args.seconds / 2, r, tracer)
            finally:
                tracer.uninstall()
            outcomes = outs_a + outs_b
            values = per_layer(tracer.spans, jobs_per_s(walls_a, outs_a),
                               jobs_per_s(walls_b, outs_b), workload.heavy)
            checks["trace_coverage_ok"] = values["trace.coverage"] >= MIN_TRACE_COVERAGE
            checks["heavy_share_at_least_half"] = values["trace.heavy_share"] >= 0.5
            specs = {k: (unit, better) for k, (unit, better, _) in PER_LAYER.items()}
            gated = list(PER_LAYER)
            details = {"traced_jobs": len(outs_b), "untraced_jobs": len(outs_a)}
        else:
            walls, outcomes, _ = timed_loop(cli, plan, args.seconds)
            values, details = end_to_end(walls, outcomes, statistics.median(setups),
                                         workload.tail_pct)
            specs = {k: (unit, better) for k, (unit, better, _) in END_TO_END.items()}
            gated = [k for k, (_, _, g) in END_TO_END.items() if g]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [o for o in outcomes if not o.ok]
    # The coverage check guards the trace itself; the heavy-layer share is informational.
    # Tiny jobs are dominated by argument parsing, which no span covers.
    correct = not failed and (args.tiny or checks.get("trace_coverage_ok", True))
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "inputs_sha256": digest.hexdigest(),
        "setup_samples_s": setups, "environment": environment(), "details": details,
        "checks": checks,
        "metrics": {k: {"value": values[k], "unit": specs[k][0], "better": specs[k][1]}
                    for k in specs},
        "failed_jobs": [{"job": o.name, "reason": o.reason} for o in failed],
    }
    print(f"gridident benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("  " + ", ".join(f"{k}={v}" for k, v in report["environment"].items()))
    for name, m in report["metrics"].items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']:<6} {m['better']}")
    print(f"  {len(outcomes)} jobs, {len(failed)} failed"
          + "".join(f"\n    FAILED {o.name}: {o.reason}" for o in failed))
    print("REPORT " + json.dumps(report))
    print(json.dumps({
        "correct": bool(correct), "attempted": len(outcomes), "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": specs[k][0]} for k in gated},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table of all metrics."""
    variants = [("default", {})]
    if args.reference:
        variants.append(("1-thread", {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                                      "MKL_NUM_THREADS": "1", "GRIDIDENT_THREADS": "1"}))
    reports, ok = {}, True
    for name in WORKLOAD_NAMES:
        for label, extra in variants:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, env=dict(os.environ, **extra), capture_output=True,
                                  text=True, timeout=900)
            lines = proc.stdout.splitlines()
            report = next((json.loads(ln[7:]) for ln in lines if ln.startswith("REPORT ")), None)
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if report is None or result is None or not result["correct"]:
                ok = False
                sys.stderr.write(proc.stderr)
            reports[f"{name}/{label}"] = report
    print(f"{'metric':<42} {'unit':<6} {'better':<7}" + "".join(f" {k:>28}" for k in reports))
    metric_specs = PER_LAYER if args.trace else END_TO_END
    for metric, (unit, better, _) in metric_specs.items():
        cells = "".join(
            f" {r['metrics'][metric]['value']:>28.6g}" if r else f" {'-':>28}"
            for r in reports.values())
        print(f"{metric:<42} {unit:<6} {better:<7}{cells}")
    for key, r in reports.items():
        for job in (r or {}).get("failed_jobs", []):
            print(f"FAILED {key} {job['job']}: {job['reason']}")
    print(json.dumps({"correct": ok, "reports": reports}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink inputs for the smoke test")
    parser.add_argument("--reference", action="store_true",
                        help="with --workload all, add a single-threaded run of each workload")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
