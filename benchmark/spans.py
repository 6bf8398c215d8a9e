"""Spans around the calls into gridident's layers, recorded from outside the package.

Tracer.install() replaces each traced function, in every gridident module
namespace that holds it, by a wrapper that records a span: its name, thread,
job, start, end and the time its child spans covered. Spans stay in memory
until per_layer() turns them into the per-layer metrics; uninstall() puts the
original functions back.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    thread: int
    job: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    is_job: bool = False
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _solve_info(info, args, kwargs, result):
    ms = args[0] if args else kwargs.get("ms")
    prior = args[1] if len(args) > 1 else kwargs.get("prior")
    # KKT dimension as solve_stls assembles it: tau*4n noise, 2e parameters, tau*2n multipliers
    info["kkt_dim"] = ms.tau * 6 * ms.n + 2 * prior.graph.e
    info["iterations"] = result.iterations
    info["converged"] = result.converged


def _stack_info(info, args, kwargs, result):
    rows, cols = result[0].shape
    info["bytes"] = rows * cols * 16  # computed: complex128 entries


def _load_info(info, args, kwargs, result):
    info["bytes"] = os.path.getsize(args[0] if args else kwargs["path"])


def _threshold_info(info, args, kwargs, result):
    info["kept"] = int((result != 0).sum())
    info["size"] = int(result.size)


# (module, function, span name, result hook, opens a job)
TARGETS = (
    ("netmodel", "load_network", "netmodel.load_network", None, False),
    ("synth", "synthesize", "synth.synthesize", None, False),
    ("synth", "synthesize_independent", "synth.synthesize", None, False),
    ("synth", "add_noise", "synth.add_noise", None, False),
    ("synth", "stack_coefficients", "synth.stack_coefficients", _stack_info, False),
    ("synth", "load_measurements", "synth.load_measurements", _load_info, False),
    ("graph_core", "numerical_rank", "graph_core.numerical_rank", None, False),
    ("exact_estimate", "estimate_vector_ls", "exact_estimate.estimate_vector_ls", None, False),
    ("exact_estimate", "minimum_norm_vector", "exact_estimate.minimum_norm_vector", None, False),
    ("stls", "solve_stls", "stls.solve", _solve_info, False),
    ("stls", "splu", "stls.factor", None, False),  # scipy's splu as bound in gridident.stls
    ("topo_recover", "identify_topology", "topo_recover.identify_topology", None, False),
    ("topo_recover", "threshold", "topo_recover.threshold", _threshold_info, False),
    ("topo_recover", "score_topology", "topo_recover.score_topology", None, False),
    ("cli", "_sweep_cell", "cli.sweep_cell", None, True),  # one sweep cell is one job
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.call_index = 0
        self._local = threading.local()
        self._cells = 0
        self._cells_lock = threading.Lock()
        self._saved = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.job = ""
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, is_job: bool = False, job: str | None = None):
        stack = self._stack()
        if job is not None:
            self._local.job = job
        span = Span(name, threading.get_ident(), self._local.job, time.perf_counter(),
                    is_job=is_job, info={"call": self.call_index})
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1].child_s += span.duration
            self.spans.append(span)

    def _wrap(self, fn, name, hook, is_job):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            job = None
            if is_job:
                with self._cells_lock:
                    self._cells += 1
                    job = f"cell{self._cells}"
            with self.span(name, is_job, job) as span:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(span.info, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "gridident" or name.startswith("gridident.")]
        for module, fn_name, name, hook, is_job in TARGETS:
            home = sys.modules.get(f"gridident.{module}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue  # the layer no longer has this function; its metrics read 0
            wrapper = self._wrap(original, name, hook, is_job)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._saved.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._saved):
            setattr(m, attr, original)
        self._saved.clear()


def per_layer(spans: list, jps_untraced: float, jps_traced: float, heavy: tuple) -> dict:
    """Per-layer metrics; times and counts are per job of the traced phase."""
    jobs = [s for s in spans if s.is_job]
    n_jobs = max(len(jobs), 1)
    job_time = sum(s.duration for s in jobs)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def per_job(name, attr="duration"):
        return sum(getattr(s, attr) for s in named(name)) / n_jobs

    solves = named("stls.solve")
    factor_calls = len(named("stls.factor"))
    newton = sum(s.info["iterations"] for s in solves)
    loads = named("synth.load_measurements")
    thresholds = named("topo_recover.threshold")
    hyp_size = sum(s.info["size"] for s in thresholds)

    # sweep calls: worker threads seen running cells, and the pool's parallel efficiency
    cells_by_call: dict = {}
    for s in named("cli.sweep_cell"):
        cells_by_call.setdefault(s.info["call"], []).append(s)
    sweep_calls = [s for s in named("cli.main") if s.info["call"] in cells_by_call]
    workers = {s.info["call"]: len({c.thread for c in cells_by_call[s.info["call"]]})
               for s in sweep_calls}
    pool_capacity = sum(s.duration * workers[s.info["call"]] for s in sweep_calls)
    cell_time = sum(c.duration for cs in cells_by_call.values() for c in cs)

    return {
        "stls.solve_self_s": per_job("stls.solve", "self_s"),
        "stls.solve_calls": len(solves) / n_jobs,
        "stls.factor_s": per_job("stls.factor"),
        "stls.factor_calls": factor_calls / n_jobs,
        "stls.newton_steps": newton / n_jobs,
        "stls.useful_factor_ratio": newton / factor_calls if factor_calls else 0.0,
        "stls.kkt_dim_max": max((s.info["kkt_dim"] for s in solves), default=0),
        "stls.nonconverged": sum(not s.info["converged"] for s in solves) / n_jobs,
        "graph_core.numerical_rank_s": per_job("graph_core.numerical_rank"),
        "graph_core.numerical_rank_calls": len(named("graph_core.numerical_rank")) / n_jobs,
        "exact_estimate.minimum_norm_vector_s": per_job("exact_estimate.minimum_norm_vector"),
        "exact_estimate.estimate_vector_ls_self_s":
            per_job("exact_estimate.estimate_vector_ls", "self_s"),
        "synth.stack_coefficients_s": per_job("synth.stack_coefficients"),
        "synth.stack_bytes": max((s.info["bytes"] for s in named("synth.stack_coefficients")),
                                 default=0),
        "synth.load_measurements_s": per_job("synth.load_measurements"),
        "synth.measurement_file_bytes":
            sum(s.info["bytes"] for s in loads) / len(loads) if loads else 0.0,
        "synth.synthesize_s": per_job("synth.synthesize"),
        "synth.add_noise_s": per_job("synth.add_noise"),
        "netmodel.load_network_s": per_job("netmodel.load_network"),
        "topo_recover.identify_topology_self_s":
            per_job("topo_recover.identify_topology", "self_s"),
        "topo_recover.kept_ratio":
            sum(s.info["kept"] for s in thresholds) / hyp_size if hyp_size else 0.0,
        "cli.sweep_workers": max(workers.values(), default=0),
        "cli.sweep_parallel_eff": cell_time / pool_capacity if pool_capacity else 0.0,
        "trace.overhead_ratio": jps_untraced / jps_traced if jps_traced else 0.0,
        "trace.coverage": sum(s.child_s for s in jobs) / job_time if job_time else 0.0,
        "trace.heavy_share": sum(total(h) for h in heavy) / job_time if job_time else 0.0,
    }
