"""Metric definitions of the gridident benchmark.

Every metric has a unit and a better-direction. END_TO_END metrics are what a
user of `gridident identify` and `gridident sweep` sees; the gated ones are
listed in BENCHMARK.json and printed on the last line of a `--trace 0` run.
PER_LAYER metrics come from the traced run (`--trace 1`); each one states the
end-to-end metric it should move, and on which workload.
"""

from __future__ import annotations

# Seed whose draws reproduce the committed networks (tree123.json).
DEFAULT_SEED = 12301

# A claimed gain must also hold on this seed, which no change may be tuned on.
HELD_OUT_SEED = 90417

# Top-level spans of a job (its direct children) must cover at least this
# share of the job's wall time, or the trace misses a layer.
MIN_TRACE_COVERAGE = 0.9

# Noiseless jobs must match the truth to this relative error (criterion 03).
NOISELESS_REL_TOL = 1e-8

# Total absolute admittance errors below this read as this value: on noiseless
# data the error is round-off near 1e-12, which the 1e-8 check already bounds.
ABS_ERR_FLOOR = 1e-8

# name -> (unit, better, gated). Gated metrics are in BENCHMARK.json.
# fail_ratio is 0 on a healthy run, so it is printed but not gated; the
# last line carries the same information as `failed` over `attempted`.
END_TO_END = {
    "setup_s": ("s", "lower", True),
    "jobs_per_s": ("1/s", "higher", True),
    "call_p50_s": ("s", "lower", True),
    "call_tail_s": ("s", "lower", True),
    "peak_rss_mb": ("MB", "lower", True),
    "fail_ratio": ("ratio", "lower", False),
    "f1_median": ("ratio", "higher", True),
    "abs_err_median": ("pu", "lower", True),
}

_STLS = "call_p50_s, jobs_per_s on stls-mesh14 and sweep-tree123; no change on exact-complete"
_EXACT = "call_p50_s on exact-complete; small on stls-mesh14"

# name -> (unit, better, expected end-to-end effect)
PER_LAYER = {
    "stls.solve_self_s": ("s/job", "lower", _STLS),
    "stls.solve_calls": ("1/job", "lower", _STLS),
    "stls.factor_s": ("s/job", "lower", _STLS),
    "stls.factor_calls": ("1/job", "lower", _STLS),
    "stls.newton_steps": ("1/job", "lower", _STLS),
    "stls.useful_factor_ratio": ("ratio", "higher", _STLS),
    "stls.kkt_dim_max": ("rows", "lower", _STLS),
    "stls.nonconverged": ("1/job", "lower", "fail_ratio on stls-mesh14 and sweep-tree123"),
    "graph_core.numerical_rank_s": ("s/job", "lower", _EXACT),
    "graph_core.numerical_rank_calls": ("1/job", "lower", _EXACT),
    "exact_estimate.minimum_norm_vector_s": ("s/job", "lower", _EXACT),
    "exact_estimate.estimate_vector_ls_self_s": ("s/job", "lower", _EXACT),
    "synth.stack_coefficients_s": ("s/job", "lower", "peak_rss_mb, call_p50_s on exact-complete"),
    "synth.stack_bytes": ("bytes", "lower", "peak_rss_mb, call_p50_s on exact-complete (computed)"),
    "synth.load_measurements_s": ("s/job", "lower", "call_p50_s on stls-mesh14, at most a few %"),
    "synth.measurement_file_bytes": ("bytes", "lower", "call_p50_s on stls-mesh14, at most a few %"),
    "synth.synthesize_s": ("s/job", "lower", "jobs_per_s on sweep-tree123, 2% or less; setup_s elsewhere"),
    "synth.add_noise_s": ("s/job", "lower", "jobs_per_s on sweep-tree123, 2% or less; setup_s elsewhere"),
    "netmodel.load_network_s": ("s/job", "lower", "setup_s"),
    "topo_recover.identify_topology_self_s": ("s/job", "lower", "f1_median on stls-mesh14"),
    "topo_recover.kept_ratio": ("ratio", "lower", "f1_median on stls-mesh14"),
    "cli.sweep_workers": ("threads", "higher", "jobs_per_s on sweep-tree123"),
    "cli.sweep_parallel_eff": ("ratio", "higher", "jobs_per_s on sweep-tree123"),
    "trace.overhead_ratio": ("ratio", "lower", "none: validity of the trace"),
    "trace.coverage": ("ratio", "higher", "none: validity of the trace"),
    "trace.heavy_share": ("ratio", "lower", "the workload's heavy layer; at least 0.5 on the seed code"),
}
